// Protocol micro-benchmarks (google-benchmark): hot-path costs of the
// building blocks — samplers, views, codecs, crypto, auth handshakes and a
// whole simulated round. Not a paper figure; engineering reference data.
#include <benchmark/benchmark.h>

#include "brahms/auth.hpp"
#include "brahms/node.hpp"
#include "brahms/sampler.hpp"
#include "core/node_factory.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "gossip/framework.hpp"
#include "sim/engine.hpp"
#include "wire/link_cipher.hpp"
#include "wire/link_session.hpp"
#include "wire/message.hpp"

namespace {

using namespace raptee;

void BM_Sha256_64B(benchmark::State& state) {
  std::vector<std::uint8_t> data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_AesCtr_1KiB(benchmark::State& state) {
  crypto::Drbg kg(1);
  const auto key = kg.generate_key();
  const crypto::Aes aes = crypto::Aes::aes256(key.bytes());
  std::vector<std::uint8_t> data(1024, 0x55);
  const auto counter = crypto::make_counter_block({});
  for (auto _ : state) {
    crypto::AesCtr ctr(aes, counter);
    ctr.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_AesCtr_1KiB);

/// One AES key expansion (Arg: key bits), as every link-session key and
/// every full-mode proof key runs it.
void BM_AesKeySchedule(benchmark::State& state) {
  const auto size = state.range(0) == 128 ? crypto::Aes::KeySize::k128
                                          : crypto::Aes::KeySize::k256;
  std::array<std::uint8_t, 32> key{};
  crypto::Drbg(9).fill(key.data(), key.size());
  for (auto _ : state) {
    ++key[0];
    const crypto::Aes aes(key.data(), size);
    benchmark::DoNotOptimize(&aes);
  }
}
BENCHMARK(BM_AesKeySchedule)->Arg(128)->Arg(256);

/// A fingerprint-mode auth proof under a long-lived key, as
/// KeyedAuthenticator computes it: the key's HMAC schedule is cached.
void BM_HmacProof(benchmark::State& state) {
  crypto::Drbg kg(5);
  const crypto::HmacKey key(kg.generate_key().bytes());
  crypto::AuthNonce a{}, b{};
  kg.fill(a.data(), a.size());
  kg.fill(b.data(), b.size());
  for (auto _ : state) {
    ++a[0];
    benchmark::DoNotOptimize(brahms::auth_detail::mac_proof(key, "resp", a, b));
  }
}
BENCHMARK(BM_HmacProof);

void BM_DrbgFill(benchmark::State& state) {
  crypto::Drbg drbg(6);
  std::array<std::uint8_t, 32> out{};
  for (auto _ : state) {
    drbg.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_DrbgFill);

/// One link-session establishment: the pair secret's expand, then two
/// LinkCipher key schedules (AES-256 and HMAC subkeys per direction).
void BM_LinkSessionEstablish(benchmark::State& state) {
  crypto::Drbg kg(7);
  wire::LinkTable table(kg.generate_key());
  std::uint64_t token = 0;
  for (auto _ : state) {
    wire::LinkSession& session = table.establish(NodeId{1}, NodeId{2}, ++token);
    benchmark::DoNotOptimize(&session);
  }
}
BENCHMARK(BM_LinkSessionEstablish);

/// A link table holding 85k cached sessions, pairs {i, i + 1} used over
/// rounds 0-3: the size `raptee_sealed_wan` reaches in a 4-round run.
std::unique_ptr<wire::LinkTable> filled_link_table() {
  crypto::Drbg kg(8);
  auto table = std::make_unique<wire::LinkTable>(kg.generate_key());
  for (std::uint32_t i = 0; i < 85'000; ++i) {
    (void)table->session(NodeId{i}, NodeId{i + 1}, i % 4);
  }
  return table;
}

/// The engine's path: session() on a pair the table has never seen, with
/// about 85k sessions already cached. Fixed iterations keep the table's
/// growth (and memory) the same on every run.
void BM_LinkTableFirstUse(benchmark::State& state) {
  const auto table = filled_link_table();
  std::uint32_t next = 0;
  for (auto _ : state) {
    wire::LinkSession& session = table->session(NodeId{next}, NodeId{next + 2}, 4);
    benchmark::DoNotOptimize(&session);
    ++next;
  }
}
BENCHMARK(BM_LinkTableFirstUse)->Iterations(1 << 15);

/// End-of-round retirement with about 85k live sessions, none idle.
void BM_LinkTableRetireIdle(benchmark::State& state) {
  const auto table = filled_link_table();
  for (auto _ : state) {
    table->retire_idle(4, 64);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LinkTableRetireIdle);

void BM_LinkCipher_SealOpen(benchmark::State& state) {
  crypto::Drbg kg(2);
  const auto key = kg.generate_key();
  wire::LinkCipher tx(key, 0), rx(key, 0);
  const std::vector<std::uint8_t> msg(256, 0x42);
  for (auto _ : state) {
    auto opened = rx.open(tx.seal(msg));
    benchmark::DoNotOptimize(opened.has_value());
  }
}
BENCHMARK(BM_LinkCipher_SealOpen);

void BM_SamplerArray_Feed(benchmark::State& state) {
  Rng rng(3);
  brahms::SamplerArray samplers(static_cast<std::size_t>(state.range(0)), rng);
  std::uint32_t next_id = 0;
  for (auto _ : state) {
    samplers.feed(NodeId{next_id++ % 4096});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SamplerArray_Feed)->Arg(40)->Arg(200);

/// A round's pulled stream (Arg: IDs, with duplicates) into l2 = 40
/// samplers through the kernel this CPU selected.
void BM_SamplerArray_FeedBatch(benchmark::State& state) {
  Rng rng(3);
  brahms::SamplerArray samplers(40, rng);
  std::vector<NodeId> batch;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    batch.emplace_back(static_cast<std::uint32_t>(rng.below(2000)));
  }
  for (auto _ : state) {
    samplers.feed_all(batch);
    benchmark::DoNotOptimize(samplers.sample(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SamplerArray_FeedBatch)->Arg(634);

/// One plain-Brahms node's end of round at l1 = l2 = 40: α·l1 = 16 pushes
/// and β·l1 = 16 pull answers of 40 IDs drawn from 2,000, the shape of a
/// raptee_sealed_wan round — sampler feed, validation and view renewal.
/// The round's pushes and pulls are set up outside the timed region.
void BM_BrahmsEndRound(benchmark::State& state) {
  constexpr std::uint32_t kUniverse = 2000;
  brahms::BrahmsConfig config;
  config.params.l1 = config.params.l2 = 40;
  config.sampler_validation_period = 1;
  crypto::Drbg kg(8);
  Rng rng(8);
  const auto random_ids = [&](std::size_t n) {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.emplace_back(1 + static_cast<std::uint32_t>(rng.below(kUniverse)));
    }
    return ids;
  };
  brahms::BrahmsNode node(
      NodeId{0}, config,
      std::make_unique<brahms::KeyedAuthenticator>(brahms::AuthMode::kOracle,
                                                   kg.generate_key(), kg.fork("n")),
      Rng(9), [](NodeId id) { return id.value % 50 != 0; });
  node.bootstrap(random_ids(40));
  std::vector<wire::PullReply> replies;
  for (std::uint32_t k = 0; k < 16; ++k) {
    replies.push_back(wire::PullReply{NodeId{k + 1}, {}, random_ids(40)});
  }
  Round r = 0;
  for (auto _ : state) {
    state.PauseTiming();
    node.begin_round(++r);
    for (NodeId sender : random_ids(16)) node.on_push(wire::PushMessage{sender});
    for (const auto& reply : replies) {
      (void)node.open_pull(reply.sender);
      (void)node.process_pull_reply(reply);
    }
    state.ResumeTiming();
    node.end_round(r);
  }
}
BENCHMARK(BM_BrahmsEndRound);

void BM_PullReply_Codec(benchmark::State& state) {
  wire::PullReply reply;
  reply.sender = NodeId{1};
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    reply.view.emplace_back(i);
  }
  for (auto _ : state) {
    const auto decoded = wire::decode(wire::encode(wire::Message{reply}));
    benchmark::DoNotOptimize(&decoded);
  }
}
BENCHMARK(BM_PullReply_Codec)->Arg(40)->Arg(200);

void BM_AuthHandshake(benchmark::State& state) {
  const auto mode = static_cast<brahms::AuthMode>(state.range(0));
  crypto::Drbg kg(4);
  const auto group = kg.generate_key();
  brahms::KeyedAuthenticator a(mode, group, kg.fork("a"));
  brahms::KeyedAuthenticator b(mode, group, kg.fork("b"));
  for (auto _ : state) {
    const auto challenge = a.make_challenge();
    const auto response = b.make_response(challenge);
    crypto::AuthConfirm confirm;
    const bool trusted = a.verify_response(challenge, response, &confirm);
    benchmark::DoNotOptimize(b.verify_confirm(challenge, response, confirm));
    benchmark::DoNotOptimize(trusted);
  }
}
BENCHMARK(BM_AuthHandshake)
    ->Arg(static_cast<int>(brahms::AuthMode::kFull))
    ->Arg(static_cast<int>(brahms::AuthMode::kFingerprint))
    ->Arg(static_cast<int>(brahms::AuthMode::kOracle));

void BM_FrameworkRound_Cyclon(benchmark::State& state) {
  gossip::FrameworkDriver driver(gossip::cyclon_params(20),
                                 static_cast<std::size_t>(state.range(0)), 5);
  driver.bootstrap_uniform();
  for (auto _ : state) {
    driver.run_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FrameworkRound_Cyclon)->Arg(200)->Arg(1000);

void BM_EngineRound_Brahms(benchmark::State& state) {
  core::NodeFactory factory(6, brahms::AuthMode::kFingerprint);
  sim::Engine engine({6});
  brahms::BrahmsConfig config;
  config.params.l1 = 24;
  config.params.l2 = 24;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) {
    engine.add_node(factory.make_honest(NodeId{i}, config), NodeKind::kHonest);
  }
  engine.bootstrap_uniform(24);
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EngineRound_Brahms)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
