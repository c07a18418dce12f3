// Layer probes: each times one library layer through its public
// functions, outside any workload loop, at the operating point of the
// workload that asks (view sizes, leg size, event-queue depth).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "alloc.hpp"
#include "brahms/auth.hpp"
#include "brahms/sampler.hpp"
#include "common/rng.hpp"
#include "core/node_factory.hpp"
#include "crypto/aes.hpp"
#include "crypto/key.hpp"
#include "crypto/sha256.hpp"
#include "evt/scheduler.hpp"
#include "sim/engine.hpp"
#include "wire/link_cipher.hpp"
#include "wire/message.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps probe results observable so the timed work is not elided.
volatile std::uint64_t g_sink = 0;

/// Median nanoseconds per operation of `batch()` (which performs `ops`
/// operations) over at least 7 batches and 40 ms.
template <typename Fn>
double ns_per_op(std::size_t ops, Fn&& batch) {
  batch();  // warm caches and lazy state
  std::vector<double> samples;
  const auto until = Clock::now() + std::chrono::milliseconds(40);
  while (samples.size() < 7 || Clock::now() < until) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                      static_cast<double>(ops));
  }
  return median(std::move(samples));
}

double mbps(std::size_t bytes, double ns) {
  return static_cast<double>(bytes) / ns * 1e3;  // bytes/ns = GB/s
}

}  // namespace

void add_layer_probes(const OperatingPoint& point, MetricSet& out) {
  namespace crypto = raptee::crypto;
  crypto::Drbg kg(0x70726F6265ull);

  for (const std::size_t bytes : {std::size_t{64}, std::size_t{1024}}) {
    const std::vector<std::uint8_t> data = kg.bytes(bytes);
    const double ns = ns_per_op(256, [&] {
      for (int i = 0; i < 256; ++i) g_sink = g_sink + crypto::sha256(data)[0];
    });
    out.add(bytes == 64 ? "crypto.sha256_MBps.64B" : "crypto.sha256_MBps.1KiB",
            mbps(bytes, ns), "MB/s");
  }

  {
    const crypto::SymmetricKey key = kg.generate_key();
    crypto::AuthNonce a{}, b{};
    kg.fill(a.data(), a.size());
    kg.fill(b.data(), b.size());
    out.add("crypto.hmac_proof_ns", ns_per_op(256, [&] {
              for (int i = 0; i < 256; ++i) {
                a[0] = static_cast<std::uint8_t>(i);
                g_sink = g_sink + raptee::brahms::auth_detail::mac_proof(key, "perfbench",
                                                                          a, b)[0];
              }
            }),
            "ns");
  }

  {
    const crypto::Aes aes = crypto::Aes::aes256(kg.generate_key().bytes());
    std::vector<std::uint8_t> data(1024, 0x55);
    const crypto::Block counter = crypto::make_counter_block(kg.generate_nonce());
    const double ns = ns_per_op(16, [&] {
      for (int i = 0; i < 16; ++i) {
        crypto::AesCtr ctr(aes, counter);
        ctr.process(data);
      }
      g_sink = g_sink + data[0];
    });
    out.add("crypto.aes_ctr_MBps", mbps(data.size(), ns), "MB/s");
  }

  {
    crypto::Drbg drbg(7);
    std::uint8_t buf[32];
    out.add("crypto.drbg_fill_ns", ns_per_op(256, [&] {
              for (int i = 0; i < 256; ++i) {
                drbg.fill(buf, sizeof buf);
                g_sink = g_sink + buf[0];
              }
            }),
            "ns");
  }

  using raptee::brahms::AuthMode;
  for (const auto& [mode, name] :
       {std::pair{AuthMode::kFull, "auth.handshake_us.full"},
        std::pair{AuthMode::kFingerprint, "auth.handshake_us.fingerprint"},
        std::pair{AuthMode::kOracle, "auth.handshake_us.oracle"}}) {
    const crypto::SymmetricKey group = kg.generate_key();
    raptee::brahms::KeyedAuthenticator a(mode, group, kg.fork("a"));
    raptee::brahms::KeyedAuthenticator b(mode, group, kg.fork("b"));
    const double ns = ns_per_op(64, [&] {
      for (int i = 0; i < 64; ++i) {
        const auto challenge = a.make_challenge();
        const auto response = b.make_response(challenge);
        crypto::AuthConfirm confirm;
        const bool trusted = a.verify_response(challenge, response, &confirm);
        g_sink = g_sink + (b.verify_confirm(challenge, response, confirm) ? 1 : 0) +
                 (trusted ? 1 : 0);
      }
    });
    out.add(name, ns / 1e3, "us");
  }

  {
    raptee::Rng rng(11);
    raptee::brahms::SamplerArray samplers(point.l2, rng);
    std::uint32_t next_id = 0;
    out.add("sampler.feed_ns", ns_per_op(1024, [&] {
              for (int i = 0; i < 1024; ++i) samplers.feed(raptee::NodeId{next_id++ % 4096});
            }),
            "ns");
  }

  {
    const crypto::SymmetricKey key = kg.generate_key();
    raptee::wire::LinkCipher tx(key, 0), rx(key, 0);
    const std::vector<std::uint8_t> msg = kg.bytes(std::max<std::size_t>(point.leg_bytes, 1));
    const double ns = ns_per_op(32, [&] {
      for (int i = 0; i < 32; ++i) {
        const auto opened = rx.open(tx.seal(msg));
        g_sink = g_sink + (opened ? opened->size() : 0);
      }
    });
    out.add("wire.seal_open_us", ns / 1e3, "us");
  }

  {
    raptee::wire::PullReply reply;
    reply.sender = raptee::NodeId{1};
    for (std::uint32_t i = 0; i < point.l1; ++i) reply.view.emplace_back(i * 7 + 3);
    const raptee::wire::Message message{reply};
    std::vector<std::uint8_t> bytes;
    raptee::wire::Message decoded;
    const double ns = ns_per_op(256, [&] {
      for (int i = 0; i < 256; ++i) {
        raptee::wire::encode_into(message, bytes);
        raptee::wire::decode_into(bytes.data(), bytes.size(), decoded);
        g_sink = g_sink + bytes.size();
      }
    });
    out.add("wire.codec_us", ns / 1e3, "us");
  }

  {
    const std::size_t depth = std::max<std::size_t>(point.evt_depth, 1);
    raptee::Rng rng(13);
    std::vector<std::uint64_t> at(depth);
    for (auto& t : at) t = rng.next() % 2'500'000;
    raptee::evt::Scheduler sched;
    const double ns = ns_per_op(depth, [&] {
      for (std::size_t i = 0; i < depth; ++i) sched.schedule(sched.now_us() + at[i], 0, i);
      while (!sched.empty()) g_sink = g_sink + sched.pop().a;
    });
    out.add("evt.schedule_pop_ns", ns, "ns");
  }
}

void add_sim_metrics(const std::vector<RoundSample>& rounds,
                     const std::vector<RoundSample>& node_rounds, MetricSet& out) {
  static constexpr const char* kPhaseNames[5] = {
      "sim.begin_round_ms", "sim.push_gen_ms", "sim.push_deliver_ms", "sim.pulls_ms",
      "sim.end_round_ms"};
  for (std::size_t p = 0; p < 5; ++p) {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(r.phase_ms[p]);
    out.add(kPhaseNames[p], median(std::move(v)), "ms");
  }
  // Self time: round wall time minus time inside INode calls (the probe
  // population runs one engine worker, so no calls overlap).
  std::vector<double> self;
  for (const auto& r : node_rounds) {
    double inside_ns = 0.0;
    for (std::size_t k = 0; k < kCallKinds; ++k) inside_ns += static_cast<double>(r.calls.ns[k]);
    self.push_back(std::max(0.0, r.wall_ms - inside_ns / 1e6));
  }
  out.add("sim.self_ms", median(std::move(self)), "ms");
  std::uint64_t started = 0, completed = 0;
  for (const auto& r : rounds) {
    started += r.pulls_started;
    completed += r.pulls_completed;
  }
  out.add("sim.exchanges_per_round",
          static_cast<double>(started) / static_cast<double>(std::max<std::size_t>(rounds.size(), 1)),
          "count");
  out.add("sim.pull_success_ratio",
          started == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(started),
          "ratio");
}

void add_node_metrics(const std::vector<RoundSample>& rounds, MetricSet& out) {
  CallStats total;
  for (const auto& r : rounds) total.add(r.calls);
  const auto per_call_us = [&](CallKind k) {
    return total.calls[k] == 0 ? 0.0
                               : static_cast<double>(total.ns[k]) /
                                     static_cast<double>(total.calls[k]) / 1e3;
  };
  const double nrounds = static_cast<double>(std::max<std::size_t>(rounds.size(), 1));
  out.add("node.exchange_us",
          total.exchanges == 0 ? 0.0
                               : static_cast<double>(total.ns[kCallExchange]) /
                                     static_cast<double>(total.exchanges) / 1e3,
          "us");
  out.add("node.begin_round_us", per_call_us(kCallBeginRound), "us");
  out.add("node.on_push_us", per_call_us(kCallOnPush), "us");
  out.add("node.end_round_us", per_call_us(kCallEndRound), "us");
  std::uint64_t calls = 0;
  for (const std::uint64_t c : total.calls) calls += c;
  out.add("node.calls_per_round", static_cast<double>(calls) / nrounds, "count");
  out.add("node.exchanges_per_round", static_cast<double>(total.exchanges) / nrounds,
          "count");
  out.add("node.on_push_per_round", static_cast<double>(total.calls[kCallOnPush]) / nrounds,
          "count");
}

void add_alloc_metrics(const std::vector<RoundSample>& rounds, std::size_t n,
                       MetricSet& out) {
  std::uint64_t allocs = 0, alloc_bytes = 0;
  for (const auto& r : rounds) {
    allocs += r.allocs;
    alloc_bytes += r.alloc_bytes;
  }
  const double node_rounds =
      static_cast<double>(n) * static_cast<double>(std::max<std::size_t>(rounds.size(), 1));
  out.add("alloc.per_node_round", static_cast<double>(allocs) / node_rounds, "count");
  out.add("alloc.bytes_per_node_round", static_cast<double>(alloc_bytes) / node_rounds,
          "B");
}

HonestPopulation::HonestPopulation(std::size_t n, std::size_t l, std::uint64_t seed,
                                   bool decorate)
    : engine_([&] {
        raptee::sim::EngineConfig ec;
        ec.seed = seed;
        ec.threads = 1;
        return ec;
      }()) {
  raptee::brahms::BrahmsConfig nc;
  nc.params.l1 = l;
  nc.params.l2 = l;
  raptee::core::NodeFactory factory(seed, raptee::brahms::AuthMode::kFingerprint);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::unique_ptr<raptee::sim::INode> node =
        factory.make_honest(raptee::NodeId{i}, nc, engine_.aliveness_probe());
    if (decorate) {
      auto timed = std::make_unique<TimedNode>(std::move(node));
      timed_.push_back(timed.get());
      node = std::move(timed);
    }
    engine_.add_node(std::move(node), raptee::NodeKind::kHonest);
  }
  engine_.bootstrap_uniform(std::min(l, n - 1));
}

RoundSample HonestPopulation::step() {
  const auto counters = engine_.counters();
  const alloc::Counts a0 = alloc::now();
  const auto t0 = Clock::now();
  engine_.step();
  RoundSample s;
  s.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const alloc::Counts a1 = alloc::now();
  s.allocs = a1.calls - a0.calls;
  s.alloc_bytes = a1.bytes - a0.bytes;
  for (std::size_t p = 0; p < 5; ++p) {
    s.phase_ms[p] = static_cast<double>(engine_.last_phase_us()[p]) / 1e3;
  }
  s.pulls_started = engine_.counters().pulls_started - counters.pulls_started;
  s.pulls_completed = engine_.counters().pulls_completed - counters.pulls_completed;
  if (!timed_.empty()) {
    CallStats total;
    for (const TimedNode* node : timed_) total.add(node->stats());
    s.calls = total;
    for (std::size_t k = 0; k < kCallKinds; ++k) {
      s.calls.ns[k] -= calls_before_.ns[k];
      s.calls.calls[k] -= calls_before_.calls[k];
    }
    s.calls.exchanges -= calls_before_.exchanges;
    calls_before_ = total;
  }
  return s;
}

std::vector<RoundSample> node_probe(std::size_t n, std::size_t l, std::uint64_t seed,
                                    std::size_t rounds) {
  HonestPopulation population(n, l, seed, true);
  std::vector<RoundSample> samples;
  for (std::size_t r = 0; r < rounds; ++r) samples.push_back(population.step());
  return samples;
}

}  // namespace perfbench
