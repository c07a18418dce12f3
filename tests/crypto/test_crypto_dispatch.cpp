// Seeded randomized cross-check of the two crypto paths: SHA-NI against the
// portable SHA-256 compression, AES-NI against the portable AES key
// expansion and rounds, for key schedules, single blocks, whole messages
// and CTR streams. The portable code is the
// oracle (it also passes the FIPS 180-4 / FIPS 197 / SP 800-38A vectors in
// test_sha256 and test_aes). On a CPU without an extension, the hardware
// half reports a skip with the reason; the portable-path checks still run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/sha256.hpp"

namespace raptee::crypto {
namespace {

using BlocksFn = void (*)(Sha256State&, const std::uint8_t*, std::size_t);

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// SHA-256 of `msg` with FIPS 180-4 padding, compressing through `blocks`.
Digest256 digest_with(BlocksFn blocks, const std::vector<std::uint8_t>& msg) {
  std::vector<std::uint8_t> padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (56 - 8 * i)));
  }
  Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  blocks(state, padded.data(), padded.size() / 64);
  Digest256 out{};
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k < 4; ++k) {
      out[4 * i + k] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * k));
    }
  }
  return out;
}

#define SKIP_WITHOUT_SHA_NI()    \
  if (!detail::cpu_has_sha_ni()) \
  GTEST_SKIP() << "CPU lacks SHA-NI (sha + sse4.1); only the portable path runs here"

#define SKIP_WITHOUT_AES_NI()    \
  if (!detail::cpu_has_aes_ni()) \
  GTEST_SKIP() << "CPU lacks AES-NI; only the portable path runs here"

TEST(CryptoDispatch, Sha256ShaNiBlocksMatchPortable) {
  SKIP_WITHOUT_SHA_NI();
  Rng rng(0x5348414E49ull);
  for (int trial = 0; trial < 500; ++trial) {
    Sha256State portable{};
    for (auto& w : portable) w = static_cast<std::uint32_t>(rng.next());
    Sha256State hardware = portable;
    const std::size_t nblocks = 1 + rng.next() % 8;
    const auto data = random_bytes(rng, 64 * nblocks);
    detail::sha256_blocks_portable(portable, data.data(), nblocks);
    detail::sha256_blocks_shani(hardware, data.data(), nblocks);
    ASSERT_EQ(portable, hardware) << "trial " << trial << ", " << nblocks << " blocks";
  }
}

TEST(CryptoDispatch, Sha256ShaNiMessagesOfEveryLengthMatchPortable) {
  SKIP_WITHOUT_SHA_NI();
  Rng rng(0x4C454E53ull);
  for (std::size_t len = 0; len <= 300; ++len) {
    const auto msg = random_bytes(rng, len);
    ASSERT_EQ(digest_with(detail::sha256_blocks_shani, msg),
              digest_with(detail::sha256_blocks_portable, msg))
        << "length " << len;
  }
}

TEST(CryptoDispatch, Sha256ContextMatchesPortableAtEveryLengthAndSplit) {
  // Sha256 runs whichever path this CPU selected; its buffering, in-place
  // padding and whole-block fast path must agree with the portable oracle.
  Rng rng(0x53504C4954ull);
  for (std::size_t len = 0; len <= 300; ++len) {
    const auto msg = random_bytes(rng, len);
    const Digest256 expected = digest_with(detail::sha256_blocks_portable, msg);
    ASSERT_EQ(sha256(msg), expected) << "length " << len;
    Sha256 ctx;
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = std::min<std::size_t>(len - off, rng.next() % 150);
      ctx.update(msg.data() + off, take);
      off += take;
    }
    ASSERT_EQ(ctx.finish(), expected) << "length " << len << " split";
  }
}

TEST(CryptoDispatch, AesNiKeyScheduleMatchesPortable) {
  SKIP_WITHOUT_AES_NI();
  Rng rng(0x4B455953ull);
  for (const int rounds : {10, 14}) {
    for (int trial = 0; trial < 500; ++trial) {
      const auto key = random_bytes(rng, rounds == 10 ? 16 : 32);
      std::array<std::uint8_t, 240> portable{}, hardware{};
      detail::aes_key_schedule_portable(key.data(), rounds, portable.data());
      detail::aes_key_schedule_aesni(key.data(), rounds, hardware.data());
      ASSERT_EQ(portable, hardware) << "trial " << trial << ", rounds " << rounds;
    }
  }
}

TEST(CryptoDispatch, AesNiBlocksMatchPortable) {
  SKIP_WITHOUT_AES_NI();
  Rng rng(0x4145534E49ull);
  for (int trial = 0; trial < 500; ++trial) {
    const auto key = random_bytes(rng, 32);
    const Aes aes(key.data(), trial % 2 == 0 ? Aes::KeySize::k128 : Aes::KeySize::k256);
    Block portable{};
    for (auto& b : portable) b = static_cast<std::uint8_t>(rng.next());
    Block hardware = portable;
    const Block plain = portable;
    detail::aes_encrypt_portable(aes, portable);
    detail::aes_encrypt_aesni(aes, hardware);
    ASSERT_EQ(portable, hardware) << "trial " << trial << ", rounds " << aes.rounds();
    aes.decrypt_block(hardware);
    ASSERT_EQ(hardware, plain) << "trial " << trial;
  }
}

TEST(CryptoDispatch, AesNiCtrStreamsMatchPortable) {
  SKIP_WITHOUT_AES_NI();
  Rng rng(0x4354520000ull);
  for (int trial = 0; trial < 300; ++trial) {
    const auto key = random_bytes(rng, 32);
    const Aes aes(key.data(), trial % 2 == 0 ? Aes::KeySize::k128 : Aes::KeySize::k256);
    Block portable_ctr{};
    for (auto& b : portable_ctr) b = static_cast<std::uint8_t>(rng.next());
    // Start some streams just below the 32-bit wrap of the counter word.
    if (trial % 3 == 0) portable_ctr[12] = portable_ctr[13] = portable_ctr[14] = 0xFF;
    Block hardware_ctr = portable_ctr;
    const std::size_t nblocks = rng.next() % 11;
    auto portable = random_bytes(rng, 16 * nblocks);
    auto hardware = portable;
    detail::aes_ctr_portable(aes, portable_ctr, portable.data(), nblocks);
    detail::aes_ctr_aesni(aes, hardware_ctr, hardware.data(), nblocks);
    ASSERT_EQ(portable, hardware) << "trial " << trial << ", " << nblocks << " blocks";
    ASSERT_EQ(portable_ctr, hardware_ctr) << "trial " << trial;
  }
}

TEST(CryptoDispatch, AesCtrChunkedStreamMatchesPortable) {
  // AesCtr runs whichever path this CPU selected and splits calls into a
  // keystream tail, whole blocks and a kept partial block; any chunking
  // must equal one portable pass over the whole stream.
  Rng rng(0x4348554E4Bull);
  for (int trial = 0; trial < 200; ++trial) {
    const auto key = random_bytes(rng, 32);
    const Aes aes(key.data(), Aes::KeySize::k256);
    Block counter{};
    for (auto& b : counter) b = static_cast<std::uint8_t>(rng.next());
    const std::size_t len = rng.next() % 300;
    const auto plain = random_bytes(rng, len);

    std::vector<std::uint8_t> expected(plain);
    expected.resize((len + 15) / 16 * 16, 0);
    Block oracle_ctr = counter;
    detail::aes_ctr_portable(aes, oracle_ctr, expected.data(), expected.size() / 16);
    expected.resize(len);

    std::vector<std::uint8_t> got(plain);
    AesCtr ctr(aes, counter);
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = std::min<std::size_t>(len - off, rng.next() % 70);
      ctr.process(got.data() + off, take);
      off += take;
    }
    ASSERT_EQ(got, expected) << "trial " << trial << ", length " << len;
  }
}

}  // namespace
}  // namespace raptee::crypto
