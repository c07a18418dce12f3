#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "crypto/x86.hpp"

namespace raptee::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

using BlocksFn = void (*)(Sha256State&, const std::uint8_t*, std::size_t);

/// The process-wide compression path, chosen on first use.
BlocksFn compress() {
  static const BlocksFn fn =
      detail::cpu_has_sha_ni() ? detail::sha256_blocks_shani : detail::sha256_blocks_portable;
  return fn;
}

}  // namespace

namespace detail {

bool cpu_has_sha_ni() {
#if RAPTEE_CRYPTO_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

void sha256_blocks_portable(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g; g = f; f = e;
      e = d + temp1;
      d = c; c = b; b = a;
      a = temp1 + temp2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if RAPTEE_CRYPTO_X86
using x86::load128;
using x86::store128;

// The SHA-NI round instructions keep the state as two lanes, ABEF and
// CDGH, and take the message schedule four words at a time: W[4g..4g+3]
// for group g is msg2(msg1(W_{g-4}, W_{g-3}) + alignr(W_{g-1}, W_{g-2}), W_{g-1}).
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    Sha256State& state, const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i tmp = _mm_shuffle_epi32(load128(&state[0]), 0xB1);     // CDAB
  __m128i state1 = _mm_shuffle_epi32(load128(&state[4]), 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);              // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);                   // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(load128(blocks + 16 * g), kByteSwap);
      } else {
        const __m128i prev = w[(g + 3) & 3];
        cur = _mm_sha256msg1_epu32(cur, w[(g + 1) & 3]);
        cur = _mm_add_epi32(cur, _mm_alignr_epi8(prev, w[(g + 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(cur, prev);
      }
      __m128i msg = _mm_add_epi32(cur, load128(&kK[4 * g]));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);          // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);       // DCHG
  store128(&state[0], _mm_blend_epi16(tmp, state1, 0xF0));  // DCBA
  store128(&state[4], _mm_alignr_epi8(state1, tmp, 8));     // HGFE
}
#else
void sha256_blocks_shani(Sha256State& state, const std::uint8_t* blocks,
                         std::size_t nblocks) {
  RAPTEE_REQUIRE(false, "SHA-NI path called on a CPU without it");
  sha256_blocks_portable(state, blocks, nblocks);
}
#endif

}  // namespace detail

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_bits_ = 0;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress()(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer, then keep the tail.
  if (len >= 64) {
    compress()(h_, data, len / 64);
    data += len / 64 * 64;
    len %= 64;
  }
  std::memcpy(buffer_.data(), data, len);
  buffer_len_ = len;
}

const Sha256State& Sha256::midstate() const {
  RAPTEE_REQUIRE(buffer_len_ == 0, "SHA-256 midstate taken inside a block");
  return h_;
}

Digest256 Sha256::finish() {
  // Padding, written in place: 0x80, zeros, 64-bit big-endian bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    compress()(h_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  }
  compress()(h_, buffer_.data(), 1);
  buffer_len_ = 0;

  Digest256 out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Digest256 sha256(const std::uint8_t* data, std::size_t len) {
  Sha256 ctx;
  ctx.update(data, len);
  return ctx.finish();
}

Digest256 sha256(std::string_view s) {
  // raptee-lint: allow(cast-allowlist) audited byte pun: char -> uint8_t view of the same buffer
  return sha256(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

Digest256 sha256(const std::vector<std::uint8_t>& v) { return sha256(v.data(), v.size()); }

std::string to_hex(const Digest256& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (auto byte : d) {
    out.push_back(hex[byte >> 4]);
    out.push_back(hex[byte & 0xF]);
  }
  return out;
}

bool digest_equal(const Digest256& a, const Digest256& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace raptee::crypto
