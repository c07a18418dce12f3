#include "crypto/aes.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "crypto/x86.hpp"

namespace raptee::crypto {

namespace {

// S-box and inverse S-box from FIPS 197.
constexpr std::array<std::uint8_t, 256> kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> inv{};
  for (int i = 0; i < 256; ++i) inv[kSbox[i]] = static_cast<std::uint8_t>(i);
  return inv;
}
constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

constexpr std::uint32_t sub_word(std::uint32_t w) {
  return (static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xFF]) << 24) |
         (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xFF]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xFF]) << 8) |
         static_cast<std::uint32_t>(kSbox[w & 0xFF]);
}

constexpr std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

constexpr std::array<std::uint32_t, 15> kRcon = {
    0x00000000, 0x01000000, 0x02000000, 0x04000000, 0x08000000,
    0x10000000, 0x20000000, 0x40000000, 0x80000000, 0x1b000000,
    0x36000000, 0x6c000000, 0xd8000000, 0xab000000, 0x4d000000};

}  // namespace

namespace {

void add_round_key(Block& s, const std::uint8_t* rk) {
  for (std::size_t i = 0; i < s.size(); ++i) s[i] ^= rk[i];
}

void sub_bytes(Block& s) {
  for (auto& b : s) b = kSbox[b];
}

void inv_sub_bytes(Block& s) {
  for (auto& b : s) b = kInvSbox[b];
}

// State layout: s[4*c + r] is row r, column c (column-major as in FIPS 197).
void shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) s[4 * c + r] = t[4 * ((c + r) % 4) + r];
  }
}

void inv_shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) s[4 * ((c + r) % 4) + r] = t[4 * c + r];
  }
}

void mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void inv_mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
    col[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
    col[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
    col[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
  }
}

/// SP 800-38A standard increment: the low 32 bits, big-endian, wrapping.
void increment_counter(Block& counter) {
  for (int i = 15; i >= 12; --i) {
    if (++counter[i] != 0) break;
  }
}

using ScheduleFn = void (*)(const std::uint8_t*, int, std::uint8_t*);
using EncryptFn = void (*)(const Aes&, Block&);
using CtrFn = void (*)(const Aes&, Block&, std::uint8_t*, std::size_t);

/// The process-wide AES path, chosen on first use.
struct Path {
  ScheduleFn schedule;
  EncryptFn encrypt;
  CtrFn ctr;
};

const Path& path() {
  static const Path p =
      detail::cpu_has_aes_ni()
          ? Path{detail::aes_key_schedule_aesni, detail::aes_encrypt_aesni,
                 detail::aes_ctr_aesni}
          : Path{detail::aes_key_schedule_portable, detail::aes_encrypt_portable,
                 detail::aes_ctr_portable};
  return p;
}

}  // namespace

namespace detail {

bool cpu_has_aes_ni() {
#if RAPTEE_CRYPTO_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

void aes_key_schedule_portable(const std::uint8_t* key, int rounds,
                               std::uint8_t* round_keys) {
  const int nk = rounds == 10 ? 4 : 8;
  const int total_words = 4 * (rounds + 1);

  std::array<std::uint32_t, 60> words{};
  for (int i = 0; i < nk; ++i) {
    words[i] = (static_cast<std::uint32_t>(key[4 * i]) << 24) |
               (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
               (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
               static_cast<std::uint32_t>(key[4 * i + 3]);
  }
  for (int i = nk; i < total_words; ++i) {
    std::uint32_t temp = words[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ kRcon[i / nk];
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    words[i] = words[i - nk] ^ temp;
  }
  for (int i = 0; i < total_words; ++i) {
    for (int k = 0; k < 4; ++k) {
      round_keys[4 * i + k] = static_cast<std::uint8_t>(words[i] >> (24 - 8 * k));
    }
  }
}

void aes_encrypt_portable(const Aes& aes, Block& block) {
  const std::uint8_t* rk = aes.round_keys_.data();
  add_round_key(block, rk);
  for (int round = 1; round < aes.rounds_; ++round) {
    sub_bytes(block);
    shift_rows(block);
    mix_columns(block);
    add_round_key(block, rk + 16 * round);
  }
  sub_bytes(block);
  shift_rows(block);
  add_round_key(block, rk + 16 * aes.rounds_);
}

void aes_ctr_portable(const Aes& aes, Block& counter, std::uint8_t* data,
                      std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 16) {
    Block keystream = counter;
    aes_encrypt_portable(aes, keystream);
    increment_counter(counter);
    for (std::size_t i = 0; i < keystream.size(); ++i) data[i] ^= keystream[i];
  }
}

#if RAPTEE_CRYPTO_X86
using x86::load128;
using x86::store128;

/// One AES-128 schedule step (FIPS 197 §5.2): w[i] = w[i-4] ^ w[i-1] for
/// the last three words, seeded by `assist`'s broadcast word
/// SubWord(RotWord(w[i-1])) ^ Rcon.
__attribute__((target("aes"))) inline __m128i expand_step(__m128i prev, __m128i assist) {
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 8));
  return _mm_xor_si128(prev, assist);
}

/// AESKEYGENASSIST with round constant `rcon`, word 3 broadcast: the
/// SubWord(RotWord(w)) ^ Rcon term of a 128-bit step or of an AES-256 even
/// step.
#define RAPTEE_AES_ROT_ASSIST(v, rcon) _mm_shuffle_epi32(_mm_aeskeygenassist_si128(v, rcon), 0xFF)
/// Word 2 broadcast: SubWord(w) without rotation or Rcon, AES-256's odd step.
#define RAPTEE_AES_SUB_ASSIST(v) _mm_shuffle_epi32(_mm_aeskeygenassist_si128(v, 0), 0xAA)

__attribute__((target("aes"))) void aes_key_schedule_aesni(const std::uint8_t* key,
                                                           int rounds,
                                                           std::uint8_t* round_keys) {
  // AESKEYGENASSIST takes its round constant as an immediate, so each
  // step is written out.
  __m128i a = load128(key);
  store128(round_keys, a);
  if (rounds == 10) {
#define RAPTEE_AES128_STEP(i, rcon)                              \
  a = expand_step(a, RAPTEE_AES_ROT_ASSIST(a, rcon));            \
  store128(round_keys + 16 * (i), a)
    RAPTEE_AES128_STEP(1, 0x01);
    RAPTEE_AES128_STEP(2, 0x02);
    RAPTEE_AES128_STEP(3, 0x04);
    RAPTEE_AES128_STEP(4, 0x08);
    RAPTEE_AES128_STEP(5, 0x10);
    RAPTEE_AES128_STEP(6, 0x20);
    RAPTEE_AES128_STEP(7, 0x40);
    RAPTEE_AES128_STEP(8, 0x80);
    RAPTEE_AES128_STEP(9, 0x1B);
    RAPTEE_AES128_STEP(10, 0x36);
#undef RAPTEE_AES128_STEP
    return;
  }
  __m128i b = load128(key + 16);
  store128(round_keys + 16, b);
#define RAPTEE_AES256_STEP(i, rcon)                              \
  a = expand_step(a, RAPTEE_AES_ROT_ASSIST(b, rcon));            \
  store128(round_keys + 16 * (i), a);                            \
  b = expand_step(b, RAPTEE_AES_SUB_ASSIST(a));                  \
  store128(round_keys + 16 * ((i) + 1), b)
  RAPTEE_AES256_STEP(2, 0x01);
  RAPTEE_AES256_STEP(4, 0x02);
  RAPTEE_AES256_STEP(6, 0x04);
  RAPTEE_AES256_STEP(8, 0x08);
  RAPTEE_AES256_STEP(10, 0x10);
  RAPTEE_AES256_STEP(12, 0x20);
#undef RAPTEE_AES256_STEP
  a = expand_step(a, RAPTEE_AES_ROT_ASSIST(b, 0x40));
  store128(round_keys + 16 * 14, a);
}
#undef RAPTEE_AES_ROT_ASSIST
#undef RAPTEE_AES_SUB_ASSIST

__attribute__((target("aes"))) void aes_encrypt_aesni(const Aes& aes, Block& block) {
  const std::uint8_t* rk = aes.round_keys_.data();
  __m128i s = _mm_xor_si128(load128(block.data()), load128(rk));
  for (int round = 1; round < aes.rounds_; ++round) {
    s = _mm_aesenc_si128(s, load128(rk + 16 * round));
  }
  store128(block.data(), _mm_aesenclast_si128(s, load128(rk + 16 * aes.rounds_)));
}

/// The counter block for 32-bit counter value `ctr` under the nonce bytes
/// of `prefix`: the low word is big-endian, as increment_counter counts.
__attribute__((target("aes,sse4.1"))) inline __m128i counter_block(__m128i prefix,
                                                                 std::uint32_t ctr) {
  return _mm_insert_epi32(prefix, static_cast<int>(__builtin_bswap32(ctr)), 3);
}

__attribute__((target("aes,sse4.1"))) void aes_ctr_aesni(const Aes& aes, Block& counter,
                                                         std::uint8_t* data,
                                                         std::size_t nblocks) {
  const int rounds = aes.rounds_;
  const std::uint8_t* rk = aes.round_keys_.data();
  const __m128i prefix = load128(counter.data());
  std::uint32_t ctr = (static_cast<std::uint32_t>(counter[12]) << 24) |
                      (static_cast<std::uint32_t>(counter[13]) << 16) |
                      (static_cast<std::uint32_t>(counter[14]) << 8) |
                      static_cast<std::uint32_t>(counter[15]);
  // Four independent blocks per pass keep the AES unit's pipeline full.
  for (; nblocks >= 4; nblocks -= 4, data += 64, ctr += 4) {
    __m128i k = load128(rk);
    __m128i s0 = _mm_xor_si128(counter_block(prefix, ctr), k);
    __m128i s1 = _mm_xor_si128(counter_block(prefix, ctr + 1), k);
    __m128i s2 = _mm_xor_si128(counter_block(prefix, ctr + 2), k);
    __m128i s3 = _mm_xor_si128(counter_block(prefix, ctr + 3), k);
    for (int round = 1; round < rounds; ++round) {
      k = load128(rk + 16 * round);
      s0 = _mm_aesenc_si128(s0, k);
      s1 = _mm_aesenc_si128(s1, k);
      s2 = _mm_aesenc_si128(s2, k);
      s3 = _mm_aesenc_si128(s3, k);
    }
    k = load128(rk + 16 * rounds);
    store128(data, _mm_xor_si128(_mm_aesenclast_si128(s0, k), load128(data)));
    store128(data + 16, _mm_xor_si128(_mm_aesenclast_si128(s1, k), load128(data + 16)));
    store128(data + 32, _mm_xor_si128(_mm_aesenclast_si128(s2, k), load128(data + 32)));
    store128(data + 48, _mm_xor_si128(_mm_aesenclast_si128(s3, k), load128(data + 48)));
  }
  for (; nblocks > 0; --nblocks, data += 16, ++ctr) {
    __m128i s = _mm_xor_si128(counter_block(prefix, ctr), load128(rk));
    for (int round = 1; round < rounds; ++round) {
      s = _mm_aesenc_si128(s, load128(rk + 16 * round));
    }
    s = _mm_aesenclast_si128(s, load128(rk + 16 * rounds));
    store128(data, _mm_xor_si128(s, load128(data)));
  }
  for (int i = 0; i < 4; ++i) counter[12 + i] = static_cast<std::uint8_t>(ctr >> (24 - 8 * i));
}
#else
void aes_key_schedule_aesni(const std::uint8_t* key, int rounds, std::uint8_t* round_keys) {
  RAPTEE_REQUIRE(false, "AES-NI path called on a CPU without it");
  aes_key_schedule_portable(key, rounds, round_keys);
}

void aes_encrypt_aesni(const Aes& aes, Block& block) {
  RAPTEE_REQUIRE(false, "AES-NI path called on a CPU without it");
  aes_encrypt_portable(aes, block);
}

void aes_ctr_aesni(const Aes& aes, Block& counter, std::uint8_t* data, std::size_t nblocks) {
  RAPTEE_REQUIRE(false, "AES-NI path called on a CPU without it");
  aes_ctr_portable(aes, counter, data, nblocks);
}
#endif

}  // namespace detail

Aes::Aes(const std::uint8_t* key, KeySize size) : rounds_(size == KeySize::k128 ? 10 : 14) {
  path().schedule(key, rounds_, round_keys_.data());
}

void Aes::encrypt_block(Block& block) const { path().encrypt(*this, block); }

void Aes::decrypt_block(Block& block) const {
  const std::uint8_t* rk = round_keys_.data();
  add_round_key(block, rk + 16 * rounds_);
  for (int round = rounds_ - 1; round >= 1; --round) {
    inv_shift_rows(block);
    inv_sub_bytes(block);
    add_round_key(block, rk + 16 * round);
    inv_mix_columns(block);
  }
  inv_shift_rows(block);
  inv_sub_bytes(block);
  add_round_key(block, rk);
}

AesCtr::AesCtr(const Aes& aes, const Block& initial_counter)
    : aes_(aes), counter_(initial_counter) {}

void AesCtr::reset(const Block& initial_counter) {
  counter_ = initial_counter;
  keystream_used_ = 16;
}

void AesCtr::refill() {
  keystream_ = counter_;
  aes_.encrypt_block(keystream_);
  keystream_used_ = 0;
  increment_counter(counter_);
}

void AesCtr::process(std::uint8_t* data, std::size_t len) {
  // The rest of a keystream block left by the previous call, then whole
  // blocks in one batch, then a partial block whose tail is kept.
  for (; len > 0 && keystream_used_ < keystream_.size(); --len) {
    *data++ ^= keystream_[keystream_used_++];
  }
  if (len >= 16) {
    path().ctr(aes_, counter_, data, len / 16);
    data += len / 16 * 16;
    len %= 16;
  }
  if (len > 0) {
    refill();
    for (std::size_t i = 0; i < len; ++i) data[i] ^= keystream_[i];
    keystream_used_ = len;
  }
}

std::vector<std::uint8_t> aes_ctr_transform(const Aes& aes, const Block& initial_counter,
                                            const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out = data;
  AesCtr ctr(aes, initial_counter);
  ctr.process(out);
  return out;
}

Block make_counter_block(const std::array<std::uint8_t, 12>& nonce, std::uint32_t initial) {
  Block block{};
  std::memcpy(block.data(), nonce.data(), nonce.size());
  block[12] = static_cast<std::uint8_t>(initial >> 24);
  block[13] = static_cast<std::uint8_t>(initial >> 16);
  block[14] = static_cast<std::uint8_t>(initial >> 8);
  block[15] = static_cast<std::uint8_t>(initial);
  return block;
}

}  // namespace raptee::crypto
