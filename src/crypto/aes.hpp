// AES-128 / AES-256 block cipher (FIPS 197) with CTR-mode streaming
// (NIST SP 800-38A), implemented from scratch for this offline
// reproduction. The paper's implementation uses Intel SGX-SSL AES-CTR for
// symmetric link encryption and for the mutual-authentication protocol's
// `[H(rA·rB)]_K` operation; this module provides both.
//
// Key expansion and block encryption are chosen once per process: AES-NI
// (AESKEYGENASSIST, AESENC) when the CPU reports it, otherwise portable
// FIPS 197 code. Both produce identical bytes, and the portable code is the
// oracle the AES-NI path is cross-checked against in tests. The AES-NI
// path is constant-time. The portable rounds and key expansion, and
// decryption (portable only), index the S-box by secret bytes, so they are
// not constant-time against cache timing; that is acceptable here because
// the adversary lives inside the simulator and has no microarchitectural
// channel.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace raptee::crypto {

using Block = std::array<std::uint8_t, 16>;

class Aes;

/// The two block-encryption paths, exposed so tests can cross-check them.
/// Production code goes through Aes and AesCtr, which pick one per process.
namespace detail {
/// True when the CPU supports AES-NI (and SSE4.1, which the CTR path uses).
[[nodiscard]] bool cpu_has_aes_ni();
/// FIPS 197 key expansion of a 16-byte (`rounds` = 10) or 32-byte
/// (`rounds` = 14) key into rounds + 1 round keys, in state byte order.
void aes_key_schedule_portable(const std::uint8_t* key, int rounds,
                               std::uint8_t* round_keys);
/// Same, with AESKEYGENASSIST. Precondition: cpu_has_aes_ni().
void aes_key_schedule_aesni(const std::uint8_t* key, int rounds, std::uint8_t* round_keys);
void aes_encrypt_portable(const Aes& aes, Block& block);
/// Precondition: cpu_has_aes_ni().
void aes_encrypt_aesni(const Aes& aes, Block& block);
/// XORs the CTR keystream of `nblocks` whole blocks into `data` and
/// advances `counter` by `nblocks` (low 32 bits, big-endian, wrapping).
void aes_ctr_portable(const Aes& aes, Block& counter, std::uint8_t* data,
                      std::size_t nblocks);
/// Same, four blocks at a time on AES-NI. Precondition: cpu_has_aes_ni().
void aes_ctr_aesni(const Aes& aes, Block& counter, std::uint8_t* data,
                   std::size_t nblocks);
}  // namespace detail

/// Expanded-key AES context supporting the two key sizes used in practice.
class Aes {
 public:
  enum class KeySize { k128, k256 };

  Aes(const std::uint8_t* key, KeySize size);
  static Aes aes128(const std::array<std::uint8_t, 16>& key) {
    return Aes(key.data(), KeySize::k128);
  }
  static Aes aes256(const std::array<std::uint8_t, 32>& key) {
    return Aes(key.data(), KeySize::k256);
  }

  /// Encrypts one 16-byte block in place.
  void encrypt_block(Block& block) const;
  /// Decrypts one 16-byte block in place.
  void decrypt_block(Block& block) const;

  [[nodiscard]] int rounds() const { return rounds_; }

 private:
  friend void detail::aes_encrypt_portable(const Aes&, Block&);
  friend void detail::aes_encrypt_aesni(const Aes&, Block&);
  friend void detail::aes_ctr_aesni(const Aes&, Block&, std::uint8_t*, std::size_t);

  /// rounds_ + 1 round keys of 16 bytes each, in state byte order (the
  /// order AES-NI loads them and the portable code XORs them).
  std::array<std::uint8_t, 240> round_keys_{};
  int rounds_ = 0;  // 10 for AES-128, 14 for AES-256
};

/// AES-CTR keystream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream). The 16-byte initial counter block is
/// conventionally nonce(12) || counter(4, big-endian).
class AesCtr {
 public:
  AesCtr(const Aes& aes, const Block& initial_counter);

  /// XORs the keystream into `data` in place.
  void process(std::uint8_t* data, std::size_t len);
  void process(std::vector<std::uint8_t>& data) { process(data.data(), data.size()); }

  /// Resets to a new counter block (fresh message under the same key).
  void reset(const Block& initial_counter);

 private:
  void refill();

  const Aes& aes_;
  Block counter_{};
  Block keystream_{};
  std::size_t keystream_used_ = 16;
};

/// One-shot CTR transform: returns data XOR keystream(key, counter0).
[[nodiscard]] std::vector<std::uint8_t> aes_ctr_transform(
    const Aes& aes, const Block& initial_counter, const std::vector<std::uint8_t>& data);

/// Builds the conventional initial counter block nonce(12) || big-endian 0.
[[nodiscard]] Block make_counter_block(const std::array<std::uint8_t, 12>& nonce,
                                       std::uint32_t initial = 0);

}  // namespace raptee::crypto
