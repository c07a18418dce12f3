// Symmetric key material and a deterministic DRBG.
//
// Key model (paper §IV-A): every untrusted node generates a random secret
// key at initialization; all trusted nodes share a common *group* secret
// provisioned during remote attestation. Keys here are 256-bit.
//
// The DRBG is HMAC-SHA-256 in counter mode seeded from the simulation seed —
// deterministic so that experiments reproduce, yet structurally the same as
// a deployed CSPRNG.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/hmac.hpp"

namespace raptee::crypto {

/// 256-bit symmetric secret.
class SymmetricKey {
 public:
  static constexpr std::size_t kBytes = 32;

  SymmetricKey() = default;
  explicit SymmetricKey(std::array<std::uint8_t, kBytes> bytes) : bytes_(bytes) {}

  [[nodiscard]] const std::array<std::uint8_t, kBytes>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return {bytes_.begin(), bytes_.end()};
  }

  /// Derives a purpose-bound subkey: HKDF with an absent salt and `label`
  /// as info, i.e. HkdfPrk(*this).derive(label). Runs the extract on every
  /// call (six compressions in all); a key that derives more than one
  /// subkey should hold an HkdfPrk instead. Does not allocate.
  [[nodiscard]] SymmetricKey derive(std::string_view label) const;

  /// Short public fingerprint (first 8 bytes of SHA-256 of the key). Safe to
  /// expose: preimage-resistant, reveals only equality of keys — and RAPTEE
  /// never sends it in clear anyway (see auth protocol).
  [[nodiscard]] std::uint64_t fingerprint() const;

  friend bool operator==(const SymmetricKey& a, const SymmetricKey& b) {
    // Constant-time compare.
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < kBytes; ++i) diff |= a.bytes_[i] ^ b.bytes_[i];
    return diff == 0;
  }
  friend bool operator!=(const SymmetricKey& a, const SymmetricKey& b) {
    return !(a == b);
  }

 private:
  std::array<std::uint8_t, kBytes> bytes_{};
};

/// A secret after HKDF-Extract (RFC 5869 §2.2): HMAC(zero-salt, secret)
/// held as the PRK's HMAC key schedule. The extract and the schedule cost
/// four compressions once; each derive() then runs the expand alone, two
/// compressions for a label of up to 54 bytes. derive() returns the same
/// bytes as SymmetricKey::derive on the secret.
class HkdfPrk {
 public:
  explicit HkdfPrk(const SymmetricKey& secret);

  /// The subkey bound to `label`. Does not allocate.
  [[nodiscard]] SymmetricKey derive(std::string_view label) const;

 private:
  HmacKey prk_;
};

/// Deterministic HMAC-DRBG (simplified SP 800-90A shape): out_i =
/// HMAC(seed_key, counter). Fork-able for independent streams. The state
/// key is held as its HMAC key schedule, so each 32-byte output block
/// costs two compressions.
class Drbg {
 public:
  explicit Drbg(std::uint64_t seed, std::string_view personalization = "raptee-drbg");

  /// Fills `out` with pseudo-random bytes.
  void fill(std::uint8_t* out, std::size_t len);
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t len);
  [[nodiscard]] std::uint64_t next_u64();
  [[nodiscard]] SymmetricKey generate_key();
  [[nodiscard]] std::array<std::uint8_t, 12> generate_nonce();

  /// Derives an independent DRBG (e.g. one per node).
  [[nodiscard]] Drbg fork(std::string_view label);

 private:
  HmacKey state_key_;
  std::uint64_t counter_ = 0;
};

}  // namespace raptee::crypto
