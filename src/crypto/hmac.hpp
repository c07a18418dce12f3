// HMAC-SHA-256 (RFC 2104 / FIPS 198-1) and HKDF (RFC 5869).
// Used for message authentication on encrypted links, attestation quotes,
// and deriving per-purpose subkeys from node master secrets.
//
// An HMAC costs two compressions that depend only on the key: the ipad and
// opad blocks. HmacKey runs them once and keeps the two SHA-256 midstates
// (the implementation note of RFC 2104 §4), so a long-lived key (a link's
// MAC key, the DRBG state key, an auth key) pays them once, not per MAC.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace raptee::crypto {

/// An HMAC-SHA-256 key schedule: the inner and outer SHA-256 midstates
/// after the ipad and opad blocks.
class HmacKey {
 public:
  HmacKey(const std::uint8_t* key, std::size_t key_len);
  template <std::size_t N>
  explicit HmacKey(const std::array<std::uint8_t, N>& key) : HmacKey(key.data(), N) {}
  explicit HmacKey(const std::vector<std::uint8_t>& key) : HmacKey(key.data(), key.size()) {}

 private:
  friend class HmacSha256;

  Sha256State inner_{};
  Sha256State outer_{};
};

/// Incremental HMAC-SHA-256.
class HmacSha256 {
 public:
  /// Resumes from a cached key schedule: no per-MAC key work.
  explicit HmacSha256(const HmacKey& key) : inner_(key.inner_, 1), outer_(key.outer_) {}
  HmacSha256(const std::uint8_t* key, std::size_t key_len)
      : HmacSha256(HmacKey(key, key_len)) {}
  explicit HmacSha256(const std::vector<std::uint8_t>& key) : HmacSha256(HmacKey(key)) {}

  void update(const std::uint8_t* data, std::size_t len) { inner_.update(data, len); }
  void update(std::string_view s) { inner_.update(s); }
  void update(const std::vector<std::uint8_t>& v) { inner_.update(v); }

  [[nodiscard]] Digest256 finish();

 private:
  Sha256 inner_;
  Sha256State outer_;
};

/// One-shot HMAC.
[[nodiscard]] Digest256 hmac_sha256(const HmacKey& key, const std::uint8_t* data,
                                    std::size_t data_len);
[[nodiscard]] Digest256 hmac_sha256(const std::uint8_t* key, std::size_t key_len,
                                    const std::uint8_t* data, std::size_t data_len);
[[nodiscard]] Digest256 hmac_sha256(const std::vector<std::uint8_t>& key,
                                    std::string_view data);

/// HKDF-Extract-then-Expand (RFC 5869), SHA-256 based, producing `length`
/// bytes of key material bound to `info`.
[[nodiscard]] std::vector<std::uint8_t> hkdf_sha256(
    const std::vector<std::uint8_t>& salt, const std::vector<std::uint8_t>& ikm,
    std::string_view info, std::size_t length);

/// HKDF-Extract (RFC 5869 §2.2): PRK = HMAC(salt, ikm), returned as the
/// PRK's key schedule so that any number of expands can share it.
[[nodiscard]] HmacKey hkdf_extract(const HmacKey& salt, const std::uint8_t* ikm,
                                   std::size_t ikm_len);

/// HKDF-Expand (RFC 5869 §2.3): writes `length` bytes bound to `info` to
/// `out`. Does not allocate; costs two compressions per 32 output bytes
/// while `info` is at most 54 bytes.
void hkdf_expand(const HmacKey& prk, std::string_view info, std::uint8_t* out,
                 std::size_t length);

/// The extract key schedule of an absent salt: RFC 5869 substitutes 32
/// zero bytes. Computed once per process.
[[nodiscard]] const HmacKey& hkdf_zero_salt();

}  // namespace raptee::crypto
