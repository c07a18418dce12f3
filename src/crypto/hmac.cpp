#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace raptee::crypto {

HmacKey::HmacKey(const std::uint8_t* key, std::size_t key_len) {
  std::array<std::uint8_t, 64> block_key{};
  if (key_len > block_key.size()) {
    const Digest256 kd = sha256(key, key_len);
    std::memcpy(block_key.data(), kd.data(), kd.size());
  } else if (key_len > 0) {
    std::memcpy(block_key.data(), key, key_len);
  }
  std::array<std::uint8_t, 64> pad{};
  for (std::size_t i = 0; i < pad.size(); ++i) {
    pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
  }
  Sha256 inner;
  inner.update(pad.data(), pad.size());
  inner_ = inner.midstate();
  for (std::size_t i = 0; i < pad.size(); ++i) {
    pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }
  Sha256 outer;
  outer.update(pad.data(), pad.size());
  outer_ = outer.midstate();
}

Digest256 HmacSha256::finish() {
  const Digest256 inner_digest = inner_.finish();
  Sha256 outer(outer_, 1);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest256 hmac_sha256(const HmacKey& key, const std::uint8_t* data, std::size_t data_len) {
  HmacSha256 mac(key);
  mac.update(data, data_len);
  return mac.finish();
}

Digest256 hmac_sha256(const std::uint8_t* key, std::size_t key_len,
                      const std::uint8_t* data, std::size_t data_len) {
  return hmac_sha256(HmacKey(key, key_len), data, data_len);
}

Digest256 hmac_sha256(const std::vector<std::uint8_t>& key, std::string_view data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

const HmacKey& hkdf_zero_salt() {
  static const HmacKey zero(std::array<std::uint8_t, 32>{});
  return zero;
}

HmacKey hkdf_extract(const HmacKey& salt, const std::uint8_t* ikm, std::size_t ikm_len) {
  return HmacKey(hmac_sha256(salt, ikm, ikm_len));
}

void hkdf_expand(const HmacKey& prk, std::string_view info, std::uint8_t* out,
                 std::size_t length) {
  RAPTEE_REQUIRE(length <= 255 * 32, "HKDF output limited to 255 blocks");
  Digest256 t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  while (length > 0) {
    HmacSha256 mac(prk);
    mac.update(t.data(), t_len);
    mac.update(info);
    mac.update(&counter, 1);
    t = mac.finish();
    t_len = t.size();
    const std::size_t take = std::min(t.size(), length);
    std::memcpy(out, t.data(), take);
    out += take;
    length -= take;
    ++counter;
  }
}

std::vector<std::uint8_t> hkdf_sha256(const std::vector<std::uint8_t>& salt,
                                      const std::vector<std::uint8_t>& ikm,
                                      std::string_view info, std::size_t length) {
  std::vector<std::uint8_t> okm(length);
  const HmacKey prk = hkdf_extract(salt.empty() ? hkdf_zero_salt() : HmacKey(salt),
                                   ikm.data(), ikm.size());
  hkdf_expand(prk, info, okm.data(), okm.size());
  return okm;
}

}  // namespace raptee::crypto
