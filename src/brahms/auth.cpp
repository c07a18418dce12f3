#include "brahms/auth.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

namespace raptee::brahms {

namespace auth_detail {

crypto::AuthToken mac_proof(const crypto::HmacKey& key, const char* domain,
                            const crypto::AuthNonce& a, const crypto::AuthNonce& b) {
  crypto::HmacSha256 mac(key);
  mac.update(domain);
  mac.update(a.data(), a.size());
  mac.update(b.data(), b.size());
  const crypto::Digest256 d = mac.finish();
  crypto::AuthToken token{};
  std::memcpy(token.data(), d.data(), token.size());
  return token;
}

crypto::AuthToken mac_proof(const crypto::SymmetricKey& key, const char* domain,
                            const crypto::AuthNonce& a, const crypto::AuthNonce& b) {
  return mac_proof(crypto::HmacKey(key.bytes()), domain, a, b);
}

crypto::AuthToken oracle_proof(std::uint64_t fingerprint) {
  crypto::AuthToken token{};
  for (int i = 0; i < 8; ++i) token[i] = static_cast<std::uint8_t>(fingerprint >> (8 * i));
  return token;
}

std::uint64_t oracle_extract(const crypto::AuthToken& token) {
  std::uint64_t fp = 0;
  for (int i = 0; i < 8; ++i) fp |= static_cast<std::uint64_t>(token[i]) << (8 * i);
  return fp;
}

bool tokens_equal(const crypto::AuthToken& a, const crypto::AuthToken& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace auth_detail

using auth_detail::mac_proof;
using auth_detail::oracle_proof;
using auth_detail::oracle_extract;
using auth_detail::tokens_equal;

KeyedAuthenticator::KeyedAuthenticator(AuthMode mode, crypto::SymmetricKey key,
                                       crypto::Drbg drbg)
    : mode_(mode),
      key_(key),
      mac_key_(key.bytes()),
      fingerprint_(key.fingerprint()),
      drbg_(std::move(drbg)) {}

crypto::AuthChallenge KeyedAuthenticator::make_challenge() {
  crypto::AuthChallenge challenge;
  drbg_.fill(challenge.r_a.data(), challenge.r_a.size());
  return challenge;
}

crypto::AuthResponse KeyedAuthenticator::make_response(
    const crypto::AuthChallenge& challenge) {
  crypto::AuthResponse response;
  drbg_.fill(response.r_b.data(), response.r_b.size());
  switch (mode_) {
    case AuthMode::kFull:
      response.proof_b = crypto::make_proof(key_, challenge.r_a, response.r_b);
      break;
    case AuthMode::kFingerprint:
      response.proof_b = mac_proof(mac_key_, "resp", challenge.r_a, response.r_b);
      break;
    case AuthMode::kOracle:
      response.proof_b = oracle_proof(fingerprint_);
      break;
  }
  return response;
}

bool KeyedAuthenticator::verify_response(const crypto::AuthChallenge& challenge,
                                         const crypto::AuthResponse& response,
                                         crypto::AuthConfirm* confirm_out) {
  bool trusted = false;
  crypto::AuthConfirm confirm;
  switch (mode_) {
    case AuthMode::kFull:
      trusted = crypto::check_proof(key_, challenge.r_a, response.r_b, response.proof_b);
      confirm.proof_a = crypto::make_proof(key_, response.r_b, challenge.r_a);
      break;
    case AuthMode::kFingerprint:
      trusted = tokens_equal(response.proof_b,
                             mac_proof(mac_key_, "resp", challenge.r_a, response.r_b));
      confirm.proof_a = mac_proof(mac_key_, "init", response.r_b, challenge.r_a);
      break;
    case AuthMode::kOracle:
      trusted = oracle_extract(response.proof_b) == fingerprint_;
      confirm.proof_a = oracle_proof(fingerprint_);
      break;
  }
  if (confirm_out != nullptr) *confirm_out = confirm;
  return trusted;
}

bool KeyedAuthenticator::verify_confirm(const crypto::AuthChallenge& challenge,
                                        const crypto::AuthResponse& response,
                                        const crypto::AuthConfirm& confirm) {
  switch (mode_) {
    case AuthMode::kFull:
      return crypto::check_proof(key_, response.r_b, challenge.r_a, confirm.proof_a);
    case AuthMode::kFingerprint:
      return tokens_equal(confirm.proof_a,
                          mac_proof(mac_key_, "init", response.r_b, challenge.r_a));
    case AuthMode::kOracle:
      return oracle_extract(confirm.proof_a) == fingerprint_;
  }
  return false;
}

}  // namespace raptee::brahms
