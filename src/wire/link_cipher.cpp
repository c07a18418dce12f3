#include "wire/link_cipher.hpp"

#include <cstring>

namespace raptee::wire {

namespace {

crypto::SymmetricKey enc_subkey(const crypto::HkdfPrk& secret, std::uint8_t dir) {
  return secret.derive(dir == 0 ? "raptee-link-enc-0" : "raptee-link-enc-1");
}

crypto::SymmetricKey mac_subkey(const crypto::HkdfPrk& secret, std::uint8_t dir) {
  return secret.derive(dir == 0 ? "raptee-link-mac-0" : "raptee-link-mac-1");
}

}  // namespace

LinkCipher::LinkCipher(const crypto::HkdfPrk& secret, std::uint8_t direction)
    : aes_(crypto::Aes::aes256(enc_subkey(secret, direction).bytes())),
      mac_key_(mac_subkey(secret, direction).bytes()),
      direction_(direction) {}

crypto::Block LinkCipher::counter_block_for(std::uint64_t seq) const {
  // nonce = direction(1) || zeros(3) || seq(8, LE); counter portion = 0.
  std::array<std::uint8_t, 12> nonce{};
  nonce[0] = direction_;
  for (int i = 0; i < 8; ++i) nonce[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  return crypto::make_counter_block(nonce);
}

std::vector<std::uint8_t> LinkCipher::seal(const std::vector<std::uint8_t>& plaintext) {
  std::vector<std::uint8_t> frame;
  seal_into(plaintext.data(), plaintext.size(), frame);
  return frame;
}

void LinkCipher::seal_into(const std::uint8_t* plaintext, std::size_t len,
                           std::vector<std::uint8_t>& frame) {
  const std::uint64_t seq = send_seq_++;
  frame.clear();
  frame.reserve(8 + len + 32);
  for (int i = 0; i < 8; ++i) frame.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));

  // Encrypt straight into the frame: append the plaintext, then XOR the
  // keystream over it in place.
  frame.insert(frame.end(), plaintext, plaintext + len);
  crypto::AesCtr ctr(aes_, counter_block_for(seq));
  ctr.process(frame.data() + 8, len);

  crypto::HmacSha256 mac(mac_key_);
  mac.update(frame.data(), frame.size());
  const crypto::Digest256 tag = mac.finish();
  frame.insert(frame.end(), tag.begin(), tag.end());
}

std::optional<std::vector<std::uint8_t>> LinkCipher::open(
    const std::vector<std::uint8_t>& frame) {
  std::vector<std::uint8_t> pt;
  if (!open_into(frame.data(), frame.size(), pt)) return std::nullopt;
  return pt;
}

bool LinkCipher::open_into(const std::uint8_t* frame, std::size_t len,
                           std::vector<std::uint8_t>& plaintext) {
  if (len < 8 + 32) return false;
  const std::size_t body_len = len - 32;

  crypto::HmacSha256 mac(mac_key_);
  mac.update(frame, body_len);
  const crypto::Digest256 expected = mac.finish();
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < 32; ++i) diff |= frame[body_len + i] ^ expected[i];
  if (diff != 0) return false;

  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) seq |= static_cast<std::uint64_t>(frame[i]) << (8 * i);
  // Strictly in-order delivery: anything else is a replay or reorder.
  if (seq != recv_seq_) return false;
  ++recv_seq_;

  plaintext.assign(frame + 8, frame + body_len);
  crypto::AesCtr ctr(aes_, counter_block_for(seq));
  ctr.process(plaintext);
  return true;
}

}  // namespace raptee::wire
