// Known-answer tests that pin the exact bytes of the keyed constructions
// built on SHA-256 and AES: DRBG output, HKDF subkeys, sealed link frames,
// auth tokens and enclave-sealed blobs. The published FIPS/RFC vectors pin
// the primitives; these pin how the library composes them, so a faster
// primitive or a cached key schedule cannot change a ciphertext, a DRBG
// byte or a token unnoticed. The golden result digests do not see these
// bytes: trust decisions stay equal even when tokens change.
//
// Every expected string was recorded with the portable textbook code
// (before hardware dispatch and HMAC midstate caching existed), except the
// link-table frames and the long derive label, which were recorded with
// one full HKDF per key (before the extracted PRKs were cached).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "brahms/auth.hpp"
#include "crypto/key.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "wire/link_cipher.hpp"
#include "wire/link_session.hpp"

namespace raptee {
namespace {

std::string hex(const std::uint8_t* data, std::size_t len) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(digits[data[i] >> 4]);
    out.push_back(digits[data[i] & 0xF]);
  }
  return out;
}

template <typename Bytes>
std::string hex(const Bytes& bytes) {
  return hex(bytes.data(), bytes.size());
}

crypto::SymmetricKey counting_key(std::uint8_t mul, std::uint8_t add) {
  std::array<std::uint8_t, crypto::SymmetricKey::kBytes> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * mul + add);
  }
  return crypto::SymmetricKey(bytes);
}

TEST(CryptoKat, DrbgFillChunksAcrossBlocks) {
  crypto::Drbg drbg(0x5241505445ull);
  std::uint8_t buf[45];
  drbg.fill(buf, 7);  // a partial block discards its unused tail
  EXPECT_EQ(hex(buf, 7), "0183bad839dae2");
  drbg.fill(buf, 32);
  EXPECT_EQ(hex(buf, 32), "643c76db470c6edab73ed92903ba2073603b2d31c230f0ba3d4ce54079eb441d");
  drbg.fill(buf, 45);
  EXPECT_EQ(hex(buf, 45),
            "a083d80909cfa41d947ad3e07bec39c55e81b2c3b09027d167ccb7a0322ba9f0"
            "06d222643869ab347dfc486749");
}

TEST(CryptoKat, DrbgNextU64AndPersonalization) {
  crypto::Drbg drbg(42);
  EXPECT_EQ(drbg.next_u64(), 6503074671056979106ull);
  EXPECT_EQ(drbg.next_u64(), 14032151497029821926ull);
  EXPECT_EQ(drbg.next_u64(), 7225825792415182714ull);
  crypto::Drbg personal(99, "kat-personal");
  EXPECT_EQ(hex(personal.bytes(32)),
            "4d6eb4289a042d2fe77d216a39fd4400cc8ed954d6531da31bd3837a89aa228b");
}

TEST(CryptoKat, DrbgForkStreams) {
  crypto::Drbg parent(7);
  crypto::Drbg child = parent.fork("kat-child");
  EXPECT_EQ(hex(child.bytes(40)),
            "66b310aaa562fb386f21c837da49f1897d730d2e564779d0369dc17ce8c98df2"
            "4433972c774d023b");
  EXPECT_EQ(hex(parent.bytes(16)), "269c3fe295bd01125ea532459bca76c4");
  EXPECT_EQ(hex(child.generate_key().bytes()),
            "9ce798eba25d94d663d51c9a09f44740cf7a1df72032c514fa08b05cd998f95f");
  EXPECT_EQ(hex(child.generate_nonce()), "5f2458f115518aa38fa0cfc0");
}

TEST(CryptoKat, SymmetricKeyDerive) {
  const crypto::SymmetricKey key = counting_key(1, 0);
  const crypto::HkdfPrk prk(key);
  const struct {
    const char* label;
    const char* okm;
  } cases[] = {
      {"raptee-link-enc-0", "e32fa848a64c68c2473c89ec791553ebd4295fda50b3a67d92945ad743e6ee8e"},
      {"link-3-17#1", "a34d5a026f4137e8f4298c1b42eab199d49a7a4f6e8b06c5fdd531b75bc477e4"},
      {"link-4294967295-4294967295@18446744073709551615",
       "f40d0784853aade21d84a6f0e0a0b7b332244a61e118378bf4868d2bd3b37716"},
      {"", "37ad29109f43265287804b674e2653d0a513718907f97fca97c95bded8104bbf"},
      // info + counter spans two blocks of the expand's inner hash
      {"raptee-kat-a-label-longer-than-one-sha256-block-of-inner-input-x",
       "15d1d442ec7f5a943f59f952e31c046ecabadf682b32d7a735887702d99e0907"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(hex(key.derive(c.label).bytes()), c.okm) << c.label;
    EXPECT_EQ(hex(prk.derive(c.label).bytes()), c.okm) << "HkdfPrk " << c.label;
  }
  EXPECT_EQ(key.fingerprint(), 7137586562153591654ull);
}

/// Plaintext lengths chosen to cover the empty frame, a sub-block tail, an
/// exact AES block and a frame whose MAC input spans two SHA-256 blocks.
std::vector<std::uint8_t> kat_plaintext(std::size_t len, std::uint8_t salt) {
  std::vector<std::uint8_t> pt(len);
  for (std::size_t i = 0; i < len; ++i) pt[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return pt;
}

void expect_frames(std::uint8_t direction, const std::vector<std::string>& expected) {
  const crypto::SymmetricKey secret = counting_key(7, 1);
  wire::LinkCipher tx(secret, direction);
  wire::LinkCipher rx(secret, direction);
  const std::size_t lengths[] = {0, 1, 16, 33, 70};
  ASSERT_EQ(expected.size(), std::size(lengths));
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> opened;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    const auto pt = kat_plaintext(lengths[i], static_cast<std::uint8_t>(direction + i));
    tx.seal_into(pt.data(), pt.size(), frame);
    EXPECT_EQ(hex(frame), expected[i]) << "direction " << int(direction) << " frame " << i;
    ASSERT_TRUE(rx.open_into(frame.data(), frame.size(), opened));
    EXPECT_EQ(opened, pt);
  }
}

TEST(CryptoKat, LinkCipherFramesDirection0) {
  expect_frames(0, {"0000000000000000cec2a6f96813c426a9f6c983180f4da200f7b9754b99d038"
                    "ac13ae8e49ac0d06",
                    "0100000000000000377b1ef15989d4f9b00fc5d00a402b86b095c03efba7a098"
                    "66e1a30a65925eeb7a",
                    "02000000000000006fad324f3e9d799d8502a7864795b67e42386bca09a8268b"
                    "d236b5d2e68a728db90ea02c7b2aa1f832a289f2888f05c7",
                    "03000000000000009f66b58bbb478fb56a491a6f973ad6fa10bf06221fcc484f"
                    "a9d99137104bab6ddaa5cc800f016ec852d0107b49ca76522dfe8e9226309f87"
                    "bd9ac119e5255503e2",
                    "0400000000000000cbf274d558738fbc89269b2cc71daeb1631305ef28a2a0da"
                    "8e8a8e7c3df3284451da2b848841a76d2e277e1aa4b412e38b5402a8abcfb44f"
                    "76c62bf9b5a4b80011a04fc104d909e77489b067a81c4fd5ab599a3febd3ed12"
                    "3b92496c3f7d98ae8b68894fae72"});
}

TEST(CryptoKat, LinkCipherFramesDirection1) {
  expect_frames(1, {"00000000000000000add761a7e9bbfee465013921ea06dae72542057317b5209"
                    "10001d601653462d",
                    "0100000000000000d4ca22cc56fdb5f28dc6e258ce1868e9de12752c9c0187fb"
                    "87b94a1d5cdf657766",
                    "0200000000000000c017e9eccb0fd9b3f3e633de5af4dffb26400a96d97f1960"
                    "26e76ff53c483ebbc61482ccca56dceced81de62636a2359",
                    "030000000000000048832274a9fe55206781f599bad425fe9cf38a428bb80736"
                    "49f6b97e451ef7ba2b4b012de45321fb7a1ad95c73c2e714f4a398671316f386"
                    "2fcb29ac3569713d49",
                    "04000000000000004e6170a9085b66dd495ae8debd6903d334b165813cccbf11"
                    "6d47628f2de3d074e127662331e155828280ccc3e522e93057988c5a722f88eb"
                    "028adb74040b9ffd7ad556f375a261f8593cf19baf016aaedb634c76ba7bee5d"
                    "ee6e982d5a6877fe4dab4a9bc545"});
}

/// One frame sealed on `session`'s channel from `from`.
std::string seal_hex(wire::LinkSession& session, NodeId from, std::size_t len,
                     std::uint8_t salt) {
  const auto pt = kat_plaintext(len, salt);
  std::vector<std::uint8_t> frame;
  session.channel_from(from).seal_into(pt.data(), pt.size(), frame);
  return hex(frame);
}

const NodeId kKatLo{3};
const NodeId kKatHi{17};
const NodeId kKatMax{4294967295u};

TEST(CryptoKat, LinkTableSessionFrames) {
  wire::LinkTable table(counting_key(11, 3));
  // First use: establishment #1 of each pair, both directions.
  EXPECT_EQ(seal_hex(table.session(kKatHi, kKatLo, 0), kKatLo, 5, 1),
            "00000000000000003d8151308e372aaa253ca172c663f06a2a749d65a3e4305c"
            "fdf5f18886a3e3f73dc38339d4");
  EXPECT_EQ(seal_hex(table.session(kKatLo, kKatHi, 1), kKatHi, 16, 2),
            "000000000000000023018ff17dd9ccaa86077cf749f072fa7809d534ad6252cb"
            "dea14344431779e08cc2208b2650d9566abdf21bd0dfa90d");
  EXPECT_EQ(seal_hex(table.session(kKatLo, kKatMax, 1), kKatMax, 0, 3),
            "0000000000000000783633c3b5107e5deb7960a406ddd6c847e65344e9f6e05d"
            "3ed0f6524552c4dc");
  EXPECT_EQ(seal_hex(table.session(kKatLo, kKatHi, 1), kKatLo, 1, 4),
            "0100000000000000937778205a8530665c5974d241022448bb3440da7d229343"
            "9b2a9708b4cdf16880");
  // After invalidate(node): establishment #2 of both of the node's pairs.
  table.invalidate(kKatLo);
  EXPECT_EQ(seal_hex(table.session(kKatLo, kKatHi, 2), kKatLo, 5, 1),
            "0000000000000000f5d97554e8aa867f83cdb535d770e91a21abfd296f2ad78f"
            "6866a73786fd0d50d531b345f2");
  EXPECT_EQ(seal_hex(table.session(kKatMax, kKatLo, 2), kKatLo, 0, 3),
            "0000000000000000b8e675937b5d21842d6296f4b91e192cfc789726cc6d5598"
            "2e54de83b305b46a");
  EXPECT_EQ(table.derivations(), 4u);
}

TEST(CryptoKat, LinkTableEstablishFrames) {
  wire::LinkTable table(counting_key(11, 3));
  EXPECT_EQ(seal_hex(table.establish(kKatHi, kKatLo, 0xA11CE), kKatLo, 5, 5),
            "0000000000000000d7253b538b165066b4a8569ad63e68815a0b34c5c0087b2c"
            "7d61c4174cf0c22c58436dcd7f");
  // session() returns the established session, not a counter-labelled one.
  EXPECT_EQ(seal_hex(table.session(kKatLo, kKatHi, 0), kKatHi, 16, 6),
            "000000000000000067f24ce4bfb30dc12e18ee789e7001091c74abb71b9751f2"
            "cbef3e5416f80b8e9b487d98757d9b00e5dc36ce2ca3d2ab");
  EXPECT_EQ(seal_hex(table.establish(NodeId{0}, kKatMax, ~0ull), kKatMax, 1, 7),
            "000000000000000083ace7fb4eb3fe52f5d3e5598fe4a9d35ae8f86840cc3aad"
            "34ec0c2ad94b1e9f85");
  EXPECT_EQ(seal_hex(table.establish(kKatLo, kKatHi, 0xA11CF), kKatLo, 5, 5),
            "0000000000000000c87c2ea07e992f129ff3edb9342ec4166c4e16f0545f8103"
            "1205b79a34c756f90ec9cb9311");
}

struct Handshake {
  std::string r_a, r_b, proof_b, proof_a;
};

Handshake run_handshake(brahms::AuthMode mode) {
  const crypto::SymmetricKey key = counting_key(13, 5);
  brahms::KeyedAuthenticator a(mode, key, crypto::Drbg(1, "kat-a"));
  brahms::KeyedAuthenticator b(mode, key, crypto::Drbg(2, "kat-b"));
  const auto challenge = a.make_challenge();
  const auto response = b.make_response(challenge);
  crypto::AuthConfirm confirm;
  EXPECT_TRUE(a.verify_response(challenge, response, &confirm));
  EXPECT_TRUE(b.verify_confirm(challenge, response, confirm));
  return {hex(challenge.r_a), hex(response.r_b), hex(response.proof_b),
          hex(confirm.proof_a)};
}

TEST(CryptoKat, KeyedAuthenticatorFullModeTokens) {
  const Handshake h = run_handshake(brahms::AuthMode::kFull);
  EXPECT_EQ(h.r_a, "5ae8537f46028889f8a5fcc30a169b96");
  EXPECT_EQ(h.r_b, "0af21485c68589ced6ae5b1bb7f3687a");
  EXPECT_EQ(h.proof_b, "710e334631f9b9a4d3ca10e36e5fe7a29fd3f04670943f091306ed938436ab1a");
  EXPECT_EQ(h.proof_a, "6577f9f0e1317914d825a3d2f94bf0a5af96cc4fce1b76c142159a4886b2f8a4");
}

TEST(CryptoKat, KeyedAuthenticatorFingerprintModeTokens) {
  const Handshake h = run_handshake(brahms::AuthMode::kFingerprint);
  EXPECT_EQ(h.r_a, "5ae8537f46028889f8a5fcc30a169b96");
  EXPECT_EQ(h.r_b, "0af21485c68589ced6ae5b1bb7f3687a");
  EXPECT_EQ(h.proof_b, "356827c4f3e808efbd2d50ca1b8405e257204506a3221ded35b022e319129705");
  EXPECT_EQ(h.proof_a, "f6b5e46927c51a9512bd73f97df34ac65eff282ab2373303d15e5f8b7ff7c70a");
}

TEST(CryptoKat, MacProofAndEnclaveTokens) {
  crypto::AuthNonce a{}, b{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(i);
    b[i] = static_cast<std::uint8_t>(0xF0 - i);
  }
  EXPECT_EQ(hex(brahms::auth_detail::mac_proof(counting_key(3, 9), "resp", a, b)),
            "85bd08df34f9d739bde9156934d9b20658c52a8ddd3693bc5b18e0015b530e3d");

  sgx::AttestationService service(777);
  sgx::Enclave enclave(sgx::raptee_enclave_identity(), 1);
  service.allowlist(sgx::measure_code(sgx::raptee_enclave_identity()));
  ASSERT_TRUE(service.provision(enclave));
  const std::string init_token =
      "4ae9b0c0856551cc7453114d2004fc8653f74aac9df7e88e69833e5771d2b367";
  EXPECT_EQ(hex(enclave.auth_mac_proof("init", a, b)), init_token);
  EXPECT_EQ(hex(enclave.auth_make_proof(a, b)),
            "6bbf396c439f3f90b7ca62994842e430ec064107888609f457f813a02cded3bc");
  const auto blob = enclave.seal_group_key();
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(hex(*blob),
            "00000000000000000a873df206528a51b5ca4ab02ae6def5d8c835ed17d8d213"
            "f7770102d59fe1c6ff6381d746b1338262023128bf83647204c88a313f85ddea"
            "eb2e108b1ab165d6");

  // A restarted enclave that unseals the group key proves with it alike.
  sgx::Enclave restarted(sgx::raptee_enclave_identity(), 1);
  ASSERT_TRUE(restarted.unseal_group_key(*blob));
  EXPECT_EQ(hex(restarted.auth_mac_proof("init", a, b)), init_token);
}

}  // namespace
}  // namespace raptee
