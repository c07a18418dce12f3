// SHA-256 (FIPS 180-4), implemented from scratch for this offline
// reproduction. Used by the mutual-authentication protocol (H(rA·rB)),
// HMAC, enclave measurements and the deterministic DRBG.
//
// The compression function is chosen once per process: the x86 SHA
// extensions (SHA-NI) when the CPU reports them, otherwise the portable
// FIPS 180-4 code. Both produce identical bytes; the portable code is also
// the oracle the hardware path is cross-checked against in tests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace raptee::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

/// SHA-256 chaining value: the eight state words H0..H7 between blocks.
using Sha256State = std::array<std::uint32_t, 8>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }
  /// Resumes a hash from `midstate`, the chaining value after `blocks`
  /// whole 64-byte blocks (see midstate()).
  Sha256(const Sha256State& midstate, std::uint64_t blocks)
      : h_(midstate), total_bits_(blocks * 512) {}

  void reset();
  void update(const std::uint8_t* data, std::size_t len);
  void update(std::string_view s) {
    // raptee-lint: allow(cast-allowlist) audited byte pun: char -> uint8_t view of the same buffer
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void update(const std::vector<std::uint8_t>& v) { update(v.data(), v.size()); }

  /// Chaining value after the data fed so far, which must be a whole
  /// number of blocks (the HMAC key schedule feeds exactly one).
  [[nodiscard]] const Sha256State& midstate() const;

  /// Finalizes and returns the digest. The context must be reset() before reuse.
  [[nodiscard]] Digest256 finish();

 private:
  Sha256State h_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Digest256 sha256(const std::uint8_t* data, std::size_t len);
[[nodiscard]] Digest256 sha256(std::string_view s);
[[nodiscard]] Digest256 sha256(const std::vector<std::uint8_t>& v);

/// Lowercase hex encoding of a digest.
[[nodiscard]] std::string to_hex(const Digest256& d);

/// Constant-time digest comparison (timing-safe even though the simulator
/// adversary cannot time us; done for fidelity).
[[nodiscard]] bool digest_equal(const Digest256& a, const Digest256& b);

/// The two compression paths, exposed so tests can cross-check them.
/// Production code goes through Sha256, which picks one per process.
namespace detail {
/// True when the CPU supports the SHA extensions (and SSE4.1, which the
/// SHA-NI code also uses).
[[nodiscard]] bool cpu_has_sha_ni();
/// Compresses `nblocks` consecutive 64-byte blocks into `state`.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t nblocks);
/// Same, on SHA-NI. Precondition: cpu_has_sha_ni().
void sha256_blocks_shani(Sha256State& state, const std::uint8_t* blocks,
                         std::size_t nblocks);
}  // namespace detail

}  // namespace raptee::crypto
