// Brahms' local sampling component: l2 independent samplers, each holding
// the stream element minimizing a per-sampler min-wise independent hash
// (Broder et al.). Over any stream that contains each alive ID infinitely
// often, each sampler converges to an unbiased uniform sample, immune to
// adversarial over-representation in the stream.
//
// Sample *validation* (churn defence): Brahms periodically probes the
// currently held sample; if it stopped responding the sampler re-draws its
// hash function and restarts, so departed nodes eventually wash out of S.
//
// Layout and feed kernel. SamplerArray stores its samplers as structure of
// arrays in one heap block: l2 hash seeds, then l2 held hashes, then l2
// held IDs (20 B per sampler, 800 B at l2 = 40). A batch feed loops over
// the samplers on the outside and over the batch on the inside, so each
// sampler's seed and running minimum stay in registers. The kernel is
// chosen once per process: AVX-512DQ (eight 64-bit lanes, vpmullq) when
// the CPU reports it, otherwise the portable scalar loop, which is also
// the test oracle. Both hold the same samples afterwards: the mixer is a
// bijection of (id + c) ^ seed, so distinct IDs never tie, and a sampler's
// result is the minimum-hash ID of everything fed to it, independent of
// order and duplicates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/minwise.hpp"

namespace raptee::brahms {

/// One sampler on its own: the reference rule every kernel reproduces.
class Sampler {
 public:
  explicit Sampler(std::uint64_t hash_seed) : hash_(hash_seed) {}

  /// Feeds one stream element.
  void next(NodeId id) {
    const std::uint64_t h = hash_(id);
    if (!current_.valid() || h < current_hash_) {
      current_ = id;
      current_hash_ = h;
    }
  }

  /// Currently held sample (kNoNode until the first element arrives).
  [[nodiscard]] NodeId sample() const { return current_; }
  [[nodiscard]] bool holds_sample() const { return current_.valid(); }

  /// Re-initializes with a fresh hash function, forgetting the held sample.
  void reinit(std::uint64_t new_hash_seed) {
    hash_ = crypto::MinWiseHash(new_hash_seed);
    current_ = kNoNode;
    current_hash_ = ~0ull;
  }

 private:
  crypto::MinWiseHash hash_;
  NodeId current_ = kNoNode;
  std::uint64_t current_hash_ = ~0ull;
};

class SamplerArray;

/// The two batch-feed kernels, exposed so tests can cross-check them.
/// Production code goes through SamplerArray::feed_all, which picks one per
/// process. Both feed ids[0, n) to every sampler of `samplers`; every ID
/// must be valid.
namespace detail {
/// True when the CPU supports AVX-512F and AVX-512DQ.
[[nodiscard]] bool cpu_has_avx512dq();
void sampler_feed_portable(SamplerArray& samplers, const NodeId* ids, std::size_t n);
/// Batches shorter than one vector (8 IDs) run the portable loop.
/// Precondition: cpu_has_avx512dq().
void sampler_feed_avx512(SamplerArray& samplers, const NodeId* ids, std::size_t n);
}  // namespace detail

class SamplerArray {
 public:
  /// Creates `l2` samplers with independent hash seeds drawn from `rng`.
  SamplerArray(std::size_t l2, Rng& rng);
  /// Creates one empty sampler per given hash seed.
  explicit SamplerArray(std::span<const std::uint64_t> seeds);

  /// Feeds one valid ID to every sampler: the scalar rule, inline. An
  /// empty sampler's held hash is ~0, so a hash above the held one settles
  /// the common case without loading the held ID.
  void feed(NodeId id) {
    const Fields f = fields();
    for (std::size_t s = 0, n = size_; s < n; ++s) {
      const std::uint64_t h = crypto::MinWiseHash(f.seed(s))(id);
      const std::uint64_t held_hash = f.hash(s);
      if (h <= held_hash && (h < held_hash || !f.held(s).valid())) f.hold(s, h, id);
    }
  }
  /// Feeds a batch of valid IDs through the process's kernel. Duplicates
  /// and order do not change the result, so callers need not dedup.
  void feed_all(std::span<const NodeId> ids);

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Sample held by sampler `i` (kNoNode until it has been fed).
  [[nodiscard]] NodeId sample(std::size_t i) const { return fields().held(i); }

  /// Distinct IDs currently held across all samplers, sorted.
  [[nodiscard]] std::vector<NodeId> sample_list() const;
  /// Clear-and-fill form of sample_list(); `out` keeps its capacity.
  void sample_list_into(std::vector<NodeId>& out) const;

  /// `k` IDs drawn uniformly (without replacement) from the distinct held
  /// samples — the γ·l1 "history sample" of the view renewal.
  [[nodiscard]] std::vector<NodeId> history_sample(std::size_t k, Rng& rng) const;

  /// Probes every held sample with `alive`; re-initializes samplers whose
  /// sample fails the probe. Returns the number re-initialized.
  std::size_t validate(const std::function<bool(NodeId)>& alive, Rng& rng);

 private:
  friend void detail::sampler_feed_portable(SamplerArray&, const NodeId*, std::size_t);
  friend void detail::sampler_feed_avx512(SamplerArray&, const NodeId*, std::size_t);

  /// The block's three arrays. A seed or held hash is a 64-bit value kept
  /// as two 32-bit words and moved with memcpy, one 64-bit move.
  struct Fields {
    std::uint32_t* seeds;
    std::uint32_t* hashes;
    std::uint32_t* ids;

    [[nodiscard]] std::uint64_t seed(std::size_t i) const { return load64(seeds + 2 * i); }
    [[nodiscard]] std::uint64_t hash(std::size_t i) const { return load64(hashes + 2 * i); }
    [[nodiscard]] NodeId held(std::size_t i) const { return NodeId{ids[i]}; }
    void hold(std::size_t i, std::uint64_t h, NodeId id) const {
      std::memcpy(hashes + 2 * i, &h, sizeof h);
      ids[i] = id.value;
    }
    static std::uint64_t load64(const std::uint32_t* p) {
      std::uint64_t v;
      std::memcpy(&v, p, sizeof v);
      return v;
    }
  };
  [[nodiscard]] Fields fields() const {
    std::uint32_t* w = words_.get();
    return {w, w + 2 * size_, w + 4 * size_};
  }
  void reinit(std::size_t i, std::uint64_t seed);

  std::size_t size_ = 0;
  /// One block of 5 * size_ words: seeds (2 words each), then held hashes
  /// (2 words each), then held IDs.
  std::unique_ptr<std::uint32_t[]> words_;
};

}  // namespace raptee::brahms
