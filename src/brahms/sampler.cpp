#include "brahms/sampler.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "crypto/x86.hpp"

namespace raptee::brahms {

namespace {

using FeedFn = void (*)(SamplerArray&, const NodeId*, std::size_t);

/// 32-bit words per sampler: a seed, a held hash and a held ID.
constexpr std::size_t kWordsPerSampler = 5;

/// The process-wide feed kernel, chosen on first use.
FeedFn feed_kernel() {
  static const FeedFn fn = detail::cpu_has_avx512dq() ? detail::sampler_feed_avx512
                                                      : detail::sampler_feed_portable;
  return fn;
}

}  // namespace

namespace detail {

bool cpu_has_avx512dq() {
#if RAPTEE_CRYPTO_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

void sampler_feed_portable(SamplerArray& samplers, const NodeId* ids, std::size_t n) {
  const SamplerArray::Fields f = samplers.fields();
  for (std::size_t s = 0; s < samplers.size(); ++s) {
    const crypto::MinWiseHash hash(f.seed(s));
    std::uint64_t best = f.hash(s);
    NodeId current = f.held(s);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t h = hash(ids[i]);
      if (!current.valid() || h < best) {
        current = ids[i];
        best = h;
      }
    }
    f.hold(s, best, current);
  }
}

#if RAPTEE_CRYPTO_X86
namespace {

// GCC vector extensions rather than intrinsics: GCC 12 reports the
// undefined pass-through operand inside several AVX-512 intrinsics as
// -Wmaybe-uninitialized. Under the target attribute below these compile
// to vpsrlq, vpmullq, vpcmpuq and masked moves.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
constexpr std::size_t kLanes = 8;

/// Eight 32-bit IDs, zero-extended to 64-bit lanes in one vpmovzxdq
/// (__builtin_convertvector splits it in two). The all-ones zero-masking
/// form has no undefined operand.
__attribute__((target("avx512f,avx512dq"))) inline U64x8 load_ids(const NodeId* ids) {
  __m256i v;
  std::memcpy(&v, ids, sizeof v);
  const __m512i wide = _mm512_maskz_cvtepu32_epi64(0xFF, v);
  U64x8 out;
  std::memcpy(&out, &wide, sizeof out);
  return out;
}

/// crypto::MinWiseHash on eight lanes.
__attribute__((target("avx512f,avx512dq"))) inline U64x8 minwise8(U64x8 id,
                                                                  std::uint64_t seed) {
  U64x8 x = (id + crypto::MinWiseHash::kOffset) ^ seed;
  x ^= x >> 33;
  x *= crypto::MinWiseHash::kMul1;
  x ^= x >> 33;
  x *= crypto::MinWiseHash::kMul2;
  return x ^ (x >> 33);
}

}  // namespace

__attribute__((target("avx512f,avx512dq"))) void sampler_feed_avx512(SamplerArray& samplers,
                                                                    const NodeId* ids,
                                                                    std::size_t n) {
  if (n < kLanes) {
    sampler_feed_portable(samplers, ids, n);
    return;
  }
  const SamplerArray::Fields f = samplers.fields();
  // The last vector is loaded from ids + n - 8 and may overlap the one
  // before it; feeding an ID twice cannot change a minimum.
  const std::size_t last = n - kLanes;
  for (std::size_t s = 0; s < samplers.size(); ++s) {
    // Lanes start from the batch's first eight IDs rather than from an
    // empty ~0 hash, so an ID whose hash is ~0 is still taken below when
    // the sampler holds nothing yet, as in the scalar rule.
    const std::uint64_t seed = f.seed(s);
    U64x8 best_id = load_ids(ids);
    U64x8 best = minwise8(best_id, seed);
    for (std::size_t i = kLanes; i < n; i += kLanes) {
      const U64x8 id = load_ids(ids + std::min(i, last));
      const U64x8 h = minwise8(id, seed);
      const auto less = h < best;
      best = less ? h : best;
      best_id = less ? id : best_id;
    }
    // The eight lane minima go through the scalar rule.
    std::uint64_t lane_hash[kLanes], lane_id[kLanes];
    std::memcpy(lane_hash, &best, sizeof lane_hash);
    std::memcpy(lane_id, &best_id, sizeof lane_id);
    std::uint64_t min = f.hash(s);
    NodeId current = f.held(s);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (!current.valid() || lane_hash[lane] < min) {
        min = lane_hash[lane];
        current = NodeId{static_cast<std::uint32_t>(lane_id[lane])};
      }
    }
    f.hold(s, min, current);
  }
}
#else
void sampler_feed_avx512(SamplerArray& samplers, const NodeId* ids, std::size_t n) {
  RAPTEE_REQUIRE(false, "AVX-512 sampler feed called on a CPU without it");
  sampler_feed_portable(samplers, ids, n);
}
#endif

}  // namespace detail

SamplerArray::SamplerArray(std::size_t l2, Rng& rng)
    : size_(l2), words_(new std::uint32_t[l2 * kWordsPerSampler]) {
  for (std::size_t i = 0; i < l2; ++i) reinit(i, rng.next());
}

SamplerArray::SamplerArray(std::span<const std::uint64_t> seeds)
    : size_(seeds.size()), words_(new std::uint32_t[size_ * kWordsPerSampler]) {
  for (std::size_t i = 0; i < size_; ++i) reinit(i, seeds[i]);
}

void SamplerArray::reinit(std::size_t i, std::uint64_t seed) {
  const Fields f = fields();
  std::memcpy(f.seeds + 2 * i, &seed, sizeof seed);
  f.hold(i, ~0ull, kNoNode);
}

void SamplerArray::feed_all(std::span<const NodeId> ids) {
  feed_kernel()(*this, ids.data(), ids.size());
}

std::vector<NodeId> SamplerArray::sample_list() const {
  std::vector<NodeId> out;
  sample_list_into(out);
  return out;
}

void SamplerArray::sample_list_into(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(size_);
  const Fields f = fields();
  for (std::size_t i = 0; i < size_; ++i) {
    if (f.held(i).valid()) out.push_back(f.held(i));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<NodeId> SamplerArray::history_sample(std::size_t k, Rng& rng) const {
  return rng.sample(sample_list(), k);
}

std::size_t SamplerArray::validate(const std::function<bool(NodeId)>& alive, Rng& rng) {
  std::size_t reinitialized = 0;
  const Fields f = fields();
  for (std::size_t i = 0; i < size_; ++i) {
    if (f.held(i).valid() && !alive(f.held(i))) {
      reinit(i, rng.next());
      ++reinitialized;
    }
  }
  return reinitialized;
}

}  // namespace raptee::brahms
