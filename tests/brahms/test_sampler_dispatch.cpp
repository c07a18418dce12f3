// Seeded randomized cross-check of the two sampler feed kernels: AVX-512DQ
// against the portable scalar loop, which is itself checked against
// independent Sampler objects fed one ID at a time. Batches cover every
// length from 0 to 70 plus a full round's 634 pulled IDs, streams heavy
// with duplicates, and repeated feeds into warm samplers. On a CPU without
// AVX-512DQ the hardware half reports a skip with the reason; the
// portable-path checks still run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "brahms/sampler.hpp"
#include "common/rng.hpp"

namespace raptee::brahms {
namespace {

using FeedFn = void (*)(SamplerArray&, const NodeId*, std::size_t);

constexpr std::size_t kSizes[] = {1, 7, 8, 9, 40, 200};

#define SKIP_WITHOUT_AVX512DQ()     \
  if (!detail::cpu_has_avx512dq()) \
  GTEST_SKIP() << "CPU lacks AVX-512F/DQ; only the portable path runs here"

std::vector<std::uint64_t> random_seeds(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (auto& s : seeds) s = rng.next();
  return seeds;
}

/// `len` valid IDs, most drawn from a pool a third the batch's size so the
/// stream repeats IDs heavily, the rest from the full 32-bit range.
std::vector<NodeId> random_batch(Rng& rng, std::size_t len) {
  const std::uint64_t pool = len / 3 + 1;
  std::vector<NodeId> batch;
  batch.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t r = rng.next();
    const auto id = (r & 3) == 0 ? static_cast<std::uint32_t>(r >> 32) % NodeId::kInvalid
                                 : static_cast<std::uint32_t>(rng.below(pool));
    batch.emplace_back(id);
  }
  return batch;
}

std::vector<NodeId> samples(const SamplerArray& arr) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < arr.size(); ++i) out.push_back(arr.sample(i));
  return out;
}

/// Feeds three batches of the same length through `a_feed` and `b_feed`,
/// comparing every sampler after each feed.
void expect_same_samples(FeedFn a_feed, FeedFn b_feed, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 70; ++len) lengths.push_back(len);
  lengths.push_back(634);
  for (const std::size_t l2 : kSizes) {
    for (const std::size_t len : lengths) {
      const auto seeds = random_seeds(rng, l2);
      SamplerArray a(seeds), b(seeds);
      for (int feed = 0; feed < 3; ++feed) {
        const auto batch = random_batch(rng, len);
        a_feed(a, batch.data(), batch.size());
        b_feed(b, batch.data(), batch.size());
        ASSERT_EQ(samples(a), samples(b))
            << "l2 " << l2 << ", batch " << len << ", feed " << feed;
      }
    }
  }
}

/// Multiplicative inverse of an odd 64-bit value (Newton's iteration).
std::uint64_t inverse_odd(std::uint64_t m) {
  std::uint64_t inv = m;  // correct to 3 bits; each step doubles that
  for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
  return inv;
}

/// A seed under which crypto::MinWiseHash maps `id` to `target`: runs the
/// mixer backwards (x ^= x >> 33 is its own inverse, both multipliers are
/// odd) and solves (id + offset) ^ seed for the seed.
std::uint64_t seed_mapping(NodeId id, std::uint64_t target) {
  std::uint64_t x = target;
  x ^= x >> 33;
  x *= inverse_odd(crypto::MinWiseHash::kMul2);
  x ^= x >> 33;
  x *= inverse_odd(crypto::MinWiseHash::kMul1);
  x ^= x >> 33;
  return x ^ (static_cast<std::uint64_t>(id.value) + crypto::MinWiseHash::kOffset);
}

TEST(SamplerDispatch, PortableKernelAndPerIdFeedMatchOneSamplerPerSeed) {
  Rng rng(0x534F4C4Full);
  for (const std::size_t l2 : kSizes) {
    for (std::size_t len = 0; len <= 70; len += 7) {
      const auto seeds = random_seeds(rng, l2);
      SamplerArray batched(seeds), per_id(seeds);
      std::vector<Sampler> oracle;
      for (const std::uint64_t s : seeds) oracle.emplace_back(s);
      for (int feed = 0; feed < 3; ++feed) {
        const auto batch = random_batch(rng, len);
        detail::sampler_feed_portable(batched, batch.data(), batch.size());
        for (NodeId id : batch) per_id.feed(id);
        for (auto& s : oracle) {
          for (NodeId id : batch) s.next(id);
        }
        for (std::size_t i = 0; i < l2; ++i) {
          ASSERT_EQ(batched.sample(i), oracle[i].sample())
              << "l2 " << l2 << ", batch " << len << ", sampler " << i;
          ASSERT_EQ(per_id.sample(i), oracle[i].sample())
              << "l2 " << l2 << ", batch " << len << ", sampler " << i;
        }
      }
    }
  }
}

TEST(SamplerDispatch, Avx512MatchesPortable) {
  SKIP_WITHOUT_AVX512DQ();
  expect_same_samples(detail::sampler_feed_avx512, detail::sampler_feed_portable,
                      0x41565835ull);
}

TEST(SamplerDispatch, SelectedKernelMatchesPortable) {
  // feed_all runs whichever kernel this CPU selected.
  const FeedFn selected = [](SamplerArray& arr, const NodeId* ids, std::size_t n) {
    arr.feed_all({ids, n});
  };
  expect_same_samples(selected, detail::sampler_feed_portable, 0x53454C45ull);
}

TEST(SamplerDispatch, InvertedMixerHitsAllOnes) {
  const NodeId id{123456};
  const std::uint64_t seed = seed_mapping(id, ~0ull);
  EXPECT_EQ(crypto::MinWiseHash(seed)(id), ~0ull);
  EXPECT_EQ(crypto::MinWiseHash(seed_mapping(id, 42))(id), 42u);
}

TEST(SamplerDispatch, EmptySamplerTakesAnIdHashingToAllOnes) {
  // The scalar rule takes the first ID into an empty sampler whatever its
  // hash; a kernel whose lanes started at ~0 with a strict < would leave
  // the sampler empty when that hash is exactly ~0.
  const NodeId id{77};
  const std::vector<std::uint64_t> seeds(9, seed_mapping(id, ~0ull));
  for (std::size_t len = 1; len <= 20; ++len) {
    const std::vector<NodeId> batch(len, id);
    SamplerArray portable(seeds), selected(seeds), per_id(seeds);
    detail::sampler_feed_portable(portable, batch.data(), batch.size());
    selected.feed_all(batch);
    for (NodeId each : batch) per_id.feed(each);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ASSERT_EQ(portable.sample(i), id) << "batch " << len;
      ASSERT_EQ(selected.sample(i), id) << "batch " << len;
      ASSERT_EQ(per_id.sample(i), id) << "batch " << len;
    }
    if (detail::cpu_has_avx512dq()) {
      SamplerArray hardware(seeds);
      detail::sampler_feed_avx512(hardware, batch.data(), batch.size());
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        ASSERT_EQ(hardware.sample(i), id) << "batch " << len;
      }
    }
  }
}

TEST(SamplerDispatch, AllOnesIdLosesToAnyOtherOnceHeld) {
  // Once held, the ~0 ID is replaced by the first other ID, whose hash is
  // necessarily smaller; fed the other way round it never gets in.
  SKIP_WITHOUT_AVX512DQ();
  const NodeId worst{5};
  const std::vector<std::uint64_t> seeds(3, seed_mapping(worst, ~0ull));
  Rng rng(0x414C4C31ull);
  for (std::size_t len = 8; len <= 40; ++len) {
    std::vector<NodeId> others = random_batch(rng, len);
    for (auto& id : others) {
      if (id == worst) id = NodeId{6};
    }
    std::vector<NodeId> worst_batch(len, worst);
    SamplerArray portable(seeds), hardware(seeds);
    for (const std::vector<NodeId>* batch : {&worst_batch, &others, &worst_batch}) {
      detail::sampler_feed_portable(portable, batch->data(), batch->size());
      detail::sampler_feed_avx512(hardware, batch->data(), batch->size());
      ASSERT_EQ(samples(portable), samples(hardware)) << "batch " << len;
    }
    ASSERT_NE(portable.sample(0), worst);
  }
}

}  // namespace
}  // namespace raptee::brahms
