// Brahms sampling component: min-wise uniformity, order/duplication
// insensitivity, churn validation.
#include "brahms/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace raptee::brahms {
namespace {

TEST(Sampler, HoldsMinHashElement) {
  Sampler s(42);
  EXPECT_FALSE(s.holds_sample());
  EXPECT_EQ(s.sample(), kNoNode);
  for (std::uint32_t i = 0; i < 100; ++i) s.next(NodeId{i});
  EXPECT_TRUE(s.holds_sample());
  // Recompute the argmin independently.
  crypto::MinWiseHash h(42);
  NodeId expected = kNoNode;
  std::uint64_t best = ~0ull;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (h(NodeId{i}) < best) {
      best = h(NodeId{i});
      expected = NodeId{i};
    }
  }
  EXPECT_EQ(s.sample(), expected);
}

TEST(Sampler, OrderInsensitive) {
  std::vector<NodeId> stream;
  for (std::uint32_t i = 0; i < 50; ++i) stream.emplace_back(i * 3 + 1);
  Sampler forward(7), backward(7);
  for (NodeId id : stream) forward.next(id);
  std::reverse(stream.begin(), stream.end());
  for (NodeId id : stream) backward.next(id);
  EXPECT_EQ(forward.sample(), backward.sample());
}

TEST(Sampler, DuplicationInsensitive) {
  Sampler once(9), many(9);
  for (std::uint32_t i = 0; i < 20; ++i) {
    once.next(NodeId{i});
    for (int rep = 0; rep < 10; ++rep) many.next(NodeId{i});
  }
  EXPECT_EQ(once.sample(), many.sample());
}

TEST(Sampler, ReinitForgetsAndRedraws) {
  Sampler s(1);
  s.next(NodeId{5});
  EXPECT_TRUE(s.holds_sample());
  s.reinit(2);
  EXPECT_FALSE(s.holds_sample());
  s.next(NodeId{6});
  EXPECT_EQ(s.sample(), NodeId{6});
}

TEST(SamplerArray, SizeAndIndependentSeeds) {
  Rng rng(3);
  SamplerArray arr(32, rng);
  EXPECT_EQ(arr.size(), 32u);
  for (std::uint32_t i = 0; i < 200; ++i) arr.feed(NodeId{i});
  // Independent hash functions: the samplers should not all agree.
  std::set<std::uint32_t> distinct;
  for (std::size_t i = 0; i < arr.size(); ++i) distinct.insert(arr.sample(i).value);
  EXPECT_GT(distinct.size(), 5u);
}

TEST(SamplerArray, SampleListIsSortedUnique) {
  Rng rng(4);
  SamplerArray arr(16, rng);
  for (std::uint32_t i = 0; i < 50; ++i) arr.feed(NodeId{i});
  const auto list = arr.sample_list();
  EXPECT_FALSE(list.empty());
  EXPECT_LE(list.size(), 16u);
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  EXPECT_EQ(std::adjacent_find(list.begin(), list.end()), list.end());
}

TEST(SamplerArray, HistorySampleBounded) {
  Rng rng(5);
  SamplerArray arr(16, rng);
  for (std::uint32_t i = 0; i < 100; ++i) arr.feed(NodeId{i});
  const auto hist = arr.history_sample(4, rng);
  EXPECT_EQ(hist.size(), 4u);
  std::set<std::uint32_t> uniq;
  for (NodeId id : hist) uniq.insert(id.value);
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(SamplerArray, ValidateReinitializesDeadSamples) {
  Rng rng(6);
  SamplerArray arr(32, rng);
  for (std::uint32_t i = 0; i < 10; ++i) arr.feed(NodeId{i});
  // Declare ids < 5 dead.
  const auto dead_below_5 = [](NodeId id) { return id.value >= 5; };
  const std::size_t reinitialized = arr.validate(dead_below_5, rng);
  EXPECT_GT(reinitialized, 0u);
  for (NodeId id : arr.sample_list()) EXPECT_GE(id.value, 5u);
}

TEST(SamplerArray, ValidateKeepsAliveSamples) {
  Rng rng(7);
  SamplerArray arr(8, rng);
  arr.feed(NodeId{3});
  const auto all_alive = [](NodeId) { return true; };
  EXPECT_EQ(arr.validate(all_alive, rng), 0u);
  EXPECT_EQ(arr.sample_list(), std::vector<NodeId>{NodeId{3}});
}

TEST(SamplerArray, ConvergesToUniformOverAdversarialStream) {
  // The defining Brahms property: even if the adversary over-represents its
  // IDs in the stream 100:1, each sampler still converges to a uniform
  // choice over the *distinct* IDs.
  constexpr std::uint32_t kCorrect = 40;
  constexpr std::uint32_t kByzantine = 10;  // ids 1000..1009
  constexpr int kRounds = 30;
  Rng rng(8);
  std::vector<int> byz_share;
  for (int trial = 0; trial < 60; ++trial) {
    SamplerArray arr(20, rng);
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint32_t i = 0; i < kCorrect; ++i) arr.feed(NodeId{i});
      for (int rep = 0; rep < 100; ++rep) {
        for (std::uint32_t b = 0; b < kByzantine; ++b) arr.feed(NodeId{1000 + b});
      }
    }
    int byz = 0;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (arr.sample(i).value >= 1000) ++byz;
    }
    byz_share.push_back(byz);
  }
  double mean = 0;
  for (int b : byz_share) mean += b;
  mean /= static_cast<double>(byz_share.size() * 20);
  // Uniform over 50 distinct ids -> byz share == 10/50 == 0.2, despite the
  // 100x multiplicity. Allow a loose statistical band.
  EXPECT_NEAR(mean, 0.2, 0.05);
}

class SamplerSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplerSeedSweep, ArgminUniformity) {
  // Each of the 8 ids should win the sampler with roughly equal frequency
  // across independent sampler seeds.
  Rng seeder(GetParam());
  std::vector<int> wins(8, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    Sampler s(seeder.next());
    for (std::uint32_t i = 0; i < 8; ++i) s.next(NodeId{i});
    ++wins[s.sample().value];
  }
  for (int w : wins) EXPECT_NEAR(w, 500, 120);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerSeedSweep, ::testing::Values(1, 99, 12345));

}  // namespace
}  // namespace raptee::brahms
