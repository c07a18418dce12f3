// wire::LinkTable contract: one persistent session per unordered pair with
// sequence-number continuity across exchanges, O(1) invalidation on churn
// with fresh keys on re-establishment, idle retirement (checked against a
// brute-force model), and the transient per-exchange baseline mode used by
// bench/scale_links.
#include "wire/link_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/rng.hpp"
#include "crypto/key.hpp"

namespace raptee::wire {
namespace {

crypto::SymmetricKey master() {
  crypto::Drbg drbg(42, "link-session-test");
  return drbg.generate_key();
}

const NodeId kA{3};
const NodeId kB{7};
const NodeId kC{9};

TEST(LinkTable, CachesOneSessionPerPairAcrossCalls) {
  LinkTable table(master());
  LinkSession& first = table.session(kA, kB, 0);
  LinkSession& again = table.session(kA, kB, 1);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(table.derivations(), 1u);
  EXPECT_EQ(table.active_sessions(), 1u);
}

TEST(LinkTable, PairIsUnordered) {
  LinkTable table(master());
  LinkSession& ab = table.session(kA, kB, 0);
  LinkSession& ba = table.session(kB, kA, 0);
  EXPECT_EQ(&ab, &ba);
  EXPECT_EQ(table.derivations(), 1u);
}

TEST(LinkTable, DistinctPairsGetDistinctSessions) {
  LinkTable table(master());
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kC, 0);
  EXPECT_EQ(table.derivations(), 2u);
  EXPECT_EQ(table.active_sessions(), 2u);
}

TEST(LinkTable, SequenceNumbersContinueAcrossExchanges) {
  LinkTable table(master());
  const std::vector<std::uint8_t> leg{1, 2, 3, 4};

  // Two "exchanges": the session persists, so the channel's sequence
  // numbers keep counting instead of resetting to zero.
  for (int exchange = 0; exchange < 2; ++exchange) {
    LinkSession& session = table.session(kA, kB, exchange);
    LinkCipher& channel = session.channel_from(kA);
    const auto frame = channel.seal(leg);
    const auto opened = channel.open(frame);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, leg);
  }
  LinkSession& session = table.session(kA, kB, 2);
  EXPECT_EQ(session.channel_from(kA).sent(), 2u);
  EXPECT_EQ(session.channel_from(kA).received(), 2u);
  EXPECT_EQ(table.derivations(), 1u) << "continuity must not re-derive";
}

TEST(LinkTable, ChannelsAreDirectional) {
  LinkTable table(master());
  LinkSession& session = table.session(kA, kB, 0);
  EXPECT_NE(&session.channel_from(kA), &session.channel_from(kB));

  // Two endpoints holding equal-keyed copies: each direction's frame opens
  // on the peer's copy of the same channel (tx -> rx both ways).
  LinkTable peer_table(master());
  LinkSession& peer = peer_table.session(kB, kA, 0);
  const std::vector<std::uint8_t> ping{'p', 'i', 'n', 'g'};
  const std::vector<std::uint8_t> pong{'p', 'o', 'n', 'g'};
  auto opened = peer.channel_from(kA).open(session.channel_from(kA).seal(ping));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, ping);
  opened = session.channel_from(kB).open(peer.channel_from(kB).seal(pong));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pong);

  // A frame sealed on the A->B channel must not open on B->A (distinct
  // direction subkeys — no keystream reuse across the duplex pair).
  const auto frame = session.channel_from(kA).seal({9, 9, 9});
  EXPECT_FALSE(session.channel_from(kB).open(frame).has_value());
}

TEST(LinkTable, InvalidateRekeysEverySessionOfTheNode) {
  LinkTable table(master());
  LinkSession& ab = table.session(kA, kB, 0);
  const auto old_frame = ab.channel_from(kA).seal({5, 5});
  (void)table.session(kA, kC, 0);
  ASSERT_EQ(table.derivations(), 2u);

  table.invalidate(kA);
  LinkSession& ab2 = table.session(kA, kB, 1);
  // Fresh key and fresh sequence state: the old frame (sealed under the
  // previous establishment) must not authenticate.
  EXPECT_EQ(ab2.channel_from(kA).sent(), 0u);
  std::vector<std::uint8_t> opened;
  EXPECT_FALSE(
      ab2.channel_from(kA).open_into(old_frame.data(), old_frame.size(), opened));
  EXPECT_EQ(table.derivations(), 3u);
  (void)table.session(kA, kC, 1);
  EXPECT_EQ(table.derivations(), 4u) << "both of A's sessions must rekey";
}

TEST(LinkTable, InvalidatePairLeavesOtherPairsCached) {
  LinkTable table(master());
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kC, 0);
  table.invalidate_pair(kA, kB);
  EXPECT_EQ(table.active_sessions(), 1u);
  (void)table.session(kA, kC, 1);
  EXPECT_EQ(table.derivations(), 2u) << "the untouched pair must stay cached";
  (void)table.session(kA, kB, 1);
  EXPECT_EQ(table.derivations(), 3u);
}

TEST(LinkTable, RetireIdleDropsOnlyStaleSessions) {
  LinkTable table(master());
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kC, 90);
  table.retire_idle(100, 64);
  EXPECT_EQ(table.active_sessions(), 1u);
  (void)table.session(kA, kC, 100);
  EXPECT_EQ(table.derivations(), 2u) << "recently used pair survives";
  (void)table.session(kA, kB, 100);
  EXPECT_EQ(table.derivations(), 3u) << "retired pair re-derives";
}

TEST(LinkTable, RetireIdleSeesSessionsEstablishedAfterAScan) {
  LinkTable table(master());
  (void)table.session(kA, kB, 10);
  (void)table.session(kA, kC, 0);
  table.retire_idle(10, 2);  // scans: retires {A, C}, the oldest is now 10
  EXPECT_EQ(table.active_sessions(), 1u);
  // A token-established session starts at last_used 0, below that bound.
  (void)table.establish(kB, kC, 77);
  EXPECT_EQ(table.active_sessions(), 2u);
  table.retire_idle(13, 3);
  EXPECT_EQ(table.active_sessions(), 1u) << "the established session is idle";
  (void)table.session(kA, kB, 13);
  EXPECT_EQ(table.derivations(), 3u) << "{A, B} was used at 10 and survives";
}

/// Brute-force model of the table's cache state: which pairs hold a
/// session, when each was last used, the endpoint epochs it was made at.
class TableModel {
 public:
  struct Cached {
    std::uint64_t last_used;
    std::uint32_t epoch_lo;
    std::uint32_t epoch_hi;
  };

  /// Returns true when the call establishes (derives) a session.
  bool session(std::uint32_t a, std::uint32_t b, std::uint64_t round) {
    const auto key = ordered(a, b);
    const auto it = cached_.find(key);
    if (it != cached_.end() && it->second.epoch_lo == epochs_[key.first] &&
        it->second.epoch_hi == epochs_[key.second]) {
      it->second.last_used = round;
      return false;
    }
    cached_[key] = {round, epochs_[key.first], epochs_[key.second]};
    return true;
  }
  void establish(std::uint32_t a, std::uint32_t b) {
    const auto key = ordered(a, b);
    cached_[key] = {0, epochs_[key.first], epochs_[key.second]};
  }
  void invalidate(std::uint32_t node) { ++epochs_[node]; }
  void invalidate_pair(std::uint32_t a, std::uint32_t b) { cached_.erase(ordered(a, b)); }
  void retire_idle(std::uint64_t round, std::uint64_t max_idle) {
    std::erase_if(cached_, [&](const auto& entry) {
      return entry.second.last_used + max_idle < round;
    });
  }
  [[nodiscard]] std::size_t active() const { return cached_.size(); }

 private:
  static std::pair<std::uint32_t, std::uint32_t> ordered(std::uint32_t a, std::uint32_t b) {
    return {std::min(a, b), std::max(a, b)};
  }

  std::map<std::pair<std::uint32_t, std::uint32_t>, Cached> cached_;
  std::map<std::uint32_t, std::uint32_t> epochs_;
};

TEST(LinkTable, RetireIdleMatchesBruteForceModel) {
  constexpr std::uint32_t kNodes = 6;
  const std::uint64_t max_idles[] = {0, 1, 2, 3, 5, 64};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    LinkTable table(master());
    TableModel model;
    std::uint64_t derivations = 0;
    std::uint64_t round = 0;
    const auto pick_pair = [&] {
      const auto a = static_cast<std::uint32_t>(rng.below(kNodes));
      auto b = static_cast<std::uint32_t>(rng.below(kNodes - 1));
      if (b >= a) ++b;
      return std::pair{NodeId{a}, NodeId{b}};
    };
    for (int op = 0; op < 150; ++op) {
      const std::uint64_t dice = rng.below(100);
      if (dice < 50) {
        round += rng.below(3);  // session hits at rising rounds
        const auto [a, b] = pick_pair();
        (void)table.session(a, b, round);
        if (model.session(a.value, b.value, round)) ++derivations;
      } else if (dice < 60) {
        const auto [a, b] = pick_pair();
        (void)table.establish(a, b, rng.next());
        model.establish(a.value, b.value);
        ++derivations;
      } else if (dice < 66) {
        const auto node = static_cast<std::uint32_t>(rng.below(kNodes));
        table.invalidate(NodeId{node});
        model.invalidate(node);
      } else if (dice < 72) {
        const auto [a, b] = pick_pair();
        table.invalidate_pair(a, b);
        model.invalidate_pair(a.value, b.value);
      } else {
        const std::uint64_t max_idle = max_idles[rng.below(std::size(max_idles))];
        const std::uint64_t at = round + rng.below(8);
        table.retire_idle(at, max_idle);
        model.retire_idle(at, max_idle);
      }
      ASSERT_EQ(table.active_sessions(), model.active()) << "seed " << seed << " op " << op;
      ASSERT_EQ(table.derivations(), derivations) << "seed " << seed << " op " << op;
    }
    // Re-touch every pair: exactly the pairs the model still holds with
    // current epochs stay cached (no derivation).
    ++round;
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = a + 1; b < kNodes; ++b) {
        (void)table.session(NodeId{a}, NodeId{b}, round);
        if (model.session(a, b, round)) ++derivations;
        ASSERT_EQ(table.derivations(), derivations)
            << "seed " << seed << " pair " << a << "-" << b;
      }
    }
  }
}

TEST(LinkTable, TransientModeEstablishesPerCall) {
  LinkTable table(master(), /*cache=*/false);
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kB, 0);
  (void)table.session(kA, kB, 1);
  EXPECT_EQ(table.derivations(), 3u);
  EXPECT_EQ(table.active_sessions(), 0u);
  // Each establishment starts its sequence space from zero (the old
  // per-exchange behaviour the baseline mode reproduces).
  EXPECT_EQ(table.session(kA, kB, 2).channel_from(kA).sent(), 0u);
}

TEST(LinkTable, ReestablishedSessionsNeverReuseAKeystream) {
  LinkTable table(master());
  const std::vector<std::uint8_t> leg{1, 1, 1, 1, 1, 1, 1, 1};
  const auto frame1 = table.session(kA, kB, 0).channel_from(kA).seal(leg);
  table.invalidate_pair(kA, kB);
  const auto frame2 = table.session(kA, kB, 0).channel_from(kA).seal(leg);
  // Same plaintext, same sequence number (0), same direction — but a fresh
  // establishment-uniquified key, so the ciphertext bytes must differ.
  ASSERT_EQ(frame1.size(), frame2.size());
  EXPECT_NE(frame1, frame2);
}

}  // namespace
}  // namespace raptee::wire
