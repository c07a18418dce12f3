#include "wire/link_session.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <utility>

namespace raptee::wire {

namespace {

std::uint64_t pair_key(NodeId lo, NodeId hi) {
  return (static_cast<std::uint64_t>(lo.value) << 32) | hi.value;
}

/// Writes the session label "link-<lo>-<hi><sep><n>" into `buf` (no heap)
/// and returns it. 64 bytes hold the longest label (47 characters).
std::string_view session_label(std::array<char, 64>& buf, NodeId lo, NodeId hi, char sep,
                               std::uint64_t n) {
  char* const end = buf.data() + buf.size();
  char* p = buf.data();
  // Bounds-checked so the compiler can see no separator lands past `end`.
  const auto put = [&](char c) {
    if (p != end) *p++ = c;
  };
  for (const char c : std::string_view("link-")) put(c);
  p = std::to_chars(p, end, lo.value).ptr;
  put('-');
  p = std::to_chars(p, end, hi.value).ptr;
  put(sep);
  p = std::to_chars(p, end, n).ptr;
  return {buf.data(), static_cast<std::size_t>(p - buf.data())};
}

}  // namespace

LinkTable::LinkTable(const crypto::SymmetricKey& master, bool cache)
    : master_(master), cache_(cache) {}

std::uint32_t LinkTable::epoch_of(NodeId node) const {
  return node.value < epochs_.size() ? epochs_[node.value] : 0;
}

std::unique_ptr<LinkSession> LinkTable::make_session(NodeId lo, NodeId hi, char sep,
                                                     std::uint64_t n) {
  ++derivations_;
  std::array<char, 64> label;
  auto session = std::make_unique<LinkSession>(
      crypto::HkdfPrk(master_.derive(session_label(label, lo, hi, sep, n))), lo);
  session->epoch_lo = epoch_of(lo);
  session->epoch_hi = epoch_of(hi);
  return session;
}

LinkSession& LinkTable::install(PairEntry& entry, std::unique_ptr<LinkSession> session) {
  if (!entry.session) ++active_;
  entry.session = std::move(session);
  min_last_used_ = std::min(min_last_used_, entry.session->last_used);
  return *entry.session;
}

void LinkTable::drop(PairEntry& entry) {
  if (!entry.session) return;
  entry.session.reset();
  --active_;
}

LinkSession& LinkTable::session(NodeId a, NodeId b, std::uint64_t round) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  PairEntry& entry = pairs_[pair_key(lo, hi)];
  LinkSession* const cached = entry.session.get();
  if (cache_ && cached != nullptr && cached->epoch_lo == epoch_of(lo) &&
      cached->epoch_hi == epoch_of(hi)) {
    cached->last_used = round;
    min_last_used_ = std::min(min_last_used_, round);
    return *cached;
  }
  // Both endpoints of a deployed link would run a key agreement; the
  // simulator models the result: a per-establishment link secret known to
  // both (and only both) endpoints. The per-pair establishment counter
  // uniquifies re-established pairs (a rekeyed session never reuses a
  // keystream) while staying a pure function of the pair's history — two
  // independent tables seeded with the same master key agree on every key.
  auto fresh = make_session(lo, hi, '#', ++entry.establishments);
  if (!cache_) {
    transient_ = std::move(fresh);
    return *transient_;
  }
  fresh->last_used = round;
  return install(entry, std::move(fresh));
}

LinkSession& LinkTable::establish(NodeId a, NodeId b, std::uint64_t token) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  // The token-labelled secret is a pure function of (master, pair, token):
  // both endpoints of the handshake that produced `token` derive it
  // identically from their own tables. The session starts at last_used 0.
  return install(pairs_[pair_key(lo, hi)], make_session(lo, hi, '@', token));
}

void LinkTable::invalidate(NodeId node) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (node.value >= epochs_.size()) epochs_.resize(node.value + 1, 0);
  ++epochs_[node.value];
}

void LinkTable::invalidate_pair(NodeId a, NodeId b) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = pairs_.find(pair_key(lo, hi));
  if (it != pairs_.end()) drop(it->second);
  transient_.reset();
}

void LinkTable::invalidate_session(NodeId a, NodeId b, const LinkSession* expected) {
  const NodeId lo = a.value < b.value ? a : b;
  const NodeId hi = a.value < b.value ? b : a;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = pairs_.find(pair_key(lo, hi));
  if (it != pairs_.end() && it->second.session.get() == expected) drop(it->second);
}

void LinkTable::retire_idle(std::uint64_t round, std::uint64_t max_idle) {
  const std::lock_guard<std::mutex> lock(mu_);
  // A session retires when last_used + max_idle < round; none can while
  // the lower bound on last_used is that recent.
  if (round <= max_idle || min_last_used_ >= round - max_idle) return;
  const std::uint64_t oldest_kept = round - max_idle;
  std::uint64_t bound = std::numeric_limits<std::uint64_t>::max();
  // raptee-lint: allow(no-unordered-iteration) pure filter and a min; which sessions retire depends only on per-session round stamps, not visit order
  for (auto& [key, entry] : pairs_) {
    if (!entry.session) continue;
    if (entry.session->last_used < oldest_kept) {
      drop(entry);
    } else {
      bound = std::min(bound, entry.session->last_used);
    }
  }
  min_last_used_ = bound;
}

std::size_t LinkTable::active_sessions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

std::uint64_t LinkTable::derivations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return derivations_;
}

}  // namespace raptee::wire
