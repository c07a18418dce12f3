#include "brahms/node.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace raptee::brahms {

BrahmsNode::BrahmsNode(NodeId self, BrahmsConfig config,
                       std::unique_ptr<IAuthenticator> auth, Rng rng,
                       std::function<bool(NodeId)> alive_probe)
    : self_(self),
      config_(config),
      auth_(std::move(auth)),
      rng_(rng),
      alive_probe_(std::move(alive_probe)),
      view_(config.params.l1),
      samplers_(config.params.l2, rng_) {
  config_.params.validate();
  RAPTEE_REQUIRE(auth_ != nullptr, "BrahmsNode requires an authenticator");
}

void BrahmsNode::bootstrap(const std::vector<NodeId>& initial_peers) {
  view_.clear();
  for (NodeId peer : initial_peers) {
    if (view_.full()) break;
    if (peer != self_ && peer.valid()) view_.insert(peer, 0);  // drops duplicates
  }
  // The bootstrap handout also primes the samplers: a joining node treats
  // it as its first received ID stream.
  samplers_.feed_all(view_.ids());
}

void BrahmsNode::begin_round(Round /*r*/) {
  pushed_.clear();
  raw_push_count_ = 0;
  pulled_.clear();
  initiator_slot_ = {};
  responder_slot_ = {};
  telemetry_ = {};
  view_.age_all();
}

std::vector<NodeId> BrahmsNode::push_targets() {
  std::vector<NodeId> targets;
  push_targets(targets);
  return targets;
}

void BrahmsNode::push_targets(std::vector<NodeId>& out) {
  out.clear();
  if (view_.empty()) return;
  const std::size_t fanout = config_.params.push_slice();
  out.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) out.push_back(view_.pick_id(rng_));
}

wire::PushMessage BrahmsNode::make_push() { return wire::PushMessage{self_}; }

void BrahmsNode::on_push(const wire::PushMessage& push) {
  ++raw_push_count_;
  if (push.sender.valid() && push.sender != self_) pushed_.push_back(push.sender);
}

std::vector<NodeId> BrahmsNode::pull_targets() {
  std::vector<NodeId> targets;
  pull_targets(targets);
  return targets;
}

void BrahmsNode::pull_targets(std::vector<NodeId>& out) {
  out.clear();
  if (view_.empty()) return;
  const std::size_t fanout = config_.params.pull_slice();
  out.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) out.push_back(view_.pick_id(rng_));
}

wire::PullRequest BrahmsNode::open_pull(NodeId target) {
  RAPTEE_ASSERT_MSG(!initiator_slot_.active, "overlapping initiator exchanges");
  initiator_slot_.active = true;
  initiator_slot_.target = target;
  initiator_slot_.challenge = auth_->make_challenge();
  return wire::PullRequest{self_, initiator_slot_.challenge};
}

wire::PullReply BrahmsNode::answer_pull(const wire::PullRequest& request) {
  responder_slot_.active = true;
  responder_slot_.peer = request.sender;
  responder_slot_.challenge = request.challenge;
  responder_slot_.response = auth_->make_response(request.challenge);
  ++telemetry_.pulls_answered;
  // Pull answers carry the full current view (paper §III-A).
  return wire::PullReply{self_, responder_slot_.response, view_.ids()};
}

wire::AuthConfirm BrahmsNode::process_pull_reply(const wire::PullReply& reply) {
  RAPTEE_ASSERT_MSG(initiator_slot_.active, "pull reply without open exchange");
  initiator_slot_.active = false;

  wire::AuthConfirm confirm;
  confirm.sender = self_;
  const bool trusted =
      auth_->verify_response(initiator_slot_.challenge, reply.auth, &confirm.confirm);

  PullRecord record;
  record.peer = reply.sender;
  record.trusted = trusted;
  record.ids = reply.view;
  pulled_.push_back(std::move(record));
  ++telemetry_.pulls_completed;
  telemetry_.pulled_ids_total += reply.view.size();

  if (trusted) {
    ++telemetry_.trusted_exchanges;
    confirm.swap_offer = make_swap_offer(reply.sender);
  }
  return confirm;
}

std::optional<wire::SwapReply> BrahmsNode::process_confirm(
    const wire::AuthConfirm& confirm) {
  if (!responder_slot_.active) return std::nullopt;  // stray confirm: ignore
  responder_slot_.active = false;
  const bool initiator_trusted = auth_->verify_confirm(
      responder_slot_.challenge, responder_slot_.response, confirm.confirm);
  if (!initiator_trusted || !confirm.swap_offer) return std::nullopt;
  auto half = accept_swap_offer(confirm.sender, *confirm.swap_offer);
  if (!half) return std::nullopt;
  return wire::SwapReply{self_, std::move(*half)};
}

void BrahmsNode::process_swap_reply(const wire::SwapReply& reply) {
  integrate_swap_reply(reply.sender, reply.swap_half);
}

void BrahmsNode::on_pull_timeout(NodeId /*target*/) {
  // Brahms keeps unresponsive entries (the history sample washes them out);
  // the initiator slot is simply abandoned.
  initiator_slot_ = {};
}

std::optional<std::vector<NodeId>> BrahmsNode::make_swap_offer(NodeId /*peer*/) {
  return std::nullopt;
}

std::optional<std::vector<NodeId>> BrahmsNode::accept_swap_offer(
    NodeId /*peer*/, const std::vector<NodeId>& /*offer*/) {
  return std::nullopt;
}

void BrahmsNode::integrate_swap_reply(NodeId /*peer*/,
                                      const std::vector<NodeId>& /*half*/) {}

void BrahmsNode::process_pulled(const std::vector<PullRecord>& records,
                                PulledContribution& out) {
  for (const auto& r : records) {
    out.sampler_ids.insert(out.sampler_ids.end(), r.ids.begin(), r.ids.end());
    // Plain Brahms draws no trusted/untrusted distinction and caps nothing.
    out.renewal_untrusted.insert(out.renewal_untrusted.end(), r.ids.begin(), r.ids.end());
  }
}

void BrahmsNode::end_round(Round r) {
  telemetry_.pushes_received = raw_push_count_;

  // Eviction hook (RAPTEE) decides which pulled IDs survive and how much of
  // the β·l1 slice untrusted sources may fill.
  thread_local PulledContribution pulled;
  pulled.clear();
  process_pulled(pulled_, pulled);
  telemetry_.pulled_ids_kept =
      pulled.renewal_trusted.size() + pulled.renewal_untrusted.size();

  // Sampling component: the (filtered) received stream feeds every sampler,
  // independently of the blocking defence — min-wise sampling is unbiased
  // by construction, so it never needs to block. A sampler keeps the
  // minimum-hash ID of its stream, which neither duplicates nor order
  // change, so both streams go in raw, one batch each: a dedup pass costs
  // more than the hashes it would save. on_push already dropped self and
  // invalid senders; pull answers may carry either.
  samplers_.feed_all(pushed_);
  std::erase_if(pulled.sampler_ids, [&](NodeId id) { return id == self_ || !id.valid(); });
  samplers_.feed_all(pulled.sampler_ids);

  if (config_.sampler_validation_period != 0 && alive_probe_ &&
      r % config_.sampler_validation_period == 0) {
    samplers_.validate(alive_probe_, rng_);
  }

  // Defence (ii): skip the view update entirely when flooded, or when
  // either contribution stream is empty (Brahms' update rule).
  const bool flooded = raw_push_count_ > config_.params.push_slice();
  const bool starved = pushed_.empty() || pulled_.empty();
  telemetry_.update_blocked = flooded || starved;
  if (!telemetry_.update_blocked) {
    renew_view(pulled);
    after_view_update();
  }
}

void BrahmsNode::renew_view(const PulledContribution& pulled) {
  const Params& p = config_.params;

  // Per-thread scratch: every buffer keeps its capacity across rounds and
  // nodes, so a warmed-up renewal allocates nothing and no node carries
  // the buffers in its own footprint.
  struct Tagged {
    NodeId id;
    bool untrusted;
  };
  struct Scratch {
    std::vector<NodeId> next, stream, history;
    std::vector<Tagged> tagged;
    std::vector<std::size_t> picks;
    std::vector<gossip::ViewEntry> previous;
  };
  thread_local Scratch scratch;
  std::vector<NodeId>& next = scratch.next;
  next.clear();
  next.reserve(p.l1);
  // `next` holds at most l1 IDs: a linear scan beats a hash set here.
  const auto take = [&](NodeId id) {
    if (std::find(next.begin(), next.end(), id) != next.end()) return false;
    next.push_back(id);
    return true;
  };

  // rand(stream, k): sample k entries from the raw ID stream *with its
  // multiplicities* (shuffle and walk, skipping duplicates already chosen).
  // Deduplicating first would erase exactly the over-representation the
  // Brahms analysis reasons about — the adversary's pull answers repeat its
  // member IDs massively, and the defence quantifies, not erases, that bias.
  {
    std::vector<NodeId>& stream = scratch.stream;
    stream.assign(pushed_.begin(), pushed_.end());
    rng_.shuffle(stream);
    const std::size_t want = p.push_slice();
    std::size_t added = 0;
    for (NodeId id : stream) {
      if (added >= want || next.size() >= p.l1) break;
      if (id == self_ || !id.valid()) continue;
      if (take(id)) ++added;
    }
  }

  // β·l1 pulled slice: one joint stream of (id, untrusted?) entries,
  // shuffled together so trusted sources get no artificial priority; the
  // eviction cap bounds how many slots untrusted entries may take.
  {
    const std::size_t quota = p.pull_slice();
    const auto untrusted_cap = static_cast<std::size_t>(
        std::lround(pulled.untrusted_slice_cap * static_cast<double>(quota)));
    std::vector<Tagged>& stream = scratch.tagged;
    stream.clear();
    for (NodeId id : pulled.renewal_trusted) stream.push_back({id, false});
    for (NodeId id : pulled.renewal_untrusted) stream.push_back({id, true});
    rng_.shuffle(stream);
    std::size_t added = 0, untrusted_added = 0;
    for (const Tagged& t : stream) {
      if (added >= quota || next.size() >= p.l1) break;
      if (t.id == self_ || !t.id.valid()) continue;
      if (t.untrusted && untrusted_added >= untrusted_cap) continue;
      if (take(t.id)) {
        ++added;
        if (t.untrusted) ++untrusted_added;
      }
    }
  }

  // History slice: the same draws as SamplerArray::history_sample.
  samplers_.sample_list_into(scratch.history);
  scratch.picks.reserve(samplers_.size());  // a short list yields all its l2 indices
  rng_.sample_indices_into(scratch.history.size(), p.history_slice(), scratch.picks);
  for (std::size_t i : scratch.picks) {
    if (next.size() >= p.l1) break;
    const NodeId id = scratch.history[i];
    if (id != self_) take(id);
  }

  // Shortfall rule (design decision D3): keep previous entries, freshest
  // first, until the view is full again.
  std::vector<gossip::ViewEntry>& previous = scratch.previous;
  previous.assign(view_.entries().begin(), view_.entries().end());
  std::sort(previous.begin(), previous.end(),
            [](const gossip::ViewEntry& a, const gossip::ViewEntry& b) {
              return a.age < b.age;
            });

  view_.clear();
  for (NodeId id : next) view_.insert(id, 0);
  for (const auto& entry : previous) {
    if (view_.full()) break;
    view_.insert(entry.id, entry.age);
  }
}

}  // namespace raptee::brahms
