// INode timing decorator: forwards every call to the wrapped node and
// times the protocol calls from outside, on the calling thread. Each
// decorator owns its counters and the engine touches a node from one
// thread at a time, so the counters need no synchronization; the caller
// sums them across nodes between rounds.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/node.hpp"

namespace perfbench {

/// Call groups, by the engine phase that makes them.
enum CallKind : std::size_t {
  kCallBeginRound = 0,
  kCallPushGen,      ///< push_targets + make_push
  kCallOnPush,
  kCallPullTargets,
  kCallExchange,     ///< the five legs, answers_pull and on_pull_timeout
  kCallEndRound,
  kCallKinds
};

struct CallStats {
  std::array<std::uint64_t, kCallKinds> ns{};
  std::array<std::uint64_t, kCallKinds> calls{};
  std::uint64_t exchanges = 0;  ///< open_pull calls: one per exchange

  void add(const CallStats& o) {
    for (std::size_t k = 0; k < kCallKinds; ++k) {
      ns[k] += o.ns[k];
      calls[k] += o.calls[k];
    }
    exchanges += o.exchanges;
  }
};

class TimedNode final : public raptee::sim::INode {
  // Times one call into the wrapped node (declared first: the forwarding
  // members below deduce their return types through it).
  template <typename Fn>
  decltype(auto) timed(CallKind kind, Fn&& fn) {
    using Clock = std::chrono::steady_clock;
    struct Span {
      CallStats& stats;
      CallKind kind;
      Clock::time_point start = Clock::now();
      ~Span() {
        stats.ns[kind] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                .count());
        ++stats.calls[kind];
      }
    } span{stats_, kind};
    return fn();
  }

 public:
  explicit TimedNode(std::unique_ptr<raptee::sim::INode> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] const CallStats& stats() const { return stats_; }

  [[nodiscard]] raptee::NodeId id() const override { return inner_->id(); }
  void bootstrap(const std::vector<raptee::NodeId>& peers) override {
    inner_->bootstrap(peers);
  }
  void begin_round(raptee::Round r) override {
    timed(kCallBeginRound, [&] { inner_->begin_round(r); });
  }
  [[nodiscard]] std::vector<raptee::NodeId> push_targets() override {
    return timed(kCallPushGen, [&] { return inner_->push_targets(); });
  }
  void push_targets(std::vector<raptee::NodeId>& out) override {
    timed(kCallPushGen, [&] { inner_->push_targets(out); });
  }
  [[nodiscard]] raptee::wire::PushMessage make_push() override {
    return timed(kCallPushGen, [&] { return inner_->make_push(); });
  }
  void on_push(const raptee::wire::PushMessage& push) override {
    timed(kCallOnPush, [&] { inner_->on_push(push); });
  }
  [[nodiscard]] std::vector<raptee::NodeId> pull_targets() override {
    return timed(kCallPullTargets, [&] { return inner_->pull_targets(); });
  }
  void pull_targets(std::vector<raptee::NodeId>& out) override {
    timed(kCallPullTargets, [&] { inner_->pull_targets(out); });
  }
  [[nodiscard]] bool answers_pull(raptee::NodeId requester) override {
    return timed(kCallExchange, [&] { return inner_->answers_pull(requester); });
  }
  [[nodiscard]] raptee::wire::PullRequest open_pull(raptee::NodeId target) override {
    ++stats_.exchanges;
    return timed(kCallExchange, [&] { return inner_->open_pull(target); });
  }
  [[nodiscard]] raptee::wire::PullReply answer_pull(
      const raptee::wire::PullRequest& request) override {
    return timed(kCallExchange, [&] { return inner_->answer_pull(request); });
  }
  [[nodiscard]] raptee::wire::AuthConfirm process_pull_reply(
      const raptee::wire::PullReply& reply) override {
    return timed(kCallExchange, [&] { return inner_->process_pull_reply(reply); });
  }
  [[nodiscard]] std::optional<raptee::wire::SwapReply> process_confirm(
      const raptee::wire::AuthConfirm& confirm) override {
    return timed(kCallExchange, [&] { return inner_->process_confirm(confirm); });
  }
  void process_swap_reply(const raptee::wire::SwapReply& reply) override {
    timed(kCallExchange, [&] { inner_->process_swap_reply(reply); });
  }
  void on_pull_timeout(raptee::NodeId target) override {
    timed(kCallExchange, [&] { inner_->on_pull_timeout(target); });
  }
  void end_round(raptee::Round r) override {
    timed(kCallEndRound, [&] { inner_->end_round(r); });
  }
  [[nodiscard]] std::vector<raptee::NodeId> current_view() const override {
    return inner_->current_view();
  }
  [[nodiscard]] std::size_t view_capacity() const override {
    return inner_->view_capacity();
  }
  std::size_t copy_view(raptee::NodeId* out, std::size_t cap) const override {
    return inner_->copy_view(out, cap);
  }

 private:
  std::unique_ptr<raptee::sim::INode> inner_;
  CallStats stats_;
};

}  // namespace perfbench
