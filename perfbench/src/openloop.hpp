// Open-loop load generator for the rapteed service path.
//
// Requests are sent on a fixed, seeded Poisson schedule whether or not
// earlier replies have come back, so a stalled server faces a growing
// queue instead of a politely waiting client. Each request is timed from
// when it was DUE, not from when it was sent: a generator that falls
// behind charges the wait to the request, and its own lateness (send time
// minus due time) is reported separately.
//
// run_closed_loop is the saturation counterpart: the same clients, each
// keeping a fixed number of requests outstanding.
//
// One thread drives `connections` persistent client connections round
// robin, built on the public net:: client pieces (connect_loopback,
// encode_hello, append_frame/FrameSplitter, encode_sample_request /
// decode_sample_reply). When the window closes the generator stops
// sending and drains in-flight replies under a separate budget, so a
// request cut off by the window end is not a failure; only a reply that
// never arrives within the drain budget (or the per-request timeout) is.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Due offsets (nanoseconds from the window start) of a Poisson arrival
/// process at `rate_rps` over `window_ns`, drawn from `seed`. Same inputs,
/// same schedule.
[[nodiscard]] std::vector<std::uint64_t> poisson_schedule(double rate_rps,
                                                          std::uint64_t window_ns,
                                                          std::uint64_t seed);

/// Per-request bookkeeping of one open-loop window, independent of any
/// socket: the generator records events into it and the report is derived
/// from it alone, so the accounting rules can be tested without a server.
class OpenLoopTally {
 public:
  explicit OpenLoopTally(std::vector<std::uint64_t> due_ns);

  [[nodiscard]] std::size_t size() const { return due_.size(); }
  [[nodiscard]] std::uint64_t due(std::size_t i) const { return due_[i]; }
  /// Request `i` left the generator at `at_ns` (window clock).
  void sent(std::size_t i, std::uint64_t at_ns);
  /// A good reply for request `i` arrived at `at_ns`; false when `i` is not
  /// outstanding. A late reply to a timed-out request is ignored; any other
  /// reply to a request that is not outstanding is a stray.
  bool answered(std::size_t i, std::uint64_t at_ns);
  /// A reply for request `i` arrived at `at_ns` but is not acceptable
  /// (wrong sample count): the request fails, once. A stray when `i` is
  /// not outstanding.
  void rejected(std::size_t i, std::uint64_t at_ns);
  /// A reply that belongs to no request (undecodable, tag 0, broken frame).
  void stray() { ++stray_; }
  /// Whether request `i` was sent and is neither answered nor failed.
  [[nodiscard]] bool is_open(std::size_t i) const;
  /// Every sent, unanswered request older than `timeout_ns` at `now_ns`
  /// fails; returns how many did.
  std::size_t expire(std::uint64_t now_ns, std::uint64_t timeout_ns);
  /// Ends the run: every request still unanswered fails.
  void close();
  /// Samples the backlog at `now_ns`: requests due by then minus answers.
  void sample_backlog(std::uint64_t now_ns);

  [[nodiscard]] std::size_t outstanding() const { return sent_count_ - done_count_; }

  struct Report {
    std::uint64_t attempted = 0;  ///< scheduled requests
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;     ///< timeouts, never-answered, malformed replies
    std::uint64_t malformed = 0;  ///< failed requests whose reply was unacceptable
    std::uint64_t stray = 0;      ///< replies that belong to no outstanding request
    std::vector<double> latency_us;   ///< reply time - due time, ascending
    std::vector<double> lateness_us;  ///< send time - due time, ascending
    std::size_t inflight_max = 0;
    std::vector<std::uint64_t> backlog;  ///< samples of due - answered
    bool backlog_growing = false;
  };
  [[nodiscard]] Report report() const;

 private:
  std::vector<std::uint64_t> due_;
  std::vector<std::uint64_t> sent_at_;  ///< kUnset until sent
  std::vector<std::uint64_t> done_at_;  ///< kUnset until answered or failed
  std::vector<std::uint8_t> failed_flag_;
  std::size_t sent_count_ = 0;
  std::size_t done_count_ = 0;
  std::size_t failed_count_ = 0;
  std::size_t malformed_ = 0;
  std::size_t stray_ = 0;
  std::size_t inflight_max_ = 0;
  std::size_t oldest_open_ = 0;  ///< no request below this index is open
  std::vector<std::uint64_t> backlog_;
};

/// Whether a backlog series grows: the mean of its last quarter exceeds
/// twice the mean of its second quarter plus `slack` requests. A server
/// keeping up holds a flat, small backlog; one falling behind accumulates
/// work linearly, so the late quarter dwarfs the early one.
[[nodiscard]] bool backlog_growing(const std::vector<std::uint64_t>& samples,
                                   double slack = 16.0);

struct OpenLoopConfig {
  std::uint16_t port = 0;
  double rate_rps = 10'000.0;
  std::chrono::milliseconds window{1000};
  std::size_t connections = 4;
  std::uint16_t samples_per_request = 8;
  std::uint64_t seed = 1;
};

struct OpenLoopResult {
  OpenLoopTally::Report tally;
  double rate_rps = 0.0;
  double elapsed_s = 0.0;  ///< window start to the last answer or drain end
  /// Latency percentiles under the percentile rule (0 when unsupported).
  double p50_us = 0.0;
  double p99_us = 0.0;
  double late_p99_us = 0.0;
  [[nodiscard]] double failed_share() const {
    return tally.attempted == 0
               ? 0.0
               : static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  }
  /// The service-level objective of the rate ladder: p99 <= 1 ms (and
  /// supported), failed share <= 0.1 %, no growing backlog.
  [[nodiscard]] bool meets_slo() const;
};

/// Closed-loop saturation: each connection keeps `depth` requests
/// outstanding and sends the next one as soon as a reply arrives, so the
/// daemon never waits for work and the completion rate is its capacity.
struct ClosedLoopConfig {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  std::size_t depth = 16;  ///< requests kept outstanding per connection
  std::chrono::milliseconds window{1000};
  std::uint16_t samples_per_request = 8;
  std::uint64_t seed = 1;
};

struct ClosedLoopResult {
  std::uint64_t attempted = 0;  ///< requests sent
  std::uint64_t completed = 0;  ///< good replies, drain included
  std::uint64_t failed = 0;     ///< unacceptable replies + unanswered after the drain
  std::uint64_t stray = 0;      ///< replies that belong to no outstanding request
  /// Good replies that arrived inside the window, per second of window.
  double throughput_rps = 0.0;
};

/// Runs one closed-loop window and drains like run_open_loop. Throws
/// raptee::net::NetError when no connection can be set up.
[[nodiscard]] ClosedLoopResult run_closed_loop(const ClosedLoopConfig& config);

/// Connects `config.connections` clients (HELLO exchanged before the
/// window opens), runs one open-loop window and drains: after the window,
/// in-flight replies may arrive for another second, and a request
/// unanswered for a second fails. Throws
/// raptee::net::NetError when no connection can be set up.
[[nodiscard]] OpenLoopResult run_open_loop(const OpenLoopConfig& config);

}  // namespace perfbench
