#include "openloop.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/rng.hpp"
#include "net/bus.hpp"
#include "net/frame.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kUnset = std::numeric_limits<std::uint64_t>::max();
/// After the window: how long in-flight replies may still arrive.
constexpr std::uint64_t kDrainNs = 1'000'000'000;
/// A sent request unanswered for this long fails.
constexpr std::uint64_t kReplyTimeoutNs = 1'000'000'000;

}  // namespace

std::vector<std::uint64_t> poisson_schedule(double rate_rps, std::uint64_t window_ns,
                                            std::uint64_t seed) {
  std::vector<std::uint64_t> due;
  if (rate_rps <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate_rps * static_cast<double>(window_ns) * 1.1e-9) +
              16);
  raptee::Rng rng(raptee::mix64(seed, 0x6F70656E6C6F6F70ull));
  const double mean_gap_ns = 1e9 / rate_rps;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform01()) * mean_gap_ns;
    if (t >= static_cast<double>(window_ns)) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

OpenLoopTally::OpenLoopTally(std::vector<std::uint64_t> due_ns)
    : due_(std::move(due_ns)),
      sent_at_(due_.size(), kUnset),
      done_at_(due_.size(), kUnset),
      failed_flag_(due_.size(), 0) {
  backlog_.reserve(4096);  // 40 s of 10 ms samples: no growth inside a window
}

void OpenLoopTally::sent(std::size_t i, std::uint64_t at_ns) {
  sent_at_[i] = at_ns;
  ++sent_count_;
  inflight_max_ = std::max(inflight_max_, outstanding());
}

bool OpenLoopTally::is_open(std::size_t i) const {
  return i < due_.size() && sent_at_[i] != kUnset && done_at_[i] == kUnset;
}

bool OpenLoopTally::answered(std::size_t i, std::uint64_t at_ns) {
  if (i < due_.size() && failed_flag_[i]) return false;  // already failed: timed out
  if (!is_open(i)) {
    ++stray_;
    return false;
  }
  done_at_[i] = at_ns;
  ++done_count_;
  return true;
}

void OpenLoopTally::rejected(std::size_t i, std::uint64_t at_ns) {
  if (!is_open(i)) {
    if (i >= due_.size() || !failed_flag_[i]) ++stray_;
    return;
  }
  done_at_[i] = at_ns;
  failed_flag_[i] = 1;
  ++done_count_;
  ++failed_count_;
  ++malformed_;
}

std::size_t OpenLoopTally::expire(std::uint64_t now_ns, std::uint64_t timeout_ns) {
  std::size_t expired = 0;
  // Requests are sent in index order, so the open ones older than the
  // timeout form a prefix of the unanswered requests past oldest_open_.
  while (oldest_open_ < sent_count_) {
    const std::size_t i = oldest_open_;
    if (done_at_[i] == kUnset) {
      if (now_ns < sent_at_[i] || now_ns - sent_at_[i] < timeout_ns) break;
      done_at_[i] = now_ns;
      failed_flag_[i] = 1;
      ++done_count_;
      ++failed_count_;
      ++expired;
    }
    ++oldest_open_;
  }
  return expired;
}

void OpenLoopTally::close() {
  for (std::size_t i = 0; i < due_.size(); ++i) {
    if (done_at_[i] != kUnset) continue;
    done_at_[i] = 0;
    failed_flag_[i] = 1;
    ++failed_count_;
    if (sent_at_[i] != kUnset) ++done_count_;
  }
}

void OpenLoopTally::sample_backlog(std::uint64_t now_ns) {
  const auto due_by =
      static_cast<std::uint64_t>(std::upper_bound(due_.begin(), due_.end(), now_ns) -
                                 due_.begin());
  const std::uint64_t answered = done_count_;
  backlog_.push_back(due_by > answered ? due_by - answered : 0);
}

OpenLoopTally::Report OpenLoopTally::report() const {
  Report r;
  r.attempted = due_.size();
  r.failed = failed_count_;
  r.malformed = malformed_;
  r.stray = stray_;
  r.inflight_max = inflight_max_;
  r.backlog = backlog_;
  r.backlog_growing = backlog_growing(backlog_);
  r.latency_us.reserve(due_.size());
  r.lateness_us.reserve(due_.size());
  for (std::size_t i = 0; i < due_.size(); ++i) {
    if (sent_at_[i] != kUnset) {
      r.lateness_us.push_back(static_cast<double>(sent_at_[i] - due_[i]) / 1e3);
    }
    if (done_at_[i] == kUnset || failed_flag_[i]) continue;
    ++r.completed;
    r.latency_us.push_back(static_cast<double>(done_at_[i] - due_[i]) / 1e3);
  }
  std::sort(r.latency_us.begin(), r.latency_us.end());
  std::sort(r.lateness_us.begin(), r.lateness_us.end());
  return r;
}

bool backlog_growing(const std::vector<std::uint64_t>& samples, double slack) {
  const std::size_t q = samples.size() / 4;
  if (q == 0) return false;
  const auto mean = [&](std::size_t from, std::size_t to) {
    double sum = 0.0;
    for (std::size_t i = from; i < to; ++i) sum += static_cast<double>(samples[i]);
    return sum / static_cast<double>(to - from);
  };
  const double early = mean(q, 2 * q);
  const double late = mean(samples.size() - q, samples.size());
  return late > 2.0 * early + slack;
}

bool OpenLoopResult::meets_slo() const {
  const bool p99_ok =
      percentile_supported(tally.latency_us.size(), 99.0) && p99_us <= 1000.0;
  return p99_ok && failed_share() <= 0.001 && !tally.backlog_growing;
}

namespace {

using Clock = std::chrono::steady_clock;
namespace net = raptee::net;

struct Client {
  net::Fd fd;
  net::FrameSplitter splitter;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  bool broken = false;
};

bool wait_fd(int fd, short events, Clock::time_point deadline) {
  while (Clock::now() < deadline) {
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, 10);
    if (n > 0) return true;
  }
  return false;
}

/// Connect + HELLO both ways, blocking up to `deadline`.
std::optional<Client> open_client(std::uint16_t port, std::uint32_t index,
                                  std::uint64_t nonce, Clock::time_point deadline) {
  bool in_progress = false;
  Client c;
  c.fd = net::connect_loopback(port, &in_progress);
  if (!c.fd.valid()) return std::nullopt;
  if (in_progress) {
    if (!wait_fd(c.fd.get(), POLLOUT, deadline)) return std::nullopt;
    if (net::connect_result(c.fd.get()) != 0) return std::nullopt;
  }
  const std::vector<std::uint8_t> hello =
      net::encode_hello(raptee::NodeId{index}, net::PeerRole::kClient, nonce);
  std::vector<std::uint8_t> framed;
  net::append_frame(framed, hello.data(), hello.size());
  std::size_t off = 0;
  while (off < framed.size()) {
    const long n = net::write_some(c.fd.get(), framed.data() + off, framed.size() - off);
    if (n == -2) return std::nullopt;
    if (n == -1) {
      if (!wait_fd(c.fd.get(), POLLOUT, deadline)) return std::nullopt;
      continue;
    }
    off += static_cast<std::size_t>(n);
  }
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[512];
  while (true) {
    if (c.splitter.next(payload)) return c;  // the daemon's HELLO
    if (!wait_fd(c.fd.get(), POLLIN, deadline)) return std::nullopt;
    const long n = net::read_some(c.fd.get(), buf, sizeof buf);
    if (n == 0 || n == -2) return std::nullopt;
    if (n > 0) c.splitter.feed(buf, static_cast<std::size_t>(n));
  }
}

void flush(Client& c) {
  while (!c.broken && c.out_pos < c.out.size()) {
    const long n =
        net::write_some(c.fd.get(), c.out.data() + c.out_pos, c.out.size() - c.out_pos);
    if (n == -1) return;
    if (n == -2) {
      c.broken = true;
      return;
    }
    c.out_pos += static_cast<std::size_t>(n);
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
}

/// Connects `n` clients, HELLO exchanged, or throws NetError.
std::vector<Client> open_clients(std::uint16_t port, std::size_t n, std::uint64_t seed) {
  std::vector<Client> clients;
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    auto c = open_client(port, static_cast<std::uint32_t>(i), raptee::mix64(seed, i),
                         deadline);
    if (!c) throw net::NetError("load generator: connection setup failed");
    clients.push_back(std::move(*c));
  }
  return clients;
}

void queue_request(Client& c, std::uint64_t tag, std::uint16_t samples) {
  net::SampleRequest req;
  req.tag = tag;
  req.count = samples;
  const std::vector<std::uint8_t> body = net::encode_sample_request(req);
  net::append_frame(c.out, body.data(), body.size());
}

/// Waits up to `wait_ns` for any client to become readable (or writable,
/// when it has output queued); the readiness is left in `pfds`.
int wait_clients(const std::vector<Client>& clients, std::vector<pollfd>& pfds,
                 std::uint64_t wait_ns) {
  pfds.resize(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    pfds[i].fd = clients[i].broken ? -1 : clients[i].fd.get();
    pfds[i].events = static_cast<short>(POLLIN | (clients[i].out.empty() ? 0 : POLLOUT));
    pfds[i].revents = 0;
  }
  const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                    static_cast<long>(wait_ns % 1'000'000'000)};
  return ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
}

/// Reads what a ready client has and hands each reply to `on_reply(tag,
/// reply)`. Undecodable replies, tag 0 and a broken frame stream go to
/// `on_stray()`; a closed or broken connection is marked broken, and its
/// open requests are left to fail.
template <typename OnReply, typename OnStray>
void read_replies(Client& c, std::vector<std::uint8_t>& payload, OnReply&& on_reply,
                  OnStray&& on_stray) {
  std::uint8_t buf[16384];
  while (true) {
    const long n = net::read_some(c.fd.get(), buf, sizeof buf);
    if (n == -1) break;
    if (n == 0 || n == -2) {
      c.broken = true;
      break;
    }
    c.splitter.feed(buf, static_cast<std::size_t>(n));
  }
  try {
    while (c.splitter.next(payload)) {
      const auto reply = net::decode_sample_reply(payload.data(), payload.size());
      if (!reply || reply->tag == 0) {
        on_stray();
        continue;
      }
      on_reply(reply->tag, *reply);
    }
  } catch (const net::FrameError&) {
    on_stray();
    c.broken = true;
  }
}

}  // namespace

OpenLoopResult run_open_loop(const OpenLoopConfig& config) {
  // Sub-millisecond sleeps must not be stretched by the default 50 us
  // timer slack: lateness would be charged to every request.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const auto window_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(config.window).count());
  OpenLoopTally tally(poisson_schedule(config.rate_rps, window_ns, config.seed));

  std::vector<Client> clients = open_clients(config.port, config.connections, config.seed);
  std::vector<pollfd> pfds;
  std::vector<std::uint8_t> payload;

  const auto t0 = Clock::now() + std::chrono::microseconds(200);
  const auto clock_ns = [&] {
    const auto d = Clock::now() - t0;
    return d.count() < 0 ? std::uint64_t{0}
                         : static_cast<std::uint64_t>(
                               std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                                   .count());
  };
  constexpr std::uint64_t kBacklogPeriodNs = 10'000'000;
  std::uint64_t next_backlog = 0;
  std::size_t next = 0;
  std::uint64_t end_ns = 0;
  while (true) {
    std::uint64_t now = clock_ns();
    // Send everything due, round robin over the connections.
    while (next < tally.size() && tally.due(next) <= now) {
      queue_request(clients[next % clients.size()], next + 1, config.samples_per_request);
      tally.sent(next, now);
      ++next;
    }
    for (Client& c : clients) flush(c);
    if (now <= window_ns && now >= next_backlog) {
      tally.sample_backlog(now);
      next_backlog = now + kBacklogPeriodNs;
    }
    tally.expire(now, kReplyTimeoutNs);
    if (next == tally.size() && tally.outstanding() == 0) {
      end_ns = now;
      break;
    }
    if (now >= window_ns + kDrainNs) {
      end_ns = now;
      break;
    }

    // Wait for replies, but never past the next due time: spin when it is
    // close, sleep in ppoll otherwise.
    std::uint64_t wait_ns = 1'000'000;
    if (next < tally.size()) {
      const std::uint64_t due = tally.due(next);
      wait_ns = due > now ? due - now : 0;
    }
    wait_ns = wait_ns > 60'000 ? std::min<std::uint64_t>(wait_ns - 50'000, 1'000'000) : 0;
    if (wait_clients(clients, pfds, wait_ns) <= 0) continue;
    now = clock_ns();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      Client& c = clients[i];
      if (c.broken || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      read_replies(
          c, payload,
          [&](std::uint64_t tag, const net::SampleReply& reply) {
            const auto k = static_cast<std::size_t>(tag - 1);
            if (reply.samples.size() != config.samples_per_request) {
              tally.rejected(k, now);
            } else {
              tally.answered(k, now);
            }
          },
          [&] { tally.stray(); });
    }
  }
  tally.close();

  OpenLoopResult result;
  result.rate_rps = config.rate_rps;
  result.elapsed_s = static_cast<double>(end_ns) / 1e9;
  result.tally = tally.report();
  const auto& lat = result.tally.latency_us;
  result.p50_us = supported_percentile(lat, 50.0).value_or(0.0);
  result.p99_us = supported_percentile(lat, 99.0).value_or(0.0);
  result.late_p99_us = supported_percentile(result.tally.lateness_us, 99.0).value_or(0.0);
  return result;
}

ClosedLoopResult run_closed_loop(const ClosedLoopConfig& config) {
  const auto window_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(config.window).count());
  std::vector<Client> clients = open_clients(config.port, config.connections, config.seed);
  std::vector<pollfd> pfds;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> open;  ///< per request (tag - 1): still outstanding
  ClosedLoopResult result;
  std::uint64_t in_window = 0;
  std::size_t outstanding = 0;
  const auto send = [&](Client& c) {
    open.push_back(1);
    queue_request(c, open.size(), config.samples_per_request);
    ++outstanding;
  };
  for (Client& c : clients) {
    for (std::size_t k = 0; k < config.depth; ++k) send(c);
  }

  const auto t0 = Clock::now();
  const auto clock_ns = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  };
  while (outstanding > 0 && clock_ns() < window_ns + kDrainNs) {
    for (Client& c : clients) flush(c);
    if (wait_clients(clients, pfds, 1'000'000) <= 0) continue;
    const std::uint64_t now = clock_ns();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      Client& c = clients[i];
      if (c.broken || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      read_replies(
          c, payload,
          [&](std::uint64_t tag, const net::SampleReply& reply) {
            if (tag > open.size() || !open[tag - 1]) {
              ++result.stray;
              return;
            }
            open[tag - 1] = 0;
            --outstanding;
            if (reply.samples.size() != config.samples_per_request) {
              ++result.failed;
            } else {
              ++result.completed;
              if (now <= window_ns) ++in_window;
            }
            if (now < window_ns) send(c);
          },
          [&] { ++result.stray; });
    }
  }
  result.attempted = open.size();
  result.failed += outstanding;
  result.throughput_rps = static_cast<double>(in_window) / (static_cast<double>(window_ns) / 1e9);
  return result;
}

}  // namespace perfbench
