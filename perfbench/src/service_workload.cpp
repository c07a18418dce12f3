// service_open_loop: an in-process net::ServiceDaemon on loopback
// (population 64, view 16, as bench/service_load) driven open loop by one
// generator thread over hardware-thread-many persistent connections, each
// request asking for 8 samples. Two fixed rates, `low` and `high`, plus a
// fixed rate ladder for the highest rate that meets the latency objective.
// The operator-facing path: bus event loop, framing, the sample codec and
// the snapshot mutex shared with the stepper thread — no crypto, a tiny
// engine, so the control for crypto and engine changes.
#include <algorithm>
#include <array>
#include <chrono>

#include "alloc.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "net/service.hpp"
#include "obs/registry.hpp"
#include "openloop.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace net = raptee::net;

constexpr std::size_t kPopulation = 64;
constexpr std::size_t kView = 16;
constexpr std::uint16_t kSamples = 8;
constexpr double kLowRps = 10'000.0;
constexpr double kHighRps = 40'000.0;
/// Rate ladder for the highest rate meeting the objective (req/s).
constexpr std::array<double, 8> kLadder = {20'000.0,  40'000.0,  60'000.0,  80'000.0,
                                           100'000.0, 120'000.0, 140'000.0, 160'000.0};
/// Daemon starts timed before and again after the measured load, so that
/// setup_s, their median, spans the host's contention phases as the load
/// does.
constexpr int kSetupsEachEnd = 10;
/// The high rate and the saturation load each run as this many slices,
/// alternating, so that the saturation slices span most of the run as the
/// rounds of a simulation do. The record carries medians over the slices.
constexpr int kSlices = 16;
/// Requests each connection keeps outstanding under saturation: enough that
/// the daemon's event loop always has a batch to work on.
constexpr std::size_t kSaturationDepth = 16;

net::DaemonConfig daemon_config(std::uint64_t seed) {
  net::DaemonConfig dc;
  dc.population = kPopulation;
  dc.view_size = kView;
  dc.seed = seed;
  return dc;
}

ClosedLoopResult saturation_slice(std::uint16_t port, double seconds, std::uint64_t seed) {
  ClosedLoopConfig c;
  c.port = port;
  c.connections = raptee::exec::hardware_threads();
  c.depth = kSaturationDepth;
  c.window = std::chrono::milliseconds(static_cast<long>(seconds * 1e3));
  c.samples_per_request = kSamples;
  c.seed = seed;
  return run_closed_loop(c);
}

OpenLoopResult slice(std::uint16_t port, double rate, double seconds, std::uint64_t seed) {
  OpenLoopConfig c;
  c.port = port;
  c.rate_rps = rate;
  c.window = std::chrono::milliseconds(static_cast<long>(seconds * 1e3));
  c.connections = raptee::exec::hardware_threads();
  c.samples_per_request = kSamples;
  c.seed = seed;
  return run_open_loop(c);
}

raptee::metrics::JsonObject slice_record(const OpenLoopResult& r) {
  return raptee::metrics::JsonObject()
      .field("rate_rps", r.rate_rps)
      .field("attempted", r.tally.attempted)
      .field("completed", r.tally.completed)
      .field("failed", r.tally.failed)
      .field("malformed", r.tally.malformed)
      .field("stray", r.tally.stray)
      .field("p50_us", r.p50_us)
      .field("p99_us", r.p99_us)
      .field("late_p99_us", r.late_p99_us)
      .field("inflight_max", r.tally.inflight_max)
      .field("backlog_growing", r.tally.backlog_growing)
      .field("meets_slo", r.meets_slo());
}

/// Every reply decoded, answered an outstanding request and carried the
/// requested number of samples.
bool replies_valid(const OpenLoopResult& r) {
  return r.tally.malformed == 0 && r.tally.stray == 0;
}

void account(const OpenLoopResult& r, RunResult& result) {
  result.attempted += r.tally.attempted;
  result.failed += r.tally.failed;
  if (!replies_valid(r)) result.correct = false;
}

/// Registry figures of the net layer and of the daemon's embedded engine.
struct RegistryCapture {
  HistCapture sample_us, dispatch_us, flush_us;
  std::array<HistCapture, 5> phase_us;
  std::uint64_t frames = 0, served = 0, rounds = 0, pulls_started = 0, pulls_completed = 0;

  static RegistryCapture now() {
    auto& reg = raptee::obs::Registry::global();
    static constexpr const char* kPhases[5] = {
        "engine.phase.begin_round_us", "engine.phase.push_gen_us",
        "engine.phase.push_deliver_us", "engine.phase.pulls_us",
        "engine.phase.end_round_us"};
    RegistryCapture c;
    c.sample_us = capture(reg.histogram("service.sample_us"));
    c.dispatch_us = capture(reg.histogram("bus.dispatch_us"));
    c.flush_us = capture(reg.histogram("bus.flush_us"));
    for (std::size_t p = 0; p < 5; ++p) c.phase_us[p] = capture(reg.histogram(kPhases[p]));
    c.frames = reg.counter("bus.frames_sent").value() + reg.counter("bus.frames_received").value();
    c.served = reg.counter("service.requests_served").value();
    c.rounds = reg.counter("engine.rounds").value();
    c.pulls_started = reg.counter("engine.pulls_started").value();
    c.pulls_completed = reg.counter("engine.pulls_completed").value();
    return c;
  }
};

void add_net_metrics(const RegistryCapture& before, const RegistryCapture& after,
                     const OpenLoopResult& load, MetricSet& out) {
  const HistCapture sample = delta(after.sample_us, before.sample_us);
  out.add("service.sample_us.p50", hist_percentile(sample, 50.0), "us");
  out.add("service.sample_us.p99", hist_percentile(sample, 99.0), "us");
  out.add("bus.dispatch_us.p99",
          hist_percentile(delta(after.dispatch_us, before.dispatch_us), 99.0), "us");
  out.add("bus.flush_us.p99", hist_percentile(delta(after.flush_us, before.flush_us), 99.0),
          "us");
  const std::uint64_t served = after.served - before.served;
  out.add("bus.frames_per_request",
          served == 0 ? 0.0
                      : static_cast<double>(after.frames - before.frames) /
                            static_cast<double>(served),
          "count");
  out.add("gen.p50_us", load.p50_us, "us");
  out.add("gen.p99_us", load.p99_us, "us");
  out.add("gen.late_us.p99", load.late_p99_us, "us");
  out.add("gen.inflight_max", static_cast<double>(load.tally.inflight_max), "count");
}

}  // namespace

void add_service_probe(std::uint64_t seed, MetricSet& out) {
  net::ServiceDaemon daemon(daemon_config(seed));
  const std::uint16_t port = daemon.start();
  const RegistryCapture before = RegistryCapture::now();
  const OpenLoopResult load = slice(port, kLowRps, 0.5, seed);
  const RegistryCapture after = RegistryCapture::now();
  daemon.stop();
  add_net_metrics(before, after, load, out);
}

RunResult run_service_open_loop(const Options& options) {
  RunResult result;
  std::vector<double> setups;
  const auto time_setups = [&] {
    for (int i = 0; i < kSetupsEachEnd; ++i) {
      net::ServiceDaemon daemon(daemon_config(options.seed));
      const auto t0 = Clock::now();
      (void)daemon.start();
      setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
      daemon.stop();
    }
  };
  time_setups();

  // Memory: the allocator peak while the daemon builds and warms up its
  // population. (Buffer growth under load tracks scheduler stalls of the
  // host more than the service, so it is not part of the gated figure.)
  const std::size_t live_before = alloc::now().live;
  alloc::rebase_peak();
  net::ServiceDaemon daemon(daemon_config(options.seed));
  const auto t0 = Clock::now();
  const std::uint16_t port = daemon.start();
  setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  const std::size_t start_peak = alloc::now().peak - live_before;
  // Warm the connections, caches and the daemon's buffers before timing.
  (void)slice(port, kLowRps, 0.3, options.seed ^ 0x5741524Dull);

  const double s = options.seconds;
  if (!options.trace) {
    const OpenLoopResult low = slice(port, kLowRps, 0.1 * s, options.seed);
    account(low, result);
    std::vector<double> high_p50, high_p99, high_completed_per_s, saturated_rps;
    raptee::metrics::JsonArray high_slices;
    const double slice_s = 0.7 * s / (2 * kSlices);
    for (int i = 0; i < kSlices; ++i) {
      const OpenLoopResult high =
          slice(port, kHighRps, slice_s, raptee::mix64(options.seed, 1 + i));
      account(high, result);
      high_p50.push_back(high.p50_us);
      high_p99.push_back(high.p99_us);
      high_completed_per_s.push_back(static_cast<double>(high.tally.completed) /
                                     high.elapsed_s);
      high_slices.item_raw(slice_record(high).str());
      const ClosedLoopResult sat =
          saturation_slice(port, slice_s, raptee::mix64(options.seed, 50 + i));
      result.attempted += sat.attempted;
      result.failed += sat.failed;
      if (sat.stray != 0) result.correct = false;
      saturated_rps.push_back(sat.throughput_rps);
    }
    raptee::metrics::JsonArray ladder;
    double max_rate = 0.0;
    for (std::size_t i = 0; i < kLadder.size(); ++i) {
      const OpenLoopResult rung =
          slice(port, kLadder[i], 0.2 * s / static_cast<double>(kLadder.size()),
                raptee::mix64(options.seed, 100 + i));
      ladder.item_raw(slice_record(rung).str());
      if (!replies_valid(rung)) result.correct = false;
      if (!rung.meets_slo()) break;  // rungs above a failed one are past capacity
      max_rate = kLadder[i];
    }
    daemon.stop();
    time_setups();

    result.metrics.add("setup_s", median(setups), "s");
    result.metrics.add("throughput_best_per_s",
                       *std::max_element(saturated_rps.begin(), saturated_rps.end()), "1/s");
    result.metrics.add(
        "peak_bytes_per_node",
        static_cast<double>(start_peak) / static_cast<double>(kPopulation),
        "B");
    const double attempted = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
    result.record.field("completed_per_s.high", median(high_completed_per_s))
        .field("p50_us.low", low.p50_us)
        .field("p99_us.low", low.p99_us)
        .field("p50_us.high", median(high_p50))
        .field("p99_us.high", median(high_p99))
        .field("max_rate_rps", max_rate)
        .field("saturated_rps_p50", median(saturated_rps))
        .field_raw("saturated_rps", raptee::metrics::json_series(saturated_rps))
        .field("failed_share", static_cast<double>(result.failed) / attempted)
        .field("setups", setups.size())
        .field_raw("low", slice_record(low).str())
        .field_raw("high", high_slices.str())
        .field_raw("ladder", ladder.str());
    return result;
  }

  // Traced: the high rate between registry captures. The registry
  // histograms are always on in src/net and the captures fall outside the
  // window, so the traced slice runs exactly the code of an untraced one:
  // the service has no trace-only instrumentation and no tracing overhead.
  const RegistryCapture before = RegistryCapture::now();
  const OpenLoopResult traced =
      slice(port, kHighRps, 0.5 * s, raptee::mix64(options.seed, 1));
  const RegistryCapture after = RegistryCapture::now();
  daemon.stop();
  account(traced, result);
  MetricSet& m = result.metrics;
  m.add("trace.overhead_pct", 0.0, "%");
  add_net_metrics(before, after, traced, m);

  // sim.*: the daemon's embedded engine, from its phase histograms.
  static constexpr const char* kPhaseNames[5] = {
      "sim.begin_round_ms", "sim.push_gen_ms", "sim.push_deliver_ms", "sim.pulls_ms",
      "sim.end_round_ms"};
  double round_ms = 0.0;
  for (std::size_t p = 0; p < 5; ++p) {
    const HistCapture h = delta(after.phase_us[p], before.phase_us[p]);
    const double phase_ms =
        h.count == 0 ? 0.0 : static_cast<double>(h.sum) / static_cast<double>(h.count) / 1e3;
    m.add(kPhaseNames[p], phase_ms, "ms");
    round_ms += phase_ms;
  }
  m.add("sim.round_ms", round_ms, "ms");
  const std::uint64_t rounds = std::max<std::uint64_t>(after.rounds - before.rounds, 1);
  const std::uint64_t started = after.pulls_started - before.pulls_started;
  m.add("sim.exchanges_per_round", static_cast<double>(started) / static_cast<double>(rounds),
        "count");
  m.add("sim.pull_success_ratio",
        started == 0 ? 0.0
                     : static_cast<double>(after.pulls_completed - before.pulls_completed) /
                           static_cast<double>(started),
        "ratio");
  // node.*, sim.self_ms and alloc.*: a decorated population shaped like the
  // embedded one (the daemon builds its nodes itself).
  const std::vector<RoundSample> node_rounds = node_probe(kPopulation, kView, options.seed, 20);
  {
    MetricSet probe_sim;
    add_sim_metrics(node_rounds, node_rounds, probe_sim);
    m.add("sim.self_ms", probe_sim.value("sim.self_ms"), "ms");
  }
  add_node_metrics(node_rounds, m);
  add_alloc_metrics(node_rounds, kPopulation, m);

  OperatingPoint point;
  point.l1 = kView;
  point.l2 = kView;
  net::SampleReply reply;
  reply.samples.resize(kSamples);
  point.leg_bytes = net::encode_sample_reply(reply).size();
  std::uint64_t legs = 0;
  for (const auto& r : node_rounds) legs += r.calls.calls[kCallOnPush] + r.pulls_started;
  point.evt_depth = legs / node_rounds.size();
  add_layer_probes(point, m);
  m.add("wire.link_derivations", 0.0, "count");
  m.add("evt.events_per_round", 0.0, "count");
  m.add("evt.queue_depth_max", 0.0, "count");
  result.record.field("setups", setups.size())
      .field_raw("traced", slice_record(traced).str());
  return result;
}

}  // namespace perfbench
