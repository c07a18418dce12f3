// The benchmark's workloads and the layer probes they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "timed_node.hpp"

namespace perfbench {

/// Rounds covered by the simulation's recorded digest (perfbench/digests.txt).
inline constexpr std::size_t kSealedRounds = 4;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;  ///< path of the recorded digest table
};

/// One run's outcome: the metrics of its mode plus the result line's counts,
/// and a free-form record of everything else it measured (sample counts,
/// the workload-specific figures, digests).
struct RunResult {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  raptee::metrics::JsonObject record;
};

RunResult run_raptee_sealed_wan(const Options& options);
RunResult run_service_open_loop(const Options& options);

/// Runs every input set of the simulation workload and returns the digest
/// table text (perfbench/digests.txt).
std::string record_digests();

// --- layer probes (probes.cpp) ---------------------------------------------

/// Where a workload runs, for probes that time public functions in
/// isolation: view sizes, the mean serialized leg, the event-queue depth.
struct OperatingPoint {
  std::size_t l1 = 40;
  std::size_t l2 = 40;
  std::size_t leg_bytes = 0;  ///< mean sealed leg size
  std::size_t evt_depth = 0;  ///< event-queue depth per round
};

/// crypto.*, auth.*, sampler.*, wire.seal_open_us, wire.codec_us and
/// evt.schedule_pop_ns at `point`.
void add_layer_probes(const OperatingPoint& point, MetricSet& out);

/// One traced round of an engine: wall time, engine phases, summed
/// decorator counters (when nodes are decorated), allocations, pulls.
struct RoundSample {
  double wall_ms = 0.0;

  std::array<double, 5> phase_ms{};
  CallStats calls;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t pulls_started = 0;
  std::uint64_t pulls_completed = 0;
};

/// sim.* from traced rounds of an engine; sim.self_ms is taken from
/// `node_rounds` (the decorated population) because only there is the time
/// inside INode calls known.
void add_sim_metrics(const std::vector<RoundSample>& rounds,
                     const std::vector<RoundSample>& node_rounds, MetricSet& out);
/// node.* from decorated rounds.
void add_node_metrics(const std::vector<RoundSample>& rounds, MetricSet& out);
/// alloc.* from traced rounds of an n-node population.
void add_alloc_metrics(const std::vector<RoundSample>& rounds, std::size_t n,
                       MetricSet& out);
/// An honest-only BrahmsNode population driven through sim::Engine
/// directly (as bench/scale_nodes does) with one engine worker, optionally
/// with every node wrapped in a TimedNode.
class HonestPopulation {
 public:
  /// Builds the nodes and bootstraps uniform views of size min(l, n - 1).
  HonestPopulation(std::size_t n, std::size_t l, std::uint64_t seed, bool decorate);
  /// One round, traced.
  RoundSample step();
  [[nodiscard]] raptee::sim::Engine& engine() { return engine_; }

 private:
  raptee::sim::Engine engine_;
  std::vector<const TimedNode*> timed_;
  CallStats calls_before_;
};

/// Steps a decorated honest population (round mode) and returns its
/// traced rounds: the node-layer probe for workloads whose nodes the
/// benchmark does not build itself.
std::vector<RoundSample> node_probe(std::size_t n, std::size_t l, std::uint64_t seed,
                                    std::size_t rounds);

/// service.*, bus.* and gen.* from a short open-loop burst against a fresh
/// daemon: the net-layer probe for the simulation workloads.
void add_service_probe(std::uint64_t seed, MetricSet& out);

}  // namespace perfbench
