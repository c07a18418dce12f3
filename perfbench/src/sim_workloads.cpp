// The simulation workload, raptee_sealed_wan: 2,000 nodes through the
// scenario::ScenarioSpec / Runner front door with 10 % Byzantine nodes
// (default balanced attack), 1 % trusted nodes, adaptive eviction, wire
// round-trip + sealed links with persistent sessions, event mode with the
// wan latency model, engine width 1, l1 = l2 = 40. The paper's headline
// configuration with sealed links.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "alloc.hpp"
#include "core/eviction.hpp"
#include "digest.hpp"
#include "obs/registry.hpp"
#include "scenario/results.hpp"
#include "scenario/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups timed before and again after the measured rounds; the reported
/// set-up time is the median of these and the measured passes' own. Taking
/// them at both ends of the run spreads them over the host's contention
/// phases as the rounds are. A set-up takes ~40 ms, so it is repeated often.
constexpr int kSetupsEachEnd = 20;

std::vector<double> wall_ms(const std::vector<RoundSample>& rounds) {
  std::vector<double> out;
  for (const auto& r : rounds) out.push_back(r.wall_ms);
  return out;
}

/// Traced minus untraced fastest round, in percent of the untraced one:
/// fastest rounds for the reason given at add_round_speed.
double overhead_pct(const std::vector<RoundSample>& plain,
                    const std::vector<RoundSample>& traced) {
  const auto fastest = [](const std::vector<RoundSample>& rounds) {
    const std::vector<double> ms = wall_ms(rounds);
    return *std::min_element(ms.begin(), ms.end());
  };
  return (fastest(traced) - fastest(plain)) / fastest(plain) * 100.0;
}

/// Node-round throughput from the per-round wall times.
/// The gated throughput_best_per_s comes from the fastest round: contention
/// from other tenants only ever adds time, and it comes in phases of tens of
/// seconds that slow every round by up to 1.6x, so the median says which
/// phase the run fell in while the fastest round tracks the program. The
/// median round and the throughput it implies go into the record.
void add_round_speed(const std::vector<double>& round_ms, std::size_t n,
                     RunResult& result) {
  const double p50 = median(round_ms);
  const double best_ms = *std::min_element(round_ms.begin(), round_ms.end());
  result.metrics.add("throughput_best_per_s", static_cast<double>(n) / (best_ms / 1e3),
                     "1/s");
  result.record.field("rounds_timed", round_ms.size())
      .field_raw("round_ms", raptee::metrics::json_series(round_ms))
      .field("round_ms_p50", p50)
      .field("node_rounds_per_s", static_cast<double>(n) / (p50 / 1e3));
}

void check_digest(const DigestTable& table, const char* workload, std::size_t rounds,
                  std::uint64_t input_set, const std::string& digest,
                  RunResult& result) {
  ++result.attempted;
  if (!table.matches(workload, rounds, input_set, digest)) {
    ++result.failed;
    result.correct = false;
    std::fprintf(stderr, "%s: digest %s does not match the record for input set %llu\n",
                 workload, digest.c_str(), static_cast<unsigned long long>(input_set));
  }
}

// --- raptee_sealed_wan --------------------------------------------------

constexpr const char* kSealed = "raptee_sealed_wan";
constexpr std::size_t kSealedN = 2'000;

raptee::scenario::ScenarioSpec sealed_spec(std::uint64_t sim_seed) {
  return raptee::scenario::ScenarioSpec()
      .population(kSealedN)
      .view_size(40)
      .adversary(0.10)
      .trusted(0.01)
      .eviction(raptee::core::EvictionSpec::adaptive())
      .wire_roundtrip(true)
      .encrypt_links(true)
      .link_sessions(true)
      .latency("wan")
      .threads(1)
      .rounds(kSealedRounds)
      .seed(sim_seed);
}

/// Ends a scenario run right after population build + bootstrap.
struct SetupDone {};

/// Times set-up and every round of a scenario run from outside the
/// engine; optionally aborts it once set-up is done.
class SealedObserver final : public raptee::scenario::IScenarioObserver {
 public:
  explicit SealedObserver(bool setup_only) : setup_only_(setup_only) {
    rounds.reserve(64);
  }

  void on_run_start(const raptee::metrics::ExperimentConfig&,
                    const raptee::sim::Engine& engine) override {
    setup_s = since_s(start);
    if (setup_only_) throw SetupDone{};
    mark(engine);
  }

  void on_round(const raptee::scenario::RoundSnapshot& snapshot,
                const raptee::sim::Engine& engine) override {
    RoundSample s;
    s.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - last_).count();
    const alloc::Counts a = alloc::now();
    s.allocs = a.calls - alloc_.calls;
    s.alloc_bytes = a.bytes - alloc_.bytes;
    for (std::size_t p = 0; p < 5; ++p) s.phase_ms[p] = snapshot.phase_ms[p];
    s.pulls_started = engine.counters().pulls_started - pulls_started_;
    s.pulls_completed = engine.counters().pulls_completed - pulls_completed_;
    rounds.push_back(s);
    // In event mode every push and every pull of a round is queued before
    // the drain starts, so this is the round's peak queue depth.
    max_events = std::max(max_events, engine.counters().pushes_sent - pushes_sent_ +
                                          s.pulls_started);
    mark(engine);
  }

  void on_run_end(const raptee::metrics::ExperimentResult&,
                  const raptee::sim::Engine& engine) override {
    link_derivations = engine.link_derivations();
    // Only exchange legs are serialized: four per completed exchange plus
    // the swap reply of a trusted pair.
    legs = 4 * engine.counters().pulls_completed + engine.counters().swaps_completed;
  }

  Clock::time_point start = Clock::now();
  double setup_s = 0.0;
  std::vector<RoundSample> rounds;
  std::uint64_t link_derivations = 0;
  std::uint64_t legs = 0;
  std::uint64_t max_events = 0;

 private:
  void mark(const raptee::sim::Engine& engine) {
    alloc_ = alloc::now();
    pulls_started_ = engine.counters().pulls_started;
    pulls_completed_ = engine.counters().pulls_completed;
    pushes_sent_ = engine.counters().pushes_sent;
    last_ = Clock::now();
  }

  bool setup_only_;
  Clock::time_point last_;
  alloc::Counts alloc_;
  std::uint64_t pulls_started_ = 0;
  std::uint64_t pulls_completed_ = 0;
  std::uint64_t pushes_sent_ = 0;
};

double sealed_setup_once(std::uint64_t sim_seed) {
  SealedObserver observer(true);
  try {
    (void)raptee::scenario::Runner(1).run(sealed_spec(sim_seed), &observer);
  } catch (const SetupDone&) {
    return observer.setup_s;
  }
  throw std::runtime_error("scenario ran to completion in a set-up-only pass");
}

struct SealedPass {
  SealedObserver observer{false};
  raptee::metrics::ExperimentResult result;
  std::string digest;
  double peak_bytes_per_node = 0.0;
};

void sealed_pass(std::uint64_t sim_seed, SealedPass& pass) {
  const std::size_t live_before = alloc::now().live;
  alloc::rebase_peak();
  pass.observer.start = Clock::now();
  pass.result = raptee::scenario::Runner(1).run(sealed_spec(sim_seed), &pass.observer);
  pass.peak_bytes_per_node = static_cast<double>(alloc::now().peak - live_before) /
                             static_cast<double>(kSealedN);
  pass.digest = text_digest(raptee::scenario::results::to_json(pass.result));
}

HistCapture evt_queue_depth() {
  return capture(raptee::obs::Registry::global().histogram("evt.queue_depth"));
}

}  // namespace

RunResult run_raptee_sealed_wan(const Options& options) {
  RunResult result;
  const DigestTable table = DigestTable::load(options.digests);
  const std::uint64_t input_set = input_set_of(options.seed);
  const std::uint64_t sim_seed = sim_seed_of(input_set);
  result.record.field("input_set", input_set);

  if (!options.trace) {
    std::vector<double> setups;
    const auto time_setups = [&] {
      for (int i = 0; i < kSetupsEachEnd; ++i) {
        setups.push_back(sealed_setup_once(sim_seed));
      }
    };
    time_setups();
    std::vector<double> round_ms, peaks;
    // Scenario runs repeat while another one fits in --seconds, so the run
    // does not overshoot by most of a scenario run.
    const auto t0 = Clock::now();
    raptee::metrics::ExperimentResult last;
    std::string digest;
    double longest_pass_s = 0.0;
    do {
      SealedPass pass;
      const auto pass_t0 = Clock::now();
      sealed_pass(sim_seed, pass);
      longest_pass_s = std::max(longest_pass_s, since_s(pass_t0));
      check_digest(table, kSealed, kSealedRounds, input_set, pass.digest, result);
      setups.push_back(pass.observer.setup_s);
      for (const auto& r : pass.observer.rounds) round_ms.push_back(r.wall_ms);
      peaks.push_back(pass.peak_bytes_per_node);
      last = pass.result;
      digest = pass.digest;
    } while (since_s(t0) + longest_pass_s <= options.seconds);
    time_setups();
    result.metrics.add("setup_s", median(setups), "s");
    add_round_speed(round_ms, kSealedN, result);
    result.metrics.add("peak_bytes_per_node", median(peaks), "B");
    result.record.field("digest", digest)
        .field("setups", setups.size())
        .field("pollution_honest", last.steady_pollution_honest)
        .field("wire_bytes_per_node_round",
               static_cast<double>(last.wire_bytes) /
                   static_cast<double>(kSealedN * kSealedRounds));
    return result;
  }

  SealedPass plain;
  sealed_pass(sim_seed, plain);
  check_digest(table, kSealed, kSealedRounds, input_set, plain.digest, result);
  const HistCapture depth_before = evt_queue_depth();
  SealedPass traced;
  sealed_pass(sim_seed, traced);
  check_digest(table, kSealed, kSealedRounds, input_set, traced.digest, result);
  const HistCapture depth = delta(evt_queue_depth(), depth_before);

  result.metrics.add("trace.overhead_pct",
                     overhead_pct(plain.observer.rounds, traced.observer.rounds), "%");
  result.metrics.add("sim.round_ms", median(wall_ms(plain.observer.rounds)), "ms");
  // Nodes built by the scenario layer cannot be decorated: the node layer
  // is probed on an honest population of the same size and view.
  const std::vector<RoundSample> node_rounds = node_probe(kSealedN, 40, sim_seed, 2);
  add_sim_metrics(traced.observer.rounds, node_rounds, result.metrics);
  add_node_metrics(node_rounds, result.metrics);
  add_alloc_metrics(traced.observer.rounds, kSealedN, result.metrics);

  MetricSet& m = result.metrics;
  OperatingPoint point;
  const std::uint64_t legs = std::max<std::uint64_t>(traced.observer.legs, 1);
  point.leg_bytes = static_cast<std::size_t>(traced.result.wire_bytes / legs);
  point.evt_depth = depth.count == 0 ? 0 : static_cast<std::size_t>(depth.sum / depth.count);
  add_layer_probes(point, m);
  m.add("wire.link_derivations", static_cast<double>(traced.observer.link_derivations),
        "count");
  m.add("evt.events_per_round", static_cast<double>(point.evt_depth), "count");
  m.add("evt.queue_depth_max", static_cast<double>(traced.observer.max_events), "count");
  add_service_probe(options.seed, m);
  result.record.field("digest", traced.digest).field("leg_bytes", point.leg_bytes);
  return result;
}

std::string record_digests() {
  DigestTable table;
  for (std::uint64_t set = 0; set < kInputSets; ++set) {
    SealedPass sealed;
    sealed_pass(sim_seed_of(set), sealed);
    table.set(kSealed, kSealedRounds, set, sealed.digest);
    std::fprintf(stderr, "input set %llu recorded\n", static_cast<unsigned long long>(set));
  }
  return table.str();
}

}  // namespace perfbench
