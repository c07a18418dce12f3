// Correctness digests of the simulation workloads.
//
// A simulation run is correct when it reproduces, byte for byte, the
// result recorded for its input set when the benchmark landed
// (perfbench/digests.txt). A speedup that changes result bytes is a bug,
// so a mismatch fails the run. --seed selects one of
// kInputSets recorded input sets (seed mod kInputSets); every input set
// has its own simulation seed and its own recorded digest.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "sim/engine.hpp"

namespace perfbench {

inline constexpr std::uint64_t kInputSets = 16;

[[nodiscard]] inline std::uint64_t input_set_of(std::uint64_t seed) {
  return seed % kInputSets;
}
/// The simulation seed of an input set.
[[nodiscard]] inline std::uint64_t sim_seed_of(std::uint64_t input_set) {
  return 1 + input_set;
}

/// SHA-256 (hex) over every node's final view (Engine::view_of, after a
/// refresh) followed by every Engine::Counters field, little-endian.
[[nodiscard]] std::string engine_digest(raptee::sim::Engine& engine);
/// SHA-256 (hex) of a document (the scenario result JSON).
[[nodiscard]] std::string text_digest(const std::string& text);

/// The recorded digests: one line per (workload, rounds, input set),
/// "<workload> <rounds> <input_set> <hex>"; '#' starts a comment line.
class DigestTable {
 public:
  /// Throws std::runtime_error when the file is missing or malformed.
  [[nodiscard]] static DigestTable load(const std::string& path);
  /// Parses the text of a table file (same format and errors as load).
  [[nodiscard]] static DigestTable parse(const std::string& text);

  [[nodiscard]] std::optional<std::string> find(const std::string& workload,
                                                std::uint64_t rounds,
                                                std::uint64_t input_set) const;
  /// True only when a digest is recorded for the key and equals `digest`.
  [[nodiscard]] bool matches(const std::string& workload, std::uint64_t rounds,
                             std::uint64_t input_set, const std::string& digest) const {
    const auto want = find(workload, rounds, input_set);
    return want && *want == digest;
  }
  void set(const std::string& workload, std::uint64_t rounds, std::uint64_t input_set,
           const std::string& digest);
  [[nodiscard]] std::string str() const;

 private:
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, std::string> entries_;
};

}  // namespace perfbench
