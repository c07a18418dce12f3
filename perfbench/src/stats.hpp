// Reporting helpers shared by every workload: the percentile rule, the
// metric sink whose JSON run.py turns into the result line,
// and percentiles read back from obs::Registry histogram deltas.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides the figure.
inline constexpr std::size_t kMinBeyond = 10;

/// Whether percentile `p` of `n` samples has at least `min_beyond` samples
/// strictly above its rank.
[[nodiscard]] bool percentile_supported(std::size_t n, double p,
                                        std::size_t min_beyond = kMinBeyond);

/// Percentile `p` of an ascending-sorted sample, or nullopt when the rule
/// above does not support it. The median needs the same support: with
/// fewer than 2 * min_beyond samples there is no median either.
[[nodiscard]] std::optional<double> supported_percentile(
    std::span<const double> sorted, double p, std::size_t min_beyond = kMinBeyond);

/// Plain median (no support rule): used for per-run medians of a handful of
/// set-ups or rounds, where the sample count is reported next to it.
[[nodiscard]] double median(std::vector<double> values);

/// Named metrics of one run, emitted as {"name": {"value": v, "unit": u}}.
/// Rejects duplicate names and non-finite values at insertion (a
/// programming error). Names and units are checked by run.py.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// Bucket counts of one registry histogram, captured so two captures can
/// be subtracted (the registry is process-wide and cumulative).
struct HistCapture {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1, last is +Inf
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

[[nodiscard]] HistCapture capture(const raptee::obs::Histogram& h);
/// `after` minus `before`, bucket by bucket.
[[nodiscard]] HistCapture delta(const HistCapture& after, const HistCapture& before);
/// Percentile `p` of a captured histogram, interpolated linearly inside the
/// bucket holding that rank (bucket i spans (bound[i-1], bound[i]]). 0 when
/// empty; the +Inf bucket reports its lower bound.
[[nodiscard]] double hist_percentile(const HistCapture& h, double p);

}  // namespace perfbench
