#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "metrics/json.hpp"

namespace perfbench {

bool percentile_supported(std::size_t n, double p, std::size_t min_beyond) {
  if (n == 0 || p < 0.0 || p > 100.0) return false;
  const double beyond = std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9);
  return beyond >= static_cast<double>(min_beyond);
}

std::optional<double> supported_percentile(std::span<const double> sorted, double p,
                                           std::size_t min_beyond) {
  if (!percentile_supported(sorted.size(), p, min_beyond)) return std::nullopt;
  return raptee::percentile_of_sorted(sorted, p);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return raptee::median_of(std::move(values));
}

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite value: " + name);
  if (!values_.emplace(name, Entry{value, unit}).second) {
    throw std::invalid_argument("duplicate metric: " + name);
  }
}

double MetricSet::value(const std::string& name) const { return values_.at(name).value; }

std::string MetricSet::json() const {
  raptee::metrics::JsonObject out;
  for (const auto& [name, entry] : values_) {
    out.field_raw(name, raptee::metrics::JsonObject()
                            .field("value", entry.value)
                            .field("unit", entry.unit)
                            .str());
  }
  return out.str();
}

HistCapture capture(const raptee::obs::Histogram& h) {
  HistCapture c;
  c.bounds.assign(h.bounds().begin(), h.bounds().end());
  c.counts.resize(h.bucket_count());
  for (std::size_t i = 0; i < c.counts.size(); ++i) c.counts[i] = h.bucket(i);
  c.count = h.count();
  c.sum = h.sum();
  return c;
}

HistCapture delta(const HistCapture& after, const HistCapture& before) {
  HistCapture d = after;
  if (before.counts.size() != after.counts.size()) return d;
  for (std::size_t i = 0; i < d.counts.size(); ++i) d.counts[i] -= before.counts[i];
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

double hist_percentile(const HistCapture& h, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : h.counts) total += c;
  if (total == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(h.counts[i]);
    if (in_bucket == 0.0) continue;
    const double lo = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
    if (i == h.bounds.size()) return lo;  // +Inf bucket: no upper edge
    if (seen + in_bucket >= rank) {
      const double hi = static_cast<double>(h.bounds[i]);
      return lo + (hi - lo) * std::clamp((rank - seen) / in_bucket, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return static_cast<double>(h.bounds.back());
}

}  // namespace perfbench
