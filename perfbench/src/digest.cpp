#include "digest.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace perfbench {

namespace {

void put_u64(raptee::crypto::Sha256& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(b, sizeof b);
}

}  // namespace

std::string engine_digest(raptee::sim::Engine& engine) {
  engine.refresh_views();
  raptee::crypto::Sha256 h;
  for (std::uint32_t i = 0; i < engine.size(); ++i) {
    const auto view = engine.view_of(raptee::NodeId{i});
    put_u64(h, view.size());
    for (const raptee::NodeId id : view) put_u64(h, id.value);
  }
  const auto& c = engine.counters();
  for (const std::uint64_t v :
       {c.pushes_sent, c.pushes_delivered, c.pulls_started, c.pulls_completed,
        c.pulls_timed_out, c.swaps_completed, c.legs_suppressed, c.legs_dropped,
        c.legs_tampered, c.legs_corrupted, c.wire_bytes, c.legs_late, c.partition_drops}) {
    put_u64(h, v);
  }
  return raptee::crypto::to_hex(h.finish());
}

std::string text_digest(const std::string& text) {
  return raptee::crypto::to_hex(raptee::crypto::sha256(text));
}

DigestTable DigestTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("digest table not readable: " + path);
  std::stringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

DigestTable DigestTable::parse(const std::string& text) {
  DigestTable table;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, hex, extra;
    std::uint64_t rounds = 0, input_set = 0;
    if (!(fields >> workload >> rounds >> input_set >> hex) || (fields >> extra) ||
        hex.size() != 64) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    table.set(workload, rounds, input_set, hex);
  }
  return table;
}

std::optional<std::string> DigestTable::find(const std::string& workload,
                                             std::uint64_t rounds,
                                             std::uint64_t input_set) const {
  const auto it = entries_.find({workload, rounds, input_set});
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void DigestTable::set(const std::string& workload, std::uint64_t rounds,
                      std::uint64_t input_set, const std::string& digest) {
  entries_[{workload, rounds, input_set}] = digest;
}

std::string DigestTable::str() const {
  std::string out =
      "# workload rounds input_set sha256 -- recorded by raptee_perfbench --record\n";
  for (const auto& [key, hex] : entries_) {
    out += std::get<0>(key) + " " + std::to_string(std::get<1>(key)) + " " +
           std::to_string(std::get<2>(key)) + " " + hex + "\n";
  }
  return out;
}

}  // namespace perfbench
