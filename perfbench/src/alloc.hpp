// Process-wide allocation accounting: the benchmark binary replaces the
// global operator new/delete with a counting allocator (alloc.cpp), the
// same live-byte pattern bench/scale_nodes uses, so peak bytes per node
// and allocations per node-round are true allocator figures.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench::alloc {

struct Counts {
  std::size_t live = 0;         ///< bytes currently allocated (headers included)
  std::size_t peak = 0;         ///< high-water mark of `live` since rebase_peak()
  std::uint64_t calls = 0;      ///< allocations made so far
  std::uint64_t bytes = 0;      ///< bytes requested by those allocations
};

[[nodiscard]] Counts now();
/// Restarts the high-water mark at the current live byte count.
void rebase_peak();

}  // namespace perfbench::alloc
