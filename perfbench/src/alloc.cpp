#include "alloc.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

/// Every block carries this header just below the user pointer: what it
/// charged to g_live and how far back the underlying malloc block starts.
struct Header {
  std::size_t total;
  std::size_t pad;
};
constexpr std::size_t kHeader = sizeof(Header);
static_assert(kHeader == 16, "header keeps max_align_t alignment");

void* allocate(std::size_t size, std::size_t align) noexcept {
  const std::size_t pad = align > kHeader ? align : kHeader;
  std::size_t total = size + pad;
  void* base = nullptr;
  if (align > alignof(std::max_align_t)) {
    total = (total + align - 1) / align * align;  // aligned_alloc size requirement
    base = std::aligned_alloc(align, total);
  } else {
    base = std::malloc(total);
  }
  if (base == nullptr) return nullptr;
  auto* user = static_cast<std::byte*>(base) + pad;
  const Header header{total, pad};
  __builtin_memcpy(user - kHeader, &header, kHeader);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t live = g_live.fetch_add(total, std::memory_order_relaxed) + total;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return user;
}

void release(void* ptr) noexcept {
  if (ptr == nullptr) return;
  auto* user = static_cast<std::byte*>(ptr);
  Header header{};
  __builtin_memcpy(&header, user - kHeader, kHeader);
  g_live.fetch_sub(header.total, std::memory_order_relaxed);
  std::free(user - header.pad);
}

}  // namespace

Counts now() {
  return {g_live.load(std::memory_order_relaxed), g_peak.load(std::memory_order_relaxed),
          g_calls.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

void rebase_peak() { g_peak.store(g_live.load(std::memory_order_relaxed)); }

}  // namespace perfbench::alloc

namespace {

using perfbench::alloc::allocate;
using perfbench::alloc::release;

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return checked(allocate(n, kDefaultAlign)); }
void* operator new[](std::size_t n) { return checked(allocate(n, kDefaultAlign)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return checked(allocate(n, static_cast<std::size_t>(a)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked(allocate(n, static_cast<std::size_t>(a)));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
