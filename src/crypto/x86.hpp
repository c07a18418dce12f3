// Shared by the SHA-NI and AES-NI code paths: whether this is an x86
// build, and unaligned 16-byte loads and stores. They go through memcpy,
// so no pointer is punned; each compiles to a single movdqu.
#pragma once

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define RAPTEE_CRYPTO_X86 1
#include <immintrin.h>

namespace raptee::crypto::x86 {

inline __m128i load128(const void* p) {
  __m128i v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store128(void* p, __m128i v) { std::memcpy(p, &v, sizeof v); }

}  // namespace raptee::crypto::x86
#else
#define RAPTEE_CRYPTO_X86 0
#endif
