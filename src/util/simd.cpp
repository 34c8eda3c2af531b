#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace bkc::simd {

namespace {

// Depth of nested ScopedForceScalar regions. Acquire/release so a force
// established before a parallel_for fan-out is visible to the workers
// (which additionally synchronize through the pool's run barrier).
std::atomic<int> g_force_scalar_depth{0};

// Unused (but kept compiled) under BKC_DISABLE_SIMD: scalar_forced()
// short-circuits to true there.
[[maybe_unused]] bool env_force_scalar() {
  // Read once: the override is a process-level knob, not something that
  // toggles mid-run (tests use ScopedForceScalar for that).
  static const bool forced = [] {
    const char* value = std::getenv("BKC_FORCE_SCALAR");
    return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
  }();
  return forced;
}

}  // namespace

bool cpu_supports_avx2() {
#if defined(BKC_DISABLE_SIMD)
  return false;
#elif (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

bool scalar_forced() {
#if defined(BKC_DISABLE_SIMD)
  // No fast path exists in this build; the env and scoped overrides are
  // vacuously honored.
  return true;
#else
  return env_force_scalar() ||
         g_force_scalar_depth.load(std::memory_order_acquire) > 0;
#endif
}

ScopedForceScalar::ScopedForceScalar() {
  g_force_scalar_depth.fetch_add(1, std::memory_order_acq_rel);
}

ScopedForceScalar::~ScopedForceScalar() {
  g_force_scalar_depth.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace bkc::simd
