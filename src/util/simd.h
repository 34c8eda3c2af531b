#pragma once
// Runtime control of the fast-path kernel dispatch.
//
// Every vectorized hot path in bkc (the AVX2 xnor+popcount convolution
// kernels in bnn/bconv_kernels.h together with the basic block's fused
// batch norm / residual / RPReLU epilogue they apply, and the AVX2 int8
// stem and classifier kernels in bnn/int8_kernels.h) is contractually
// bit-identical to its scalar reference, so *which* implementation runs
// is purely a performance choice. This header owns that choice:
//
//   * `cpu_supports_avx2()` - runtime ISA detection (cached cpuid).
//   * `scalar_forced()` - true when every fast path must yield to its
//     scalar reference. Forced when the build disabled SIMD
//     (-DBKC_DISABLE_SIMD=ON), when the environment variable
//     BKC_FORCE_SCALAR is set to anything but "0" (read once, at first
//     query), or inside a ScopedForceScalar region.
//
// The dispatch decision itself lives next to each kernel family (e.g.
// bnn::active_conv_kernel(), or the one branch in each int8 layer's
// forward_into); this layer only answers "may a fast path run at all"
// and "what does the hardware offer".

namespace bkc::simd {

/// True when the CPU executing this process supports AVX2 (cached after
/// the first call). Always false on non-x86 builds and when the build
/// was configured with -DBKC_DISABLE_SIMD=ON.
bool cpu_supports_avx2();

/// True when every dispatchable hot path must use its scalar reference:
/// the build disabled SIMD, BKC_FORCE_SCALAR is set in the environment,
/// or a ScopedForceScalar is live. Fast paths consult this on every
/// dispatch, so a scoped force takes effect immediately.
bool scalar_forced();

/// RAII force of the scalar reference paths, used by the bit-identity
/// suites and benchmarks to pin a dispatch variant regardless of the
/// host CPU. Process-global (a counter, so scopes nest); establish it
/// before fanning work out to the thread pool - the pool's run barrier
/// makes the setting visible to every worker.
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

}  // namespace bkc::simd
