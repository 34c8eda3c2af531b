#pragma once
// The A53 configuration of the timing model (Table IV of the paper).
//
// The paper times every variant on one gem5 model of an ARM A53
// (in-order, dual issue, 128-bit NEON) at 1 GHz with 32 KB L1 / 256 KB
// L2 / DDR4 DRAM, extended with the decoding unit of Fig. 6. These
// structs carry its structural parameters as inputs of the unit models
// (InOrderCore, MemoryHierarchy, DecoderUnitRuntime); the model-level
// walks (hwsim/conv_trace.h, hwsim/perf_model.h) build them with their
// defaults, so the defaults are the configuration. All cycle numbers
// are in CPU cycles at 1 GHz.

#include <cstdint>

namespace bkc::hwsim {

/// Core and memory-hierarchy parameters (Table IV, CPU section).
struct CpuParams {
  // Core.
  int issue_width = 2;          ///< A53: dual-issue in-order
  int l1_latency = 3;           ///< load-to-use, cycles
  int l2_latency = 13;          ///< cycles
  /// Effective DRAM latency including controller queueing. Measured
  /// load-to-use latencies on A53-class boards (e.g. RPi3 under
  /// LMbench) sit at 150-250 ns; 200 cycles at 1 GHz is mid-range.
  int dram_latency = 200;
  double dram_bytes_per_cycle = 12.8;  ///< DDR4-2666-ish, 1 channel
  /// Concurrent linefills the core sustains (the A53 LSU supports 2-3
  /// outstanding data-cache misses). This bound is what puts streamed
  /// weight loads on the critical path of an in-order core (Sec I).
  int max_outstanding_misses = 2;

  // Caches.
  std::int64_t l1_bytes = 32 * 1024;
  int l1_ways = 4;
  std::int64_t l2_bytes = 256 * 1024;
  int l2_ways = 8;
  int line_bytes = 64;
};

/// Decoding-unit timing parameters (Table IV, decoding unit section).
/// Only what the timing model reads is here: the unit's storage sizes
/// (node count, uncompressed table, register file, input buffer) cost
/// no cycles in this model, so they are not parameters.
struct DecoderParams {
  int fetch_chunk_bytes = 64;     ///< T bytes per LSU request
  int decode_per_cycle = 1;       ///< sequences decoded per cycle
  int configure_cycles = 24;      ///< lddu: load config + reset
  int ldps_cycles = 1;            ///< register-file read when ready
  // Stream-fetch schedule (kept consistent with CpuParams' DRAM model).
  int stream_latency_cycles = 200;
  double stream_bytes_per_cycle = 12.8;
};

}  // namespace bkc::hwsim
