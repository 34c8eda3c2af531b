#pragma once
// Sampled simulation: compare_model accuracy at a fraction of the
// simulated trace volume.
//
// Simulating every 3x3 binary conv in three variants dominates the wall
// clock of a timing run at real model sizes. The one simulator walk
// behind both compare_model and compare_model_sampled exploits the
// structure of the workload instead:
//
//   1. Baseline traces consume no stream, so the baseline follows
//      plan_baseline (hwsim/perf_model.h): simulated once per distinct
//      LayerGeometry (3x3 and binary 1x1 alike) and shared by every op
//      of that geometry with zero error.
//   2. The 3x3 blocks are grouped by LayerGeometry (equal geometry =>
//      identical micro-op schedule). Each group is sorted by stream
//      bits and cut at its k-1 widest gaps, ties to the earliest gap,
//      with k = min(max_clusters_per_group, group size). The decode-side
//      cycles scale with stream bits, so a run of close stream sizes
//      decodes alike.
//   3. Each run's lower median (in stream-bits order) is its
//      representative: only it is simulated in the sw and hw variants,
//      from one scan of its stream, and every member of the run reports
//      its cycles.
//
// compare_model is the case where every block represents itself, so a
// budget covering every group reproduces it cycle for cycle.
// tests/test_sampled_sim.cpp pins the sampled-vs-exact relative cycle
// error on the tiny ReActNet fixture and bit-identical results across
// repeated runs and thread counts 1/2/4/7.

#include <cstddef>
#include <vector>

#include "compress/model_view.h"
#include "hwsim/perf_model.h"

namespace bkc::hwsim {

/// Knobs of the sampled path. The representative rule is deterministic,
/// so equal (view, config) yield equal reports.
struct SamplingConfig {
  /// Run budget per geometry group: k = min(this, group size).
  /// 1 collapses every equal-geometry group onto one representative;
  /// larger values buy accuracy for groups whose streams diverge.
  int max_clusters_per_group = 2;
  /// Fan the simulations out over the shared thread pool. Results are
  /// bit-identical at every thread count (each simulation is an
  /// independent pure function; assembly is serial in op order).
  int num_threads = 1;
};

/// One run of the summary: which blocks (indices into view.blocks) were
/// folded together.
struct SampledClusterInfo {
  std::size_t representative = 0;    ///< simulated member
  std::vector<std::size_t> members;  ///< block order, includes the rep
  /// max |member stream bits - rep stream bits| / rep stream bits: a
  /// direct, measured proxy for the sw/hw extrapolation error, since
  /// the decode-side cycle costs scale with stream bits.
  double max_stream_bits_skew = 0.0;
};

/// The measured error summary returned next to the sampled report.
/// These are *measured dispersions of what was folded together*, not a
/// ground-truth error — ground truth needs the exact oracle (which the
/// tests and bench/speedup run alongside). Baseline cycles carry no
/// sampling error by construction (geometry-exact memoization).
struct SamplingSummary {
  std::size_t num_blocks = 0;           ///< 3x3 blocks in the view
  std::size_t num_geometry_groups = 0;  ///< distinct 3x3 LayerGeometry
  std::size_t num_clusters = 0;         ///< runs over all groups
  std::size_t simulated_blocks = 0;     ///< representatives simulated
  /// simulated_blocks / num_blocks (1.0 = nothing saved; 0 blocks => 1).
  double simulated_fraction = 1.0;
  /// Maximum over all runs (see SampledClusterInfo).
  double max_stream_bits_skew = 0.0;
  std::vector<SampledClusterInfo> clusters;
};

struct SampledSpeedupReport {
  SpeedupReport report;
  SamplingSummary summary;
};

/// The sampled counterpart of compare_model: same SpeedupReport shape
/// (one LayerComparison per 3x3 binary conv, in op order, named after
/// the op), cycles extrapolated as described in the file comment. Runs
/// zero compression-pipeline work (the instrumentation counters of
/// compress/instrumentation.h stay flat) and never mutates the view.
SampledSpeedupReport compare_model_sampled(
    const compress::CompressedModelView& view,
    const SamplingConfig& config = {});

}  // namespace bkc::hwsim
