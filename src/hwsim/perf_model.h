#pragma once
// Whole-model timing: the execution-time column of Table I and the
// paper's two headline performance numbers (software decode 1.47x
// *slower*, hardware-assisted decode 1.35x *faster* than the
// uncompressed baseline).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bnn/model.h"
#include "compress/kernel_codec.h"
#include "compress/model_view.h"
#include "hwsim/conv_trace.h"
#include "hwsim/params.h"

namespace bkc::hwsim {

/// Cycle estimate for one op.
struct OpTiming {
  std::string name;
  bnn::OpClass op_class = bnn::OpClass::kOther;
  std::uint64_t cycles = 0;
};

/// Whole-model baseline timing with the per-class aggregation used by
/// Table I's execution-time column.
struct ModelTiming {
  std::vector<OpTiming> ops;
  std::map<bnn::OpClass, std::uint64_t> cycles_by_class;
  std::uint64_t total_cycles = 0;

  void add(OpTiming op);
  double fraction(bnn::OpClass op_class) const;
};

/// Analytic cycle model for the non-binary ops (stem, classifier,
/// normalization/activation): throughput-limited compute plus DRAM
/// bandwidth for their parameter traffic.
std::uint64_t analytic_op_cycles(const bnn::OpRecord& op,
                                 const CpuParams& cpu);

/// Baseline timing of every op in a model (binary convs simulated,
/// everything else analytic).
ModelTiming time_model_baseline(const std::vector<bnn::OpRecord>& ops,
                                const CpuParams& cpu = {},
                                const SamplingParams& sampling = {});

/// Per-3x3-layer variant comparison.
struct LayerComparison {
  std::string name;
  std::uint64_t baseline_cycles = 0;
  std::uint64_t sw_cycles = 0;
  std::uint64_t hw_cycles = 0;
  double sw_slowdown() const;  ///< sw / baseline (> 1 is slower)
  double hw_speedup() const;   ///< baseline / hw (> 1 is faster)
  LayerSimResult baseline_detail;
  LayerSimResult sw_detail;
  LayerSimResult hw_detail;
};

/// The full Sec VI performance experiment.
struct SpeedupReport {
  std::vector<LayerComparison> conv3x3;
  std::uint64_t other_cycles = 0;  ///< all non-3x3 ops (variant-invariant)
  std::uint64_t total_baseline = 0;
  std::uint64_t total_sw = 0;
  std::uint64_t total_hw = 0;

  double model_sw_slowdown() const;   ///< paper: 1.47x
  double model_hw_speedup() const;    ///< paper: 1.35x
  double conv3x3_sw_slowdown() const;
  double conv3x3_hw_speedup() const;
};

/// Run the three variants over every op of a compressed model's
/// artifact view (compress/model_view.h): each 3x3 binary conv is
/// simulated from its block's code-length vector, everything else from
/// the op records. Baselines are simulated once per distinct
/// LayerGeometry; this is the sampled walk of hwsim/sampled.h with
/// every block representing itself. The simulator consumes compression artifacts only —
/// it never runs (or re-runs) a compression pass, whether the view is
/// backed by an Engine's block_streams() or by a parsed BKCM container
/// (compress::MappedBkcm). The view's borrowed artifacts must outlive
/// the call, nothing more.
SpeedupReport compare_model(const compress::CompressedModelView& view,
                            const CpuParams& cpu = {},
                            const DecoderParams& decoder = {},
                            const SamplingParams& sampling = {});

/// Cycle-for-cycle equality of two speedup reports: layer names and
/// every integer cycle field (the totals fix the derived ratios, so
/// this is exact). Used by the bench/test self-checks that pin
/// view-backed against recompression-backed or container-backed runs.
bool cycles_identical(const SpeedupReport& a, const SpeedupReport& b);

/// StreamInfo borrowing the code-length vector the compression pass
/// already computed (KernelCompression::code_lengths) — nothing is
/// re-derived; `compression` must outlive the result. CheckError when
/// the artifact carries no lengths.
StreamInfo stream_info_for(const compress::KernelCompression& compression);

}  // namespace bkc::hwsim
