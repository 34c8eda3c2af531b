#include "hwsim/sampled.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <numeric>
#include <utility>

#include "hwsim/conv_trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bkc::hwsim {

namespace {

/// Split one geometry group (block indices in block order) into at most
/// `max_runs` runs of close stream bits: sort by stream bits, cut at the
/// widest gaps (ties to the earliest gap), and let each run's lower
/// median represent it.
std::vector<SampledClusterInfo> split_group(
    const compress::CompressedModelView& view,
    const std::vector<std::size_t>& group, std::size_t max_runs) {
  const auto bits = [&](std::size_t block) {
    return view.blocks[block].get().compressed.stream_bits;
  };
  std::vector<std::size_t> sorted = group;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bits(a) < bits(b);
                   });

  // Gap i lies between sorted[i] and sorted[i + 1].
  std::vector<std::size_t> cuts(sorted.size() - 1);
  std::iota(cuts.begin(), cuts.end(), std::size_t{0});
  const auto width = [&](std::size_t gap) {
    return bits(sorted[gap + 1]) - bits(sorted[gap]);
  };
  std::stable_sort(cuts.begin(), cuts.end(),
                   [&](std::size_t a, std::size_t b) {
                     return width(a) > width(b);
                   });
  cuts.resize(std::min(cuts.size(), max_runs - 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(sorted.size() - 1);

  std::vector<SampledClusterInfo> runs;
  std::size_t begin = 0;
  for (const std::size_t cut : cuts) {
    const std::size_t end = cut + 1;
    SampledClusterInfo run;
    run.representative = sorted[begin + (end - begin - 1) / 2];
    run.members.assign(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                       sorted.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(run.members.begin(), run.members.end());
    const double rep_bits =
        std::max(1.0, static_cast<double>(bits(run.representative)));
    for (const std::size_t member : run.members) {
      const double skew = std::abs(static_cast<double>(bits(member)) -
                                   static_cast<double>(
                                       bits(run.representative))) /
                          rep_bits;
      run.max_stream_bits_skew = std::max(run.max_stream_bits_skew, skew);
    }
    runs.push_back(std::move(run));
    begin = end;
  }
  return runs;
}

}  // namespace

SampledSpeedupReport compare_model_sampled(
    const compress::CompressedModelView& view, const SamplingConfig& config) {
  check(config.max_clusters_per_group >= 1,
        "compare_model_sampled: max_clusters_per_group must be >= 1");
  check(config.num_threads >= 1,
        "compare_model_sampled: num_threads must be >= 1");

  // ---- Pass 1: the baseline plan, and the 3x3 blocks grouped by
  // geometry in block order.
  const BaselinePlan plan = plan_baseline(view.ops);
  std::vector<const bnn::OpRecord*> block_op;
  std::map<LayerGeometry, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < view.ops.size(); ++i) {
    const bnn::OpRecord& op = view.ops[i];
    if (plan.slot[i] == BaselinePlan::kAnalytic ||
        op.op_class != bnn::OpClass::kConv3x3) {
      continue;
    }
    check(block_op.size() < view.blocks.size(),
          "compare_model: more 3x3 convs than compressed blocks");
    groups[LayerGeometry::from_op(op)].push_back(block_op.size());
    block_op.push_back(&op);
  }
  check(block_op.size() == view.blocks.size(),
        "compare_model: unmatched compressed blocks");

  // ---- Pass 2: split every group into runs; only each run's
  // representative is simulated in the sw and hw variants.
  SamplingSummary summary;
  summary.num_blocks = view.blocks.size();
  summary.num_geometry_groups = groups.size();
  std::vector<std::size_t> block_run(view.blocks.size(), 0);
  for (const auto& [geometry, group] : groups) {
    for (SampledClusterInfo& run : split_group(
             view, group,
             static_cast<std::size_t>(config.max_clusters_per_group))) {
      for (const std::size_t member : run.members) {
        block_run[member] = summary.clusters.size();
      }
      summary.max_stream_bits_skew =
          std::max(summary.max_stream_bits_skew, run.max_stream_bits_skew);
      summary.clusters.push_back(std::move(run));
    }
  }
  summary.num_clusters = summary.clusters.size();
  summary.simulated_blocks = summary.num_clusters;
  summary.simulated_fraction =
      summary.num_blocks == 0
          ? 1.0
          : static_cast<double>(summary.simulated_blocks) /
                static_cast<double>(summary.num_blocks);

  // ---- Pass 3: one job per baseline simulation (result slot = plan
  // slot) and one per run, which scans its representative's stream once
  // and simulates sw then hw into rep_slot + 2 * run and the slot after.
  // Each simulation is an independent pure function (fresh core per
  // call), so the fan-out is bit-identical at every thread count.
  const std::size_t rep_slot = plan.simulated.size();
  std::vector<LayerSimResult> results(rep_slot + 2 * summary.num_clusters);
  parallel_for(
      static_cast<std::int64_t>(rep_slot + summary.num_clusters),
      config.num_threads, [&](std::int64_t begin, std::int64_t end) {
        for (auto job = static_cast<std::size_t>(begin);
             job < static_cast<std::size_t>(end); ++job) {
          if (job < rep_slot) {
            results[job] = simulate_binary_conv_layer(
                *plan.simulated[job], ConvVariant::kBaseline);
            continue;
          }
          const std::size_t run = job - rep_slot;
          const std::size_t rep = summary.clusters[run].representative;
          const StreamInfo stream = stream_info_for(view.blocks[rep]);
          results[rep_slot + 2 * run] = simulate_binary_conv_layer(
              *block_op[rep], ConvVariant::kSwDecode, &stream);
          results[rep_slot + 2 * run + 1] = simulate_binary_conv_layer(
              *block_op[rep], ConvVariant::kHwDecode, &stream);
        }
      });

  // ---- Pass 4: assemble serially in op order, every 3x3 op reading its
  // geometry's baseline and its run representative's sw/hw results.
  SampledSpeedupReport out;
  SpeedupReport& report = out.report;
  std::size_t block = 0;
  for (std::size_t i = 0; i < view.ops.size(); ++i) {
    const bnn::OpRecord& op = view.ops[i];
    if (plan.slot[i] == BaselinePlan::kAnalytic) {
      report.other_cycles += analytic_op_cycles(op);
      continue;
    }
    if (op.op_class != bnn::OpClass::kConv3x3) {
      report.other_cycles += results[plan.slot[i]].cycles;
      continue;
    }
    const std::size_t run_slot = rep_slot + 2 * block_run[block++];
    LayerComparison cmp;
    cmp.name = op.name;
    cmp.baseline_detail = results[plan.slot[i]];
    cmp.sw_detail = results[run_slot];
    cmp.hw_detail = results[run_slot + 1];
    // The details carry the simulated op's name; relabel so the report
    // reads per layer.
    cmp.baseline_detail.name = op.name;
    cmp.sw_detail.name = op.name;
    cmp.hw_detail.name = op.name;
    cmp.baseline_cycles = cmp.baseline_detail.cycles;
    cmp.sw_cycles = cmp.sw_detail.cycles;
    cmp.hw_cycles = cmp.hw_detail.cycles;
    report.total_baseline += cmp.baseline_cycles;
    report.total_sw += cmp.sw_cycles;
    report.total_hw += cmp.hw_cycles;
    report.conv3x3.push_back(std::move(cmp));
  }
  report.total_baseline += report.other_cycles;
  report.total_sw += report.other_cycles;
  report.total_hw += report.other_cycles;
  out.summary = std::move(summary);
  return out;
}

}  // namespace bkc::hwsim
