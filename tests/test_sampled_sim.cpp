// Integration tests for the sampled simulation path (hwsim/sampled.h):
// sampled-vs-exact accuracy on the tiny ReActNet fixture, bit-stable
// determinism across repeated runs and thread counts, zero
// compression-pipeline work, and the Engine facade wiring.

#include "hwsim/sampled.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "compress/instrumentation.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::hwsim {
namespace {

double relative_error(std::uint64_t approx, std::uint64_t exact) {
  return std::abs(static_cast<double>(approx) -
                  static_cast<double>(exact)) /
         static_cast<double>(exact);
}

/// One compressed tiny engine shared by every case: compression is the
/// slow part, the simulations under test are cheap.
const Engine& tiny_engine() {
  static const Engine* engine = [] {
    auto* e = new Engine(test::tiny_config(/*seed=*/42));
    e->compress(2);
    return e;
  }();
  return *engine;
}

TEST(SampledSim, MatchesExactWithinTwoPercent) {
  const Engine& engine = tiny_engine();
  const SpeedupReport exact = engine.simulate_speedup();
  const SampledSpeedupReport sampled = engine.simulate_speedup_sampled();

  // Baseline cycles are geometry-memoized, never extrapolated: exact
  // equality, per layer and in total.
  ASSERT_EQ(sampled.report.conv3x3.size(), exact.conv3x3.size());
  for (std::size_t i = 0; i < exact.conv3x3.size(); ++i) {
    EXPECT_EQ(sampled.report.conv3x3[i].name, exact.conv3x3[i].name);
    EXPECT_EQ(sampled.report.conv3x3[i].baseline_cycles,
              exact.conv3x3[i].baseline_cycles);
  }
  EXPECT_EQ(sampled.report.total_baseline, exact.total_baseline);
  // The 1x1 binary convs also go through the baseline memo; the
  // analytic ops are computed directly. Either way: exact.
  EXPECT_EQ(sampled.report.other_cycles, exact.other_cycles);

  // The acceptance bound for the extrapolated columns.
  EXPECT_LE(relative_error(sampled.report.total_sw, exact.total_sw), 0.02);
  EXPECT_LE(relative_error(sampled.report.total_hw, exact.total_hw), 0.02);
}

TEST(SampledSim, SimulatesFewerBlocksThanExact) {
  const SampledSpeedupReport sampled =
      tiny_engine().simulate_speedup_sampled();
  const SamplingSummary& summary = sampled.summary;
  EXPECT_EQ(summary.num_blocks, 13u);
  // The tiny schedule has 9 distinct geometries (the {512,512,1}/8
  // block repeats 5x); with the default 2-run budget that group splits
  // in two and every other group is a singleton: 10 of 13 simulate.
  EXPECT_EQ(summary.num_geometry_groups, 9u);
  EXPECT_EQ(summary.simulated_blocks, 10u);
  EXPECT_LT(summary.simulated_blocks, summary.num_blocks);
  EXPECT_EQ(summary.simulated_blocks, summary.num_clusters);
  EXPECT_LT(summary.simulated_fraction, 1.0);
  EXPECT_GT(summary.simulated_fraction, 0.0);

  // The runs cover every block exactly once, list their members in
  // block order, and each representative is a member of its own run.
  std::set<std::size_t> seen;
  for (const SampledClusterInfo& cluster : summary.clusters) {
    EXPECT_TRUE(std::is_sorted(cluster.members.begin(),
                               cluster.members.end()));
    bool rep_is_member = false;
    for (const std::size_t member : cluster.members) {
      EXPECT_TRUE(seen.insert(member).second) << "block in two clusters";
      rep_is_member |= member == cluster.representative;
    }
    EXPECT_TRUE(rep_is_member);
    EXPECT_LE(cluster.max_stream_bits_skew, summary.max_stream_bits_skew);
  }
  EXPECT_EQ(seen.size(), summary.num_blocks);
}

TEST(SampledSim, RepresentativesFollowTheStreamBitsRule) {
  const Engine& engine = tiny_engine();
  const compress::CompressedModelView view = engine.artifact_view();
  const auto bits = [&](std::size_t block) {
    return view.blocks[block].stream_bits;
  };
  // The five {512,512,1}/8 blocks (6..10) are the one group with more
  // members than the default budget of two runs.
  const std::vector<std::size_t> group = {6, 7, 8, 9, 10};
  const SamplingSummary summary = engine.simulate_speedup_sampled().summary;
  std::vector<const SampledClusterInfo*> runs;
  for (const SampledClusterInfo& cluster : summary.clusters) {
    if (cluster.members.front() >= 6 && cluster.members.front() <= 10) {
      runs.push_back(&cluster);
    }
  }
  ASSERT_EQ(runs.size(), 2u);

  // Expected: sort by stream bits, cut at the widest gap (earliest on
  // ties), and each side's lower median represents it.
  std::vector<std::size_t> sorted = group;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bits(a) < bits(b);
                   });
  std::size_t cut = 0;
  for (std::size_t i = 1; i + 1 < sorted.size(); ++i) {
    if (bits(sorted[i + 1]) - bits(sorted[i]) >
        bits(sorted[cut + 1]) - bits(sorted[cut])) {
      cut = i;
    }
  }
  std::vector<std::size_t> low(sorted.begin(), sorted.begin() + cut + 1);
  std::vector<std::size_t> high(sorted.begin() + cut + 1, sorted.end());
  const std::size_t low_rep = low[(low.size() - 1) / 2];
  const std::size_t high_rep = high[(high.size() - 1) / 2];
  std::sort(low.begin(), low.end());
  std::sort(high.begin(), high.end());

  std::set<std::vector<std::size_t>> expected = {low, high};
  std::set<std::vector<std::size_t>> actual;
  for (const SampledClusterInfo* run : runs) {
    actual.insert(run->members);
    EXPECT_EQ(run->representative, run->members == low ? low_rep : high_rep);
  }
  EXPECT_EQ(actual, expected);
}

TEST(SampledSim, DeterministicAcrossRunsAndThreadCounts) {
  const Engine& engine = tiny_engine();
  const SampledSpeedupReport first = engine.simulate_speedup_sampled();
  const SampledSpeedupReport again = engine.simulate_speedup_sampled();
  EXPECT_TRUE(cycles_identical(first.report, again.report));
  const auto representatives = [](const SamplingSummary& summary) {
    std::vector<std::size_t> reps;
    for (const auto& cluster : summary.clusters) {
      reps.push_back(cluster.representative);
    }
    return reps;
  };
  EXPECT_EQ(representatives(first.summary), representatives(again.summary));

  for (const int threads : {2, 4, 7}) {
    SamplingConfig config;
    config.num_threads = threads;
    const SampledSpeedupReport parallel =
        engine.simulate_speedup_sampled(config);
    EXPECT_TRUE(cycles_identical(first.report, parallel.report))
        << "num_threads=" << threads;
    EXPECT_EQ(representatives(first.summary),
              representatives(parallel.summary));
  }
}

TEST(SampledSim, ClusterBudgetWorks) {
  const Engine& engine = tiny_engine();
  // k=1 per geometry group: exactly one cluster per group.
  SamplingConfig one;
  one.max_clusters_per_group = 1;
  const SampledSpeedupReport collapsed =
      engine.simulate_speedup_sampled(one);
  EXPECT_EQ(collapsed.summary.num_clusters,
            collapsed.summary.num_geometry_groups);

  // A budget covering every block reproduces the exact sw/hw totals:
  // every cluster is a singleton, so its representative IS the member.
  SamplingConfig full;
  full.max_clusters_per_group = 13;
  const SampledSpeedupReport exhaustive =
      engine.simulate_speedup_sampled(full);
  EXPECT_EQ(exhaustive.summary.simulated_blocks, 13u);
  EXPECT_TRUE(
      cycles_identical(exhaustive.report, engine.simulate_speedup()));
}

TEST(SampledSim, RunsZeroCompressionPipelineWork) {
  const Engine& engine = tiny_engine();
  const compress::PipelineCounters before = compress::pipeline_counters();
  (void)engine.simulate_speedup_sampled();
  const compress::PipelineCounters delta =
      compress::pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.frequency_counts, 0u);
  EXPECT_EQ(delta.cluster_sequences_calls, 0u);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);
}

TEST(SampledSim, RejectsBadConfigsAndUncompressedEngines) {
  const Engine& engine = tiny_engine();
  SamplingConfig config;
  config.max_clusters_per_group = 0;
  EXPECT_THROW(engine.simulate_speedup_sampled(config), CheckError);
  config = {};
  config.num_threads = 0;
  EXPECT_THROW(engine.simulate_speedup_sampled(config), CheckError);

  const Engine uncompressed(test::tiny_config(/*seed=*/42));
  EXPECT_THROW(uncompressed.simulate_speedup_sampled(), CheckError);
}

}  // namespace
}  // namespace bkc::hwsim
