// Tests for the zero-allocation substrate: the bump Arena, the
// MemoryPlan arithmetic, Workspace / WorkspacePool, and the planned
// forward path's two load-bearing contracts — results independent of
// workspace reuse and sizing (checked against fresh-workspace runs on
// the scalar kernels), and EXACT high-water equality with the plan (an
// undersized plan overflows as CheckError, an oversized one fails the
// equality).

#include "bnn/memory_plan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "bnn/reactnet.h"
#include "bnn/weights.h"
#include "support/support.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/simd.h"

namespace bkc::bnn {
namespace {

TEST(Arena, AlignedSizeRoundsToGranules) {
  EXPECT_EQ(Arena::aligned_size(0), 0u);
  EXPECT_EQ(Arena::aligned_size(1), Arena::kAlignment);
  EXPECT_EQ(Arena::aligned_size(Arena::kAlignment), Arena::kAlignment);
  EXPECT_EQ(Arena::aligned_size(Arena::kAlignment + 1), 2 * Arena::kAlignment);
}

TEST(Arena, AllocationsAreAlignedAndCounted) {
  Arena arena(1024);
  void* a = arena.allocate(1);
  void* b = arena.allocate(65);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Arena::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Arena::kAlignment, 0u);
  // 1 byte occupies one granule, 65 bytes two.
  EXPECT_EQ(arena.used(), 3 * Arena::kAlignment);
  EXPECT_EQ(arena.allocation_count(), 2u);
  EXPECT_EQ(arena.capacity(), 1024u);
}

TEST(Arena, HighWaterSurvivesReset) {
  Arena arena(512);
  arena.allocate(512);
  EXPECT_EQ(arena.high_water(), 512u);
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.reset_count(), 1u);
  arena.allocate(64);
  EXPECT_EQ(arena.high_water(), 512u);  // the peak, not the current use
}

TEST(Arena, MarkRewindIsLifo) {
  Arena arena(512);
  arena.allocate(64);
  const std::size_t mark = arena.mark();
  arena.allocate(128);
  EXPECT_EQ(arena.used(), 192u);
  arena.rewind(mark);
  EXPECT_EQ(arena.used(), 64u);
  EXPECT_THROW(arena.rewind(128), CheckError);  // past the current top
}

TEST(Arena, OverflowThrows) {
  Arena arena(128);
  arena.allocate(128);
  EXPECT_THROW(arena.allocate(1), CheckError);
}

TEST(Arena, AllocateSpanTypesAndCounts) {
  Arena arena(1024);
  const std::span<float> floats = arena.allocate_span<float>(10);
  EXPECT_EQ(floats.size(), 10u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(floats.data()) %
                Arena::kAlignment,
            0u);
  EXPECT_THROW(arena.allocate_span<float>(-1), CheckError);
}

TEST(MemoryPlan, ArenaBytesIsTwoBuffersPlusScratch) {
  MemoryPlan plan;
  plan.activation_floats = 100;  // 400 bytes -> 448 aligned
  plan.scratch_bytes = 128;
  EXPECT_EQ(plan.arena_bytes(),
            2 * Arena::aligned_size(100 * sizeof(float)) + 128);
}

TEST(MemoryPlan, CoversIsFieldwise) {
  const MemoryPlan big{.activation_floats = 10, .scratch_bytes = 64,
                       .pack_words = 4};
  MemoryPlan small = big;
  EXPECT_TRUE(big.covers(small));
  small.pack_words = 5;
  EXPECT_FALSE(big.covers(small));
  EXPECT_TRUE(small.covers(small));
}

TEST(Workspace, ConstructionSizesArenaToThePlan) {
  const MemoryPlan plan{.activation_floats = 64, .scratch_bytes = 192,
                        .pack_words = 8};
  Workspace workspace(plan);
  EXPECT_EQ(workspace.arena().capacity(), plan.arena_bytes());
  EXPECT_TRUE(workspace.covers(plan));
  EXPECT_FALSE(workspace.covers(
      MemoryPlan{.activation_floats = 65, .scratch_bytes = 0,
                 .pack_words = 0}));
}

TEST(WorkspacePool, ReusesReleasedWorkspaces) {
  WorkspacePool pool(MemoryPlan{.activation_floats = 16});
  EXPECT_EQ(pool.idle_count(), 0u);
  Workspace* first = nullptr;
  {
    WorkspacePool::Lease lease = pool.acquire();
    first = &lease.workspace();
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  EXPECT_EQ(pool.idle_count(), 1u);
  {
    WorkspacePool::Lease lease = pool.acquire();
    // The same workspace object comes back — steady state allocates
    // nothing new.
    EXPECT_EQ(&lease.workspace(), first);
    // A second concurrent lease grows the pool by one.
    WorkspacePool::Lease second = pool.acquire();
    EXPECT_NE(&second.workspace(), first);
  }
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(ReActNetPlan, ReusedWorkspaceMatchesFreshScalarRun) {
  // One workspace reused across images must leave nothing behind: each
  // result equals a fresh-workspace run on the scalar kernels.
  const ReActNet model(test::tiny_config(41));
  Workspace workspace(model.memory_plan());
  WeightGenerator gen(9);
  for (int i = 0; i < 3; ++i) {
    const Tensor image = gen.sample_activation(model.input_shape());
    Tensor expected;
    {
      simd::ScopedForceScalar force;
      expected = test::run_forward(model, image);
    }
    Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
    model.forward_into(image, scores, workspace);
    ASSERT_EQ(scores.shape(), expected.shape());
    EXPECT_EQ(std::memcmp(scores.data().data(), expected.data().data(),
                          expected.data().size_bytes()),
              0);
  }
}

TEST(ReActNetPlan, HighWaterEqualsPlannedBytesExactly) {
  // The equality (not <=) is the point: it proves the plan arithmetic
  // mirrors the forward path's allocation order with zero slack, so
  // any drift in either direction is caught.
  const ReActNet model(test::tiny_config(43));
  Workspace workspace(model.memory_plan());
  WeightGenerator gen(10);
  Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
  model.forward_into(gen.sample_activation(model.input_shape()), scores,
                     workspace);
  EXPECT_EQ(workspace.arena().high_water(),
            model.memory_plan().arena_bytes());
}

TEST(ReActNetPlan, StemScratchTermIsExactlyItsPlane) {
  // HighWaterEqualsPlannedBytesExactly cannot see the stem's term: the
  // 3x3 `y` scratch is larger in both the tiny and the paper64 configs.
  // So pin it on its own: the plan of the stem record alone has the
  // literal size of the stem's padded, phase-split plane (3 channels x
  // (size + 2) rows x 2 phases x (size / 2 + 1) bytes, rounded up to a
  // granule), and the stem layer, run in a workspace of exactly that
  // size, fills it on both dispatch paths.
  struct Case {
    ReActNetConfig config;
    std::int64_t plane_bytes;
  };
  ReActNetConfig paper64 = paper_reactnet_config(1);
  paper64.input_size = 64;
  for (const Case& c : {Case{tiny_reactnet_config(1), 3520},
                        Case{paper64, 13120},
                        Case{paper_reactnet_config(1), 153280}}) {
    const OpRecord stem = op_records_for(c.config).front();
    ASSERT_EQ(stem.op_class, OpClass::kInputLayer);
    const MemoryPlan plan = plan_reactnet_forward({stem});
    const std::int64_t size = c.config.input_size;
    EXPECT_EQ(plan.scratch_bytes, c.plane_bytes) << size;

    WeightGenerator gen(static_cast<std::uint64_t>(size));
    const Int8Conv2d conv(
        "stem", gen.sample_float_weights(stem.kernel_shape),
        std::vector<float>(
            static_cast<std::size_t>(stem.kernel_shape.out_channels), 0.0f),
        stem.geometry);
    const Tensor image = gen.sample_activation(stem.input_shape);
    for (bool forced : {false, true}) {
      std::optional<simd::ScopedForceScalar> force;
      if (forced) force.emplace();
      Workspace workspace(MemoryPlan{.scratch_bytes = plan.scratch_bytes});
      Tensor out(stem.output_shape);
      conv.forward_into(image, out, workspace);
      EXPECT_EQ(workspace.arena().high_water(),
                static_cast<std::size_t>(plan.scratch_bytes))
          << size << (forced ? " scalar" : " dispatched");
    }
  }
}

TEST(ReActNetPlan, ArenaStaysFlatAcrossRepeatCalls) {
  // Steady state: repeated passes reset and refill to the identical
  // high-water mark with the identical allocation count per pass.
  const ReActNet model(test::tiny_config(43));
  Workspace workspace(model.memory_plan());
  WeightGenerator gen(12);
  const Tensor image = gen.sample_activation(model.input_shape());
  Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
  model.forward_into(image, scores, workspace);
  const std::uint64_t allocs_per_pass =
      workspace.arena().allocation_count();
  const std::size_t high_water = workspace.arena().high_water();
  for (int i = 0; i < 3; ++i) {
    model.forward_into(image, scores, workspace);
  }
  EXPECT_EQ(workspace.arena().allocation_count(), 4 * allocs_per_pass);
  EXPECT_EQ(workspace.arena().high_water(), high_water);
}

TEST(ReActNetPlan, PackScratchNeverRegrowsOnTheFirstPass) {
  // pack_words must cover every binary conv's packed input, padding
  // ring included: the pack scratch sits outside the arena, so only its
  // storage address shows a reservation that was too small.
  const ReActNet model(test::tiny_config(49));
  Workspace workspace(model.memory_plan());
  PackedFeature& scratch = workspace.pack_scratch();
  scratch.reshape(FeatureShape{1, 1, 1});
  const std::uint64_t* storage = scratch.words().data();
  WeightGenerator gen(13);
  Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
  model.forward_into(gen.sample_activation(model.input_shape()), scores,
                     workspace);
  EXPECT_EQ(scratch.words().data(), storage);
}

TEST(ReActNetPlan, UndersizedWorkspaceThrows) {
  const ReActNet model(test::tiny_config(45));
  Workspace workspace(MemoryPlan{});  // covers nothing
  WeightGenerator gen(11);
  Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
  EXPECT_THROW(model.forward_into(gen.sample_activation(model.input_shape()),
                                  scores, workspace),
               CheckError);
}

TEST(ReActNetPlan, OversizedWorkspaceRunsFine) {
  const ReActNet model(test::tiny_config(45));
  MemoryPlan plan = model.memory_plan();
  plan.activation_floats += 100;
  plan.scratch_bytes += 4 * Arena::kAlignment;
  plan.pack_words += 16;
  Workspace workspace(plan);
  WeightGenerator gen(11);
  const Tensor image = gen.sample_activation(model.input_shape());
  Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
  model.forward_into(image, scores, workspace);
  // Same bits as a workspace sized exactly to the plan.
  const Tensor expected = test::run_forward(model, image);
  EXPECT_EQ(std::memcmp(scores.data().data(), expected.data().data(),
                        expected.data().size_bytes()),
            0);
}

TEST(ReActNetPlan, WrongScoreShapeThrows) {
  const ReActNet model(test::tiny_config(45));
  Workspace workspace(model.memory_plan());
  WeightGenerator gen(11);
  Tensor scores(FeatureShape{model.config().num_classes + 1, 1, 1});
  EXPECT_THROW(model.forward_into(gen.sample_activation(model.input_shape()),
                                  scores, workspace),
               CheckError);
}

TEST(ReActNetPlan, PlanFieldsMatchTheOpRecordWalk) {
  const ReActNet model(test::tiny_config(47));
  const MemoryPlan& plan = model.memory_plan();
  std::int64_t max_activation = 0;
  std::int64_t max_pack_words = 0;
  for (const OpRecord& op : model.op_records()) {
    max_activation = std::max({max_activation, op.input_shape.size(),
                               op.output_shape.size()});
    if (op.precision_bits == 1) {
      // The packed input carries a zero ring as wide as the padding.
      const std::int64_t p = op.geometry.padding;
      max_pack_words =
          std::max(max_pack_words, words_per_group(op.input_shape.channels) *
                                       (op.input_shape.height + 2 * p) *
                                       (op.input_shape.width + 2 * p));
    }
  }
  EXPECT_EQ(plan.activation_floats, max_activation);
  EXPECT_EQ(plan.pack_words, max_pack_words);
  EXPECT_GT(plan.scratch_bytes, 0);
}

}  // namespace
}  // namespace bkc::bnn
