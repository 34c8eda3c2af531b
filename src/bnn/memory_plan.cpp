#include "bnn/memory_plan.h"

#include <algorithm>

#include "bnn/int8_kernels.h"
#include "util/check.h"

namespace bkc::bnn {

namespace {

std::int64_t aligned(std::int64_t bytes) {
  return static_cast<std::int64_t>(
      Arena::aligned_size(static_cast<std::size_t>(bytes)));
}

std::int64_t float_bytes(std::int64_t count) {
  return aligned(count * static_cast<std::int64_t>(sizeof(float)));
}

}  // namespace

std::size_t MemoryPlan::arena_bytes() const {
  return 2 * static_cast<std::size_t>(float_bytes(activation_floats)) +
         static_cast<std::size_t>(scratch_bytes);
}

bool MemoryPlan::covers(const MemoryPlan& other) const {
  return activation_floats >= other.activation_floats &&
         scratch_bytes >= other.scratch_bytes &&
         pack_words >= other.pack_words;
}

MemoryPlan plan_reactnet_forward(const std::vector<OpRecord>& records) {
  MemoryPlan plan;
  for (const OpRecord& op : records) {
    // Ping-pong buffers hold the largest activation any op reads or
    // writes; the pack scratch the largest packed input of a 1-bit conv,
    // ring included.
    plan.activation_floats =
        std::max({plan.activation_floats, op.input_shape.size(),
                  op.output_shape.size()});
    std::int64_t scratch = 0;
    if (op.precision_bits == 8) {
      // The int8 stem conv quantizes into its padded, phase-split plane
      // (bnn/int8_kernels.h); the classifier, recorded without a kernel
      // shape, quantizes its flat input.
      scratch = aligned(
          op.kernel_shape.kernel_h > 0
              ? int8_conv_plane(op.input_shape, op.kernel_shape, op.geometry)
                    .bytes()
              : op.input_shape.size());
    } else if (op.precision_bits == 1) {
      const FeatureShape& in = op.input_shape;
      const std::int64_t ring = op.geometry.padding;
      plan.pack_words = std::max(plan.pack_words,
                                 words_per_group(in.channels) *
                                     (in.height + 2 * ring) *
                                     (in.width + 2 * ring));
      if (op.op_class == OpClass::kConv3x3) {
        // A basic block holds its 3x3 conv output (the mid tensor `y`)
        // in scratch and nothing else: a stride-2 shortcut is pooled
        // inside the conv's epilogue. This mirrors
        // BasicBlock::forward_into's allocation exactly — the
        // high-water equality check depends on it.
        scratch = float_bytes(op.output_shape.size());
      }
    }
    plan.scratch_bytes = std::max(plan.scratch_bytes, scratch);
  }
  return plan;
}

Workspace::Workspace(const MemoryPlan& plan)
    : plan_(plan), arena_(plan.arena_bytes()) {
  packed_.reserve_words(plan.pack_words);
}

WorkspacePool::Lease WorkspacePool::acquire() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<Workspace> workspace = std::move(idle_.back());
      idle_.pop_back();
      return {this, std::move(workspace)};
    }
  }
  // First acquisition on a fresh concurrency level: the one warm-up
  // allocation this worker will ever cause.
  return {this, std::make_unique<Workspace>(plan_)};
}

std::size_t WorkspacePool::idle_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return idle_.size();
}

void WorkspacePool::release(std::unique_ptr<Workspace> workspace) {
  const std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(workspace));
}

}  // namespace bkc::bnn
