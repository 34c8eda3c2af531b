#pragma once
// Per-model activation MemoryPlan + per-thread Workspace arenas: the
// substrate of the zero-allocation forward path.
//
// Inference runs through forward_into, which never returns a fresh
// tensor: a MemoryPlan is computed once from the model's op-record walk
// (the same records that feed Table I and the timing model), and every
// forward_into call runs inside a Workspace whose bump Arena was sized
// to the plan. Steady state performs zero heap allocations — a contract
// tests pin with a global operator-new counter, and which the plan
// itself makes checkable: a planned forward pass must drive the arena
// high-water mark to *exactly* arena_bytes(), so any drift between the
// plan arithmetic and the forward path's allocation order is caught as
// an equality failure (oversized plan) or a CheckError overflow
// (undersized plan).
//
// Layout of a planned forward pass:
//   * two ping-pong activation buffers of activation_floats each —
//     layer L reads one and writes the other, so no layer output ever
//     needs its own allocation;
//   * block-local scratch (the 3x3 conv output inside a ReActNet basic
//     block, the int8 stem/classifier quantization buffer), released
//     LIFO via Arena::mark/rewind, sized by the worst single consumer
//     (scratch_bytes);
//   * one PackedFeature reused as pack scratch by every binary conv,
//     kept outside the arena because its word storage persists across
//     layers (pack_words sizes its reservation).
//
// Workspaces are not thread-safe and are never shared: concurrent
// callers lease one each from a WorkspacePool (Engine holds one pool;
// classify_batch workers and the serve BatchScheduler ride it).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bnn/bitpack.h"
#include "bnn/model.h"
#include "tensor/tensor.h"
#include "util/arena.h"

namespace bkc::bnn {

/// Sizing summary of one model's forward pass. Computed once from op
/// records; pure data, so it can be copied into every workspace.
struct MemoryPlan {
  /// Floats in EACH of the two ping-pong activation buffers: the
  /// largest input/output activation of any op.
  std::int64_t activation_floats = 0;
  /// Peak block-local scratch beyond the ping-pong buffers, already
  /// rounded to Arena allocation granules.
  std::int64_t scratch_bytes = 0;
  /// Word storage for the largest packed input of any binary conv,
  /// including its padding ring.
  std::int64_t pack_words = 0;

  /// Exact arena capacity a planned forward pass needs — and exactly
  /// the high-water mark it must produce.
  std::size_t arena_bytes() const;

  /// True when a workspace built from this plan can run a model whose
  /// plan is `other` (every field >=).
  bool covers(const MemoryPlan& other) const;
};

/// Plan for ReActNet::forward_into's allocation order: ping-pong
/// activations across stem/blocks/pool/classifier, per-block scratch
/// for the 3x3 conv output (the stride-2 shortcut is pooled inside the
/// fused conv epilogue and needs none), int8 quantization scratch for
/// the stem (its int8_conv_plane) and the classifier (its flat input).
MemoryPlan plan_reactnet_forward(const std::vector<OpRecord>& records);

/// One thread's working memory for planned forward passes: the arena
/// plus the reusable pack scratch. Construction performs all heap
/// allocation the workspace will ever do; forward passes only bump,
/// rewind and reset. Move-only, single-owner (not thread-safe).
class Workspace {
 public:
  explicit Workspace(const MemoryPlan& plan);

  Workspace(Workspace&&) noexcept = default;
  Workspace& operator=(Workspace&&) noexcept = default;

  const MemoryPlan& plan() const { return plan_; }
  Arena& arena() { return arena_; }

  /// The shared PackedFeature every binary conv packs into (via
  /// pack_feature_into, which reshapes it without allocating as long
  /// as the plan's pack_words reservation covers the conv).
  PackedFeature& pack_scratch() { return packed_; }

  /// True when this workspace can run a model requiring `required`.
  bool covers(const MemoryPlan& required) const {
    return plan_.covers(required);
  }

 private:
  MemoryPlan plan_;
  Arena arena_;
  PackedFeature packed_;
};

/// Thread-safe free-list of workspaces sharing one plan. Workers lease
/// a workspace for the duration of a chunk of images and return it on
/// scope exit; the pool grows to the peak concurrency ever seen and
/// then stops allocating (the steady state reuses pooled workspaces).
class WorkspacePool {
 public:
  explicit WorkspacePool(const MemoryPlan& plan) : plan_(plan) {}

  /// RAII lease: returns the workspace to the pool on destruction.
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<Workspace> workspace)
        : pool_(pool), workspace_(std::move(workspace)) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(std::move(workspace_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), workspace_(std::move(other.workspace_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Workspace& workspace() { return *workspace_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<Workspace> workspace_;
  };

  /// A pooled workspace, or a freshly built one when all are leased.
  Lease acquire();

  const MemoryPlan& plan() const { return plan_; }

  /// Workspaces currently parked in the pool (tests use this to see
  /// reuse happening).
  std::size_t idle_count() const;

 private:
  void release(std::unique_ptr<Workspace> workspace);

  MemoryPlan plan_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> idle_;
};

}  // namespace bkc::bnn
