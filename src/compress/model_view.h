#pragma once
// CompressedModelView — the artifact boundary between the compression
// pipeline and every downstream consumer of its outputs.
//
// The hwsim decoder/timing model (and any future deployment backend)
// needs exactly what the paper's hardware unit is configured with: per
// block, the decode tables, the clustering remap and the compressed
// bitstream (hwsim scans the per-codeword lengths from the stream
// itself) — plus the model's op-record layout to know which op each
// stream belongs to. It does NOT need a live ReActNet or a
// ModelCompressor, and it must never trigger a compression pass of its
// own. CompressedModelView is that contract: a
// non-owning bundle of references to KernelCompression artifacts that
// already exist, whether they live
//   * in an Engine (Engine::artifact_view over block_streams()),
//   * in a freshly run pipeline (view_of over its KernelCompressions),
//   * or in a parsed BKCM container (MappedBkcm::view over its blocks).
//
// Ownership rule: `ops` is owned by the view (op records are small
// value-type layout metadata, rebuilt on the fly by every producer);
// every artifact in `blocks` is borrowed and must outlive the view.
// The view itself is cheap to move; copying it never copies a stream.

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "bnn/model.h"
#include "compress/kernel_codec.h"

namespace bkc::compress {

/// The whole-model artifact view: the op-record layout (owned) and one
/// borrowed artifact per 3x3 binary convolution, in op order.
struct CompressedModelView {
  std::vector<bnn::OpRecord> ops;
  std::vector<std::reference_wrapper<const KernelCompression>> blocks;
};

/// The one assembly step for every view producer: pair `blocks` (which
/// must outlive the view) in order with the 3x3 binary-conv ops of
/// `ops`. CheckError (naming the op or block index) when the block
/// count does not match the op layout or a block's channel shape does
/// not match its op.
CompressedModelView view_of(
    std::vector<bnn::OpRecord> ops,
    std::vector<std::reference_wrapper<const KernelCompression>> blocks);

/// Same, over contiguous artifacts (an Engine's block_streams(), a
/// pipeline's KernelCompressions).
inline CompressedModelView view_of(
    std::vector<bnn::OpRecord> ops,
    std::span<const KernelCompression> streams) {
  return view_of(std::move(ops),
                 std::vector<std::reference_wrapper<const KernelCompression>>(
                     streams.begin(), streams.end()));
}

}  // namespace bkc::compress
