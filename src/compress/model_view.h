#pragma once
// CompressedModelView — the artifact boundary between the compression
// pipeline and every downstream consumer of its outputs.
//
// The hwsim decoder/timing model (and any future deployment backend)
// needs exactly what the paper's hardware unit is configured with: per
// block, the decode tables, the clustering remap, the compressed
// bitstream and its per-codeword lengths — plus the model's op-record
// layout to know which op each stream belongs to. It does NOT need a
// live ReActNet or a ModelCompressor, and it must never trigger a
// compression pass of its own. CompressedModelView is that contract: a
// non-owning bundle of spans/pointers over artifacts that already
// exist, whether they live
//   * in an Engine (Engine::artifact_view over block_streams()),
//   * in a freshly run pipeline (view_of over its KernelCompressions),
//   * or in a memory-mapped BKCM container (MappedBkcm::view — the
//     bitstream spans point straight into the file mapping).
//
// Ownership rule: `ops` is owned by the view (op records are small
// value-type layout metadata, rebuilt on the fly by every producer);
// everything reachable from `blocks` is borrowed and must outlive the
// view. The view itself is cheap to move; copying it never copies a
// stream.

#include <cstdint>
#include <span>
#include <vector>

#include "bnn/model.h"
#include "compress/kernel_codec.h"

namespace bkc::compress {

/// Non-owning spans over one basic block's compression artifacts (the
/// hardware configuration of the paper's Table III, plus the decode
/// tables and remap the unit is loaded with).
struct BlockStreamView {
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  /// The compressed kernel bitstream (MSB-first codewords).
  std::span<const std::uint8_t> stream;
  std::size_t stream_bits = 0;
  /// Per-sequence codeword bit lengths in stream order; their sum is
  /// `stream_bits`.
  std::span<const std::uint8_t> code_lengths;
  /// Decode tables (the Fig. 6 scratchpad banks).
  const GroupedHuffmanCodec* codec = nullptr;
  /// Clustering remap the stream was emitted under (identity when the
  /// pipeline ran without clustering).
  const ClusteringResult* clustering = nullptr;

  std::size_t num_sequences() const {
    return static_cast<std::size_t>(out_channels * in_channels);
  }
};

/// The whole-model artifact view: the op-record layout (owned) and one
/// borrowed BlockStreamView per 3x3 binary convolution, in op order.
struct CompressedModelView {
  std::vector<bnn::OpRecord> ops;
  std::vector<BlockStreamView> blocks;
};

/// Build a view over pipeline/engine artifacts: one BlockStreamView per
/// entry of `streams` (which must outlive the view), paired in order
/// with the 3x3 binary-conv ops of `ops`. CheckError when the stream
/// count does not match the op layout, a stream's channel shape does
/// not match its op, or a stream carries no code-length vector (an
/// artifact produced before the lengths were part of the contract).
CompressedModelView view_of(std::vector<bnn::OpRecord> ops,
                            std::span<const KernelCompression> streams);

/// Shared assembly step for every view producer: pair pre-built block
/// views with the 3x3 binary-conv ops of `ops` in order, validating the
/// block count, each block's channel shape against its op, and that
/// every block carries one code length per sequence. CheckError (naming
/// the op or block index) on any mismatch.
CompressedModelView assemble_view(std::vector<bnn::OpRecord> ops,
                                  std::vector<BlockStreamView> blocks);

}  // namespace bkc::compress
