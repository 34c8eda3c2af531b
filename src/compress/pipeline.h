#pragma once
// Model-level compression pipeline (Sec IV-A), organised as ONE pass
// per basic block (BlockCodec::compress_block, compress/block_codec.h):
//   1. compute the frequency of use of every bit sequence in the
//      block's 3x3 binary kernel (offline),
//   2. run the clustering pass (Sec III-C),
//   3. build the simplified Huffman trees and assign encodings,
//   4. emit the compressed stream per block (with and without
//      clustering),
//   5. derive every report number from those artifacts.
// Each primitive — frequency count, clustering search, codec build —
// runs exactly once per distinct input per block; the report is a pure
// function of the emitted artifacts, so measured and deployed storage
// can never drift apart. The per-block numbers feed Table II / Table V;
// the model-level ratio (the paper's 1.2x) weighs the compressed 3x3
// convolutions against the unchanged rest of the network using the
// Table I storage breakdown.

#include <cstdint>
#include <vector>

#include "bnn/reactnet.h"
#include "compress/block_codec.h"

namespace bkc::compress {

/// Whole-model outcome.
struct ModelReport {
  std::vector<BlockReport> blocks;

  std::uint64_t model_bits = 0;             ///< total parameter storage
  std::uint64_t conv3x3_bits = 0;           ///< uncompressed 3x3 storage
  std::uint64_t conv3x3_encoding_bits = 0;  ///< after encoding only
  std::uint64_t conv3x3_clustering_bits = 0;
  std::uint64_t decode_table_bits = 0;      ///< clustering-mode tables

  double mean_encoding_ratio = 0.0;    ///< paper: 1.18-1.25, avg ~1.2
  double mean_clustering_ratio = 0.0;  ///< paper: 1.32 on average
  /// Whole-model storage ratio with the clustered streams (paper: 1.2x).
  double model_ratio = 0.0;
  /// Same, charging the decode tables to the compressed side.
  double model_ratio_with_tables = 0.0;
};

/// Whole-model outcome of the single pass: per-block artifacts plus the
/// aggregated report (which embeds copies of the per-block reports).
struct CompressedModel {
  std::vector<CompressedBlock> blocks;
  ModelReport report;
};

/// Serial in-order reduction of per-block reports into a ModelReport.
/// `model_bits` is the whole-model parameter storage (Table I total).
/// Fails with CheckError when `blocks` is empty, when the storage
/// breakdown is inconsistent (model_bits < the summed 3x3 bits — the
/// unsigned subtraction would otherwise underflow), or when the
/// compressed-side storage is zero bits (the ratio would be inf).
/// Exposed so the hardening is testable with fabricated reports.
ModelReport aggregate_block_reports(std::vector<BlockReport> blocks,
                                    std::uint64_t model_bits);

/// Drives the pipeline over a ReActNet. The per-block work is
/// BlockCodec::compress_block (compress/block_codec.h), run once per
/// block.
class ModelCompressor {
 public:
  explicit ModelCompressor(GroupedTreeConfig tree = GroupedTreeConfig::paper(),
                           ClusteringConfig clustering = {});

  /// The single pass: build the frequency table, clustering result and
  /// both codecs exactly once per block, emit both streams, and derive
  /// every report field from those artifacts. Blocks fan out over
  /// `num_threads` (util/thread_pool.h) with a fixed partition and a
  /// serial in-order reduction, so the result is bit-identical to the
  /// serial (num_threads == 1) outcome at every thread count. Does not
  /// mutate the model. Fails fast on a model with no blocks.
  CompressedModel compress_model(const bnn::ReActNet& model,
                                 int num_threads = 1) const;

  /// Measure everything (both Table V columns) without mutating the
  /// model. Thin view over compress_model(): returns just the report.
  /// Costs a full pass (streams included) — callers that also need the
  /// artifacts should call compress_model() once instead; the single
  /// code path is the point of the design (no report/stream drift).
  ModelReport analyze(const bnn::ReActNet& model, int num_threads = 1) const;

  const GroupedTreeConfig& tree() const { return codec_.tree(); }
  const ClusteringConfig& clustering() const { return codec_.clustering(); }

 private:
  BlockCodec codec_;
};

}  // namespace bkc::compress
