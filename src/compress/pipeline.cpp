#include "compress/pipeline.h"

#include <optional>
#include <utility>

#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace bkc::compress {

ModelCompressor::ModelCompressor(GroupedTreeConfig tree,
                                 ClusteringConfig clustering)
    : codec_(std::move(tree), clustering) {}

ModelReport aggregate_block_reports(std::vector<BlockReport> blocks,
                                    std::uint64_t model_bits) {
  check(!blocks.empty(), "ModelCompressor: model has no blocks");

  // Serial, in block order: keeping the reduction serial makes the
  // aggregate sums and means bit-identical to the single-threaded path.
  ModelReport report;
  std::vector<double> encoding_ratios;
  std::vector<double> clustering_ratios;
  for (BlockReport& block_report : blocks) {
    report.conv3x3_bits += block_report.uncompressed_bits;
    report.conv3x3_encoding_bits += block_report.encoding_bits;
    report.conv3x3_clustering_bits += block_report.clustering_bits;
    report.decode_table_bits += block_report.decode_table_bits;
    encoding_ratios.push_back(block_report.encoding_ratio);
    clustering_ratios.push_back(block_report.clustering_ratio);
    report.blocks.push_back(std::move(block_report));
  }

  report.mean_encoding_ratio = mean(encoding_ratios);
  report.mean_clustering_ratio = mean(clustering_ratios);

  report.model_bits = model_bits;
  check(report.model_bits >= report.conv3x3_bits,
        "ModelCompressor: inconsistent storage breakdown: model_bits (",
        report.model_bits, ") < summed 3x3 bits (", report.conv3x3_bits, ")");
  const std::uint64_t other_bits = report.model_bits - report.conv3x3_bits;
  const std::uint64_t compressed_bits =
      other_bits + report.conv3x3_clustering_bits;
  check(compressed_bits > 0,
        "ModelCompressor: compressed model storage is zero bits");
  report.model_ratio = static_cast<double>(report.model_bits) /
                       static_cast<double>(compressed_bits);
  report.model_ratio_with_tables =
      static_cast<double>(report.model_bits) /
      static_cast<double>(compressed_bits + report.decode_table_bits);
  return report;
}

CompressedModel ModelCompressor::compress_model(const bnn::ReActNet& model,
                                                int num_threads) const {
  // Fail fast, before any fan-out (an empty model would otherwise only
  // surface in the reduction).
  check(model.num_blocks() > 0, "ModelCompressor: model has no blocks");

  // Phase 1 (parallel): one pipeline pass per block into disjoint
  // slots. Blocks are independent by construction, so the fan-out
  // cannot change any per-block artifact or number. CompressedBlock is
  // not default-constructible (the codecs require a frequency table),
  // so the parallel phase fills optional slots.
  std::vector<std::optional<CompressedBlock>> slots(model.num_blocks());
  parallel_for(static_cast<std::int64_t>(model.num_blocks()), num_threads,
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t b = begin; b < end; ++b) {
                   const auto i = static_cast<std::size_t>(b);
                   const auto& block = model.block(i);
                   slots[i].emplace(codec_.compress_block(
                       block.name(), block.conv3x3().kernel()));
                 }
               });

  // Phase 2 (serial, in block order): unwrap and reduce.
  CompressedModel out;
  out.blocks.reserve(model.num_blocks());
  std::vector<BlockReport> reports;
  reports.reserve(model.num_blocks());
  for (std::optional<CompressedBlock>& slot : slots) {
    reports.push_back(slot->report);
    out.blocks.push_back(std::move(*slot));
  }
  out.report = aggregate_block_reports(std::move(reports),
                                       model.storage().total_bits);
  return out;
}

ModelReport ModelCompressor::analyze(const bnn::ReActNet& model,
                                     int num_threads) const {
  return compress_model(model, num_threads).report;
}

}  // namespace bkc::compress
