// Regenerates Table V of the paper: the compression ratio of each basic
// block's 3x3 kernel, for encoding-only and for clustering + encoding,
// plus the whole-model compression (the paper's 1.32x kernels / 1.2x
// model headline).

#include <iostream>

#include "core/bkc.h"

int main(int argc, char** argv) try {
  using namespace bkc;
  check_known_flags(argc, argv, {"--tiny"});

  // --tiny swaps in the reduced test model so the CTest smoke run of
  // this binary finishes in milliseconds.
  const bool tiny = has_flag(argc, argv, "--tiny");
  const bnn::ReActNet model(tiny ? bnn::tiny_reactnet_config(/*seed=*/42)
                                 : bnn::paper_reactnet_config(/*seed=*/42));
  const compress::ModelCompressor compressor;
  const compress::ModelReport report = compressor.analyze(model);

  // Paper Table V.
  const double paper_encoding[] = {1.18, 1.22, 1.21, 1.21, 1.19, 1.20, 1.18,
                                   1.20, 1.20, 1.18, 1.19, 1.25, 1.22};
  const double paper_clustering[] = {1.30, 1.30, 1.31, 1.32, 1.30, 1.33, 1.33,
                                     1.32, 1.31, 1.32, 1.33, 1.36, 1.35};

  Table table({"Layer", "Encoding (ours)", "Encoding (paper)",
               "Clustering (ours)", "Clustering (paper)", "Huffman bound"});
  for (std::size_t b = 0; b < report.blocks.size(); ++b) {
    const auto& block = report.blocks[b];
    table.row()
        .add("Block " + std::to_string(b + 1))
        .add(block.encoding_ratio)
        .add(paper_encoding[b])
        .add(block.clustering_ratio)
        .add(paper_clustering[b])
        .add(block.huffman_ratio);
  }
  table.print("Table V - compression ratio per basic block");

  std::cout << "\nMean encoding ratio:    "
            << ratio_str(report.mean_encoding_ratio)
            << "   (paper: 1.18-1.25)\n";
  std::cout << "Mean clustering ratio:  "
            << ratio_str(report.mean_clustering_ratio)
            << "   (paper: 1.32x average)\n";
  std::cout << "Whole-model compression: " << ratio_str(report.model_ratio)
            << "  (paper: 1.2x)\n";
  std::cout << "  with decode tables charged: "
            << ratio_str(report.model_ratio_with_tables) << " ("
            << bits_str(report.decode_table_bits) << " of tables)\n";

  // Node shares: the paper quotes 46/24/23/5 before and 65/25/8/0.6
  // after clustering.
  const auto& mid = report.blocks[6];
  std::cout << "\nNode frequency shares, block 7 (code lengths 6/8/9/12):\n"
            << "  encoding:   ";
  for (double share : mid.node_shares_encoding) {
    std::cout << percent_str(share) << " ";
  }
  std::cout << " (paper: 46% 24% 23% 5%)\n  clustering: ";
  for (double share : mid.node_shares_clustering) {
    std::cout << percent_str(share) << " ";
  }
  std::cout << " (paper: 65% 25% 8% 0.6%)\n";
  std::cout << "\nSee EXPERIMENTS.md for why the encoding-only column is\n"
               "bounded by Table II consistency.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "table5_compression: " << e.what() << "\n";
  return 1;
}
