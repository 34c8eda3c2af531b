// Ablation: the clustering parameters M / N / Hamming distance
// (Sec III-C: "we empirically searched for some combinations of M and
// N"). Reruns that search over the whole model: mean compression ratio
// vs the fraction of weight bits flipped (the accuracy proxy).

#include <iostream>

#include "core/bkc.h"

int main(int argc, char** argv) {
  using namespace bkc;
  exit_on_unknown_flags(argc, argv, {"--tiny"});

  // --tiny swaps in the reduced test model so the CTest smoke run of
  // this binary finishes in milliseconds.
  const bnn::ReActNet model(has_flag(argc, argv, "--tiny")
                                ? bnn::tiny_reactnet_config(/*seed=*/42)
                                : bnn::paper_reactnet_config(/*seed=*/42));

  Table table({"M (common)", "N (removed)", "max dist", "mean ratio",
               "flipped bits", "model ratio"});

  auto run = [&](std::size_t m, std::size_t n, int d) {
    const compress::ClusteringConfig config{
        .most_common = m, .least_common = n, .max_distance = d};
    const compress::ModelCompressor compressor(
        compress::GroupedTreeConfig::paper(), config);
    const auto report = compressor.analyze(model);
    double flipped = 0.0;
    for (const auto& block : report.blocks) {
      flipped += block.flipped_bit_fraction;
    }
    flipped /= static_cast<double>(report.blocks.size());
    table.row()
        .add(static_cast<std::uint64_t>(m))
        .add(static_cast<std::uint64_t>(n))
        .add(d)
        .add(report.mean_clustering_ratio)
        .add(percent_str(flipped, 2))
        .add(report.model_ratio);
  };

  for (const std::size_t m : {32u, 64u, 128u, 256u}) {
    for (const std::size_t n : {128u, 256u, 352u, 448u}) {
      run(m, n, 1);
    }
  }
  // The Hamming-distance axis at the paper's (M, N).
  run(64, 352, 2);
  run(64, 352, 3);

  table.print(
      "Clustering ablation over the 13 ReActNet blocks "
      "(paper default M=64, N=352, d=1)");

  std::cout << "\nReading guide: ratio grows with N (more rare sequences\n"
               "removed) and with d (more substitutions succeed), but the\n"
               "flipped-bit fraction - the error injected into the kernels\n"
               "- grows with both. The paper constrains d=1 and removes\n"
               "the rare sequences, keeping the perturbation ~1-3% of\n"
               "weight bits for a ~1.3x kernel compression.\n";
  return 0;
}
