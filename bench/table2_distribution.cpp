// Regenerates Table II of the paper: the share of occurrences covered
// by the top-64 and top-256 bit sequences in each basic block's 3x3
// kernels.

#include <iostream>

#include "core/bkc.h"

int main(int argc, char** argv) try {
  using namespace bkc;
  check_known_flags(argc, argv, {"--tiny"});

  // --tiny swaps in the reduced test model so the CTest smoke run of
  // this binary finishes in milliseconds.
  const bnn::ReActNet model(has_flag(argc, argv, "--tiny")
                                ? bnn::tiny_reactnet_config(/*seed=*/42)
                                : bnn::paper_reactnet_config(/*seed=*/42));
  const auto& paper = bnn::paper_table2_targets();

  Table table({"Layer", "Top 64 (ours)", "Top 64 (paper)",
               "Top 256 (ours)", "Top 256 (paper)", "sequences"});
  double max_abs_err64 = 0.0;
  double max_abs_err256 = 0.0;
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    const auto freq = compress::FrequencyTable::from_kernel(
        model.block(b).conv3x3().kernel());
    const double top64 = freq.top_k_share(64);
    const double top256 = freq.top_k_share(256);
    max_abs_err64 = std::max(max_abs_err64,
                             std::abs(top64 - paper[b].top64));
    max_abs_err256 = std::max(max_abs_err256,
                              std::abs(top256 - paper[b].top256));
    table.row()
        .add("Block " + std::to_string(b + 1))
        .add(percent_str(top64))
        .add(percent_str(paper[b].top64))
        .add(percent_str(top256))
        .add(percent_str(paper[b].top256))
        .add(freq.total());
  }
  table.print("Table II - distribution of bit sequences per basic block");

  std::cout << "\nLargest deviation from the paper: top-64 "
            << percent_str(max_abs_err64) << ", top-256 "
            << percent_str(max_abs_err256)
            << " (finite-sample noise; the weight generator is fitted to\n"
               "the paper's targets and converges with channel count).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "table2_distribution: " << e.what() << "\n";
  return 1;
}
