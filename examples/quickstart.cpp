// Quickstart: compress a BNN's 3x3 kernels and run inference from them.
//
// Walks the whole public API in ~60 lines: build a (reduced) ReActNet
// with calibrated synthetic weights, compress its binary kernels with
// the paper's simplified Huffman tree + clustering, verify the streams
// decode bit-exactly, and classify a synthetic image.
//
//   ./examples/quickstart

#include <iostream>
#include <vector>

#include "core/bkc.h"

int main(int argc, char** argv) try {
  using namespace bkc;
  check_known_flags(argc, argv, {});

  // A reduced ReActNet (32x32 input, width/8 channels, 10 classes) so
  // the example runs in well under a second. Use
  // bnn::paper_reactnet_config() for the full ImageNet-sized model.
  Engine engine(bnn::tiny_reactnet_config(/*seed=*/42));

  std::cout << "Model: " << engine.model().num_blocks()
            << " ReActNet basic blocks, input "
            << engine.model().input_shape().to_string() << "\n";
  std::cout << "Total parameter storage: "
            << bits_str(engine.model().storage().total_bits) << "\n\n";

  // Compress every 3x3 binary kernel (Sec IV-A pipeline: frequency
  // analysis -> clustering -> simplified Huffman tree -> stream).
  const compress::ModelReport& report = engine.compress();

  Table table({"block", "sequences", "encoding", "clustering", "flipped"});
  for (const auto& block : report.blocks) {
    table.row()
        .add(block.block_name)
        .add(block.num_sequences)
        .add(ratio_str(block.encoding_ratio))
        .add(ratio_str(block.clustering_ratio))
        .add(percent_str(block.flipped_bit_fraction, 2));
  }
  table.print("Per-block compression (quickstart model)");

  std::cout << "\nMean encoding ratio:   "
            << ratio_str(report.mean_encoding_ratio) << "\n";
  std::cout << "Mean clustering ratio: "
            << ratio_str(report.mean_clustering_ratio) << "\n";
  std::cout << "Whole-model ratio:     " << ratio_str(report.model_ratio)
            << "\n\n";

  // The compressed streams must reproduce the deployed kernels exactly.
  std::cout << "Stream verification: "
            << (engine.verify_streams() ? "bit-exact" : "MISMATCH")
            << "\n";

  // Classify a small batch of synthetic images with the compressed
  // (clustered) network. classify_batch fans independent images out
  // across worker threads; scores are bit-identical to classifying each
  // image serially, whatever the thread count.
  bnn::WeightGenerator input_gen(7);
  std::vector<Tensor> images;
  for (int i = 0; i < 4; ++i) {
    images.push_back(
        input_gen.sample_activation(engine.model().input_shape()));
  }
  const std::vector<Tensor> batch_scores =
      engine.classify_batch(images, /*num_threads=*/4);
  for (std::size_t i = 0; i < batch_scores.size(); ++i) {
    const Tensor& scores = batch_scores[i];
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < scores.shape().channels; ++c) {
      if (scores.at(c, 0, 0) > scores.at(best, 0, 0)) best = c;
    }
    std::cout << "Predicted class for synthetic image " << i << ": " << best
              << " (score " << scores.at(best, 0, 0) << ")\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 1;
}
