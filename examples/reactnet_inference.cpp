// Full-size ReActNet walk-through: the paper's evaluation model.
//
// Builds the ImageNet-sized ReActNet-A (13 MobileNet-V1 blocks, 224x224
// input, 1000 classes) with weights calibrated to the paper's Table II
// statistics, reproduces the Table I storage breakdown, compresses the
// kernels, and measures how much the clustering pass perturbs the
// network's outputs (the paper's accuracy-neutrality claim) on a small
// batch of synthetic images.
//
//   ./examples/reactnet_inference [num_images=3] [--tiny] [--threads N]
//
// --threads N fans the image batch out across N workers (the scores
// are bit-identical to the serial run at any N). Note: full 224x224
// inference in the portable engine takes a few seconds per image.

#include <cmath>
#include <iostream>
#include <string_view>
#include <vector>

#include "core/bkc.h"

int main(int argc, char** argv) try {
  using namespace bkc;
  check_known_flags(argc, argv, {"--tiny", "--threads"});
  // The count is positional and optional: skip it when argv[1] is a
  // flag (so `reactnet_inference --tiny` still measures 3 images). Only
  // `--` starts a flag, so `-3` reaches the count check and fails.
  const bool has_count =
      argc > 1 && !std::string_view(argv[1]).starts_with("--");
  const int num_images =
      has_count ? parse_integer<int>("num_images", argv[1]) : 3;
  check(num_images >= 1, "reactnet_inference: num_images must be >= 1");
  const int num_threads = positive_flag_value(argc, argv, "--threads", 2);

  // Reduced spatial size keeps the example responsive while preserving
  // every channel count (the statistics that matter are per-channel).
  // --tiny shrinks the channels too, for the CTest smoke run.
  bnn::ReActNetConfig config = has_flag(argc, argv, "--tiny")
                                   ? bnn::tiny_reactnet_config(/*seed=*/42)
                                   : bnn::paper_reactnet_config(/*seed=*/42);
  config.input_size = has_flag(argc, argv, "--tiny") ? 32 : 64;

  Engine baseline(config, [] {
    EngineOptions o;
    o.clustering = false;
    return o;
  }());
  Engine clustered(config);

  // ---- Table I storage column ----
  const auto storage = baseline.model().storage();
  Table t1({"operation", "storage", "share"});
  for (const auto cls :
       {bnn::OpClass::kInputLayer, bnn::OpClass::kOutputLayer,
        bnn::OpClass::kConv1x1, bnn::OpClass::kConv3x3,
        bnn::OpClass::kOther}) {
    t1.row()
        .add(bnn::op_class_name(cls))
        .add(bits_str(storage.bits_by_class.at(cls)))
        .add(percent_str(storage.bits_fraction(cls)));
  }
  t1.print("Storage breakdown (paper Table I: 0.02 / 22.2 / 8.5 / 68 %)");

  // ---- Compression ----
  const auto& report = clustered.compress(num_threads);
  baseline.compress(num_threads);
  std::cout << "\nKernel compression: encoding "
            << ratio_str(report.mean_encoding_ratio) << ", clustering "
            << ratio_str(report.mean_clustering_ratio)
            << ", whole model " << ratio_str(report.model_ratio)
            << " (paper: ~1.2x / 1.32x / 1.2x)\n";

  // ---- Clustering accuracy proxy ----
  // Compare class scores of the exact network vs the clustered one on
  // synthetic images: top-1 agreement and relative score perturbation.
  // Both batches fan out across --threads workers; the determinism
  // guarantee makes the comparison independent of the thread count.
  bnn::WeightGenerator gen(123);
  std::vector<Tensor> images;
  for (int i = 0; i < num_images; ++i) {
    images.push_back(gen.sample_activation(baseline.model().input_shape()));
  }
  const std::vector<Tensor> exact_scores =
      baseline.classify_batch(images, num_threads);
  const std::vector<Tensor> approx_scores =
      clustered.classify_batch(images, num_threads);
  int agree = 0;
  double rel_error_sum = 0.0;
  for (int i = 0; i < num_images; ++i) {
    const Tensor& exact = exact_scores[static_cast<std::size_t>(i)];
    const Tensor& approx = approx_scores[static_cast<std::size_t>(i)];
    std::int64_t best_exact = 0;
    std::int64_t best_approx = 0;
    double diff = 0.0;
    double mag = 0.0;
    for (std::int64_t c = 0; c < exact.shape().channels; ++c) {
      if (exact.at(c, 0, 0) > exact.at(best_exact, 0, 0)) best_exact = c;
      if (approx.at(c, 0, 0) > approx.at(best_approx, 0, 0)) {
        best_approx = c;
      }
      diff += std::abs(exact.at(c, 0, 0) - approx.at(c, 0, 0));
      mag += std::abs(exact.at(c, 0, 0));
    }
    agree += best_exact == best_approx;
    rel_error_sum += diff / (mag + 1e-9);
    std::cout << "image " << i << ": top-1 exact=" << best_exact
              << " clustered=" << best_approx << " (relative score delta "
              << percent_str(diff / (mag + 1e-9)) << ")\n";
  }
  std::cout << "\nTop-1 agreement: " << agree << "/" << num_images
            << ", mean relative score delta "
            << percent_str(rel_error_sum / num_images)
            << " - the clustering perturbation the paper reports as "
               "accuracy-neutral.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "reactnet_inference: " << e.what() << "\n";
  return 1;
}
