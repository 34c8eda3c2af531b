#include "hwsim/bbv.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace bkc::hwsim {

GeometryKey GeometryKey::from_op(const bnn::OpRecord& op) {
  return GeometryKey{.in_channels = op.kernel_shape.in_channels,
                     .out_channels = op.kernel_shape.out_channels,
                     .kernel = op.kernel_shape.kernel_h,
                     .stride = op.geometry.stride,
                     .padding = op.geometry.padding,
                     .in_h = op.input_shape.height,
                     .in_w = op.input_shape.width,
                     .out_h = op.output_shape.height,
                     .out_w = op.output_shape.width};
}

std::vector<double> block_signature(const compress::BlockStreamView& block) {
  check(!block.code_lengths.empty(),
        "block_signature: block carries no code-length vector");
  std::vector<double> histogram(static_cast<std::size_t>(kSignatureBins),
                                0.0);
  for (const std::uint8_t length : block.code_lengths) {
    check(length >= 1, "block_signature: zero-length codeword");
    const int bin = std::min<int>(length, kSignatureBins) - 1;
    histogram[static_cast<std::size_t>(bin)] += 1.0;
  }
  const double total = static_cast<double>(block.code_lengths.size());
  for (double& h : histogram) h /= total;
  return histogram;
}

std::vector<std::vector<double>> project_signatures(
    const std::vector<std::vector<double>>& signatures, int dims,
    std::uint64_t seed) {
  check(dims >= 1, "project_signatures: dims must be >= 1");
  for (const auto& signature : signatures) {
    check(static_cast<int>(signature.size()) == kSignatureBins,
          "project_signatures: signature has ", signature.size(),
          " entries, expected ", kSignatureBins);
  }
  // One shared matrix, entries in fixed row-major order: the projection
  // of a signature depends on (dims, seed) alone, never on how many
  // other signatures ride along.
  std::uint64_t state = seed;
  Rng rng(splitmix64(state));
  const double scale = 1.0 / std::sqrt(static_cast<double>(dims));
  std::vector<double> matrix;
  matrix.reserve(static_cast<std::size_t>(dims) * kSignatureBins);
  for (int d = 0; d < dims; ++d) {
    for (int b = 0; b < kSignatureBins; ++b) {
      matrix.push_back(rng.normal() * scale);
    }
  }

  std::vector<std::vector<double>> projected;
  projected.reserve(signatures.size());
  for (const auto& signature : signatures) {
    std::vector<double> point(static_cast<std::size_t>(dims), 0.0);
    for (int d = 0; d < dims; ++d) {
      double dot = 0.0;
      const double* row =
          matrix.data() + static_cast<std::size_t>(d) * kSignatureBins;
      for (int b = 0; b < kSignatureBins; ++b) {
        dot += row[b] * signature[static_cast<std::size_t>(b)];
      }
      point[static_cast<std::size_t>(d)] = dot;
    }
    projected.push_back(std::move(point));
  }
  return projected;
}

}  // namespace bkc::hwsim
