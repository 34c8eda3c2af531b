// Golden class scores: the exact output bits of the planned forward
// path, frozen per (config, clustering, image). Every float is written
// as the hex of its IEEE-754 bit pattern, so a single-ulp drift in any
// layer fails the comparison. Two configs cover both ends of the
// schedule: the tiny test model, and the paper-width model at 64x64
// input (1024-channel late blocks on 2x2 maps, where every conv tap
// window touches the padding ring). Regenerate with BKC_UPDATE_GOLDEN=1 — only when a change is
// meant to alter inference results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "support/support.h"

namespace bkc {
namespace {

bnn::ReActNetConfig paper_width_64() {
  bnn::ReActNetConfig config = bnn::paper_reactnet_config();
  config.input_size = 64;
  return config;
}

/// One line per (clustering, image): the hex score bits of the planned
/// forward path, cross-checked against Engine::classify on the way.
std::string golden_lines(const std::string& name,
                         const bnn::ReActNetConfig& config) {
  std::string text;
  for (const bool clustering : {false, true}) {
    Engine engine(config,
                  clustering ? EngineOptions{} : test::no_clustering());
    engine.compress(2);
    const std::vector<Tensor> images = test::golden_images(config);
    for (std::size_t i = 0; i < images.size(); ++i) {
      const std::string line =
          test::score_bits(test::run_forward(engine.model(), images[i]));
      EXPECT_EQ(test::score_bits(engine.classify(images[i], 2)), line)
          << name << " image " << i;
      text += name + (clustering ? " clustering" : " encoding_only") +
              " image" + std::to_string(i) + line + "\n";
    }
  }
  return text;
}

TEST(GoldenScores, TinyModel) {
  test::expect_matches_golden(
      "reactnet_tiny_scores.txt",
      golden_lines("tiny", bnn::tiny_reactnet_config()));
}

TEST(GoldenScores, PaperWidthAt64) {
  test::expect_matches_golden("reactnet_paper64_scores.txt",
                              golden_lines("paper64", paper_width_64()));
}

}  // namespace
}  // namespace bkc
