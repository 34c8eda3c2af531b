#include "support/golden.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace bkc::test {

std::string golden_path(const std::string& name) {
  return std::string(BKC_TEST_GOLDEN_DIR) + "/" + name;
}

std::string read_golden(const std::string& name) {
  const std::string path = golden_path(name);
  std::ifstream in(path);
  check(in.good(), "missing golden file ", path,
        " (set BKC_UPDATE_GOLDEN=1 to create it)");
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

bool update_goldens() {
  const char* flag = std::getenv("BKC_UPDATE_GOLDEN");
  return flag != nullptr && *flag != '\0' && std::string(flag) != "0";
}

void expect_matches_golden(const std::string& name,
                           const std::string& actual) {
  if (update_goldens()) {
    const std::string path = golden_path(name);
    std::ofstream out(path);
    check(out.good(), "cannot write golden file ", path);
    out << actual;
    return;
  }
  EXPECT_EQ(read_golden(name), actual) << "golden mismatch: " << name;
}

std::string score_bits(const Tensor& scores) {
  std::string text;
  for (const float v : scores.data()) {
    char word[10];
    std::snprintf(word, sizeof(word), " %08x",
                  std::bit_cast<std::uint32_t>(v));
    text += word;
  }
  return text;
}

std::vector<Tensor> golden_images(const bnn::ReActNetConfig& config) {
  bnn::WeightGenerator gen(config.seed + 1000);
  const FeatureShape shape{config.input_channels, config.input_size,
                           config.input_size};
  std::vector<Tensor> images;
  for (int i = 0; i < 2; ++i) images.push_back(gen.sample_activation(shape));
  return images;
}

std::string golden_scores(const std::string& name, const std::string& key) {
  std::istringstream lines(read_golden(name));
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with(key + " ")) return line.substr(key.size());
  }
  check(false, "golden file ", name, " has no line '", key, "'");
  return {};
}

}  // namespace bkc::test
