#include "support/configs.h"

namespace bkc::test {

bnn::ReActNetConfig tiny_config(std::uint64_t seed) {
  return bnn::tiny_reactnet_config(seed);
}

bnn::ReActNetConfig mid_config(std::uint64_t seed) {
  bnn::ReActNetConfig config;
  config.input_size = 32;
  config.num_classes = 10;
  config.blocks = bnn::mobilenet_v1_schedule(4);
  config.stem_channels = config.blocks.front().in_channels;
  config.seed = seed;
  return config;
}

Tensor run_forward(const bnn::ReActNet& model, const Tensor& image) {
  bnn::Workspace workspace(model.memory_plan());
  Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
  model.forward_into(image, scores, workspace);
  return scores;
}

EngineOptions no_clustering() {
  EngineOptions options;
  options.clustering = false;
  return options;
}

std::vector<compress::KernelCompression> clustered_artifacts(
    const bnn::ReActNet& model) {
  compress::CompressedModel compressed =
      compress::ModelCompressor().compress_model(model);
  std::vector<compress::KernelCompression> artifacts;
  artifacts.reserve(compressed.blocks.size());
  for (compress::CompressedBlock& block : compressed.blocks) {
    artifacts.push_back(std::move(block.clustered));
  }
  return artifacts;
}

std::vector<compress::GroupedTreeConfig> codec_tree_configs() {
  return {
      compress::GroupedTreeConfig::paper(),   // capacity 672
      compress::GroupedTreeConfig::fixed9(),  // capacity 512, fixed width
      compress::GroupedTreeConfig{{3, 5, 8}}, // capacity 8+32+256 = 296
      compress::GroupedTreeConfig{{1, 2, 8}}, // capacity 2+4+256 = 262
      compress::GroupedTreeConfig{{4, 4}},    // capacity 32
      compress::GroupedTreeConfig{{0, 0, 4}}, // capacity 18, 1-entry nodes
  };
}

}  // namespace bkc::test
