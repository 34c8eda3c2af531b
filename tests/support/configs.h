#pragma once
// Shared model/engine configuration factories for the bkc test suites.
//
// All model-level suites run on reduced ReActNets; the factories here
// fix the sizes in one place so every suite agrees on what "tiny" and
// "mid" mean (and on how many blocks / channels the assertions can
// rely on).

#include <cstdint>
#include <vector>

#include "bnn/reactnet.h"
#include "compress/grouped_huffman.h"
#include "core/engine.h"

namespace bkc::test {

/// 32x32 input, width/8 channels, 10 classes - the fastest full model
/// (alias of bnn::tiny_reactnet_config, re-exported so suites only
/// depend on the support library for their fixtures).
bnn::ReActNetConfig tiny_config(std::uint64_t seed);

/// 32x32 input, width/4 channels (128-256 per block), 10 classes.
/// Large enough for per-block frequency statistics to be meaningful.
bnn::ReActNetConfig mid_config(std::uint64_t seed);

/// One image through ReActNet::forward_into with a fresh workspace
/// sized by the model's memory plan; returns the class scores.
Tensor run_forward(const bnn::ReActNet& model, const Tensor& image);

/// Engine options with the Sec III-C clustering pass disabled
/// (encoding-only mode; inference stays bit-exact).
EngineOptions no_clustering();

/// Every block's clustered artifact from one default compress_model
/// pass over `model`, in the contiguous form compress::view_of borrows.
std::vector<compress::KernelCompression> clustered_artifacts(
    const bnn::ReActNet& model);

/// Grouped-Huffman tree shapes under test: the paper's config, the
/// fixed-width baseline, and assorted capacities (tight, tiny,
/// two-node, 1-entry nodes) that stress prefix handling and partially
/// filled nodes. Shared by the codec property and grouped-Huffman
/// suites so both agree on what "all tree shapes" means.
std::vector<compress::GroupedTreeConfig> codec_tree_configs();

}  // namespace bkc::test
