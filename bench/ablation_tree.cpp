// Ablation: the simplified-tree design point (Sec III-B / Sec VI).
//
// The paper claims the 4-node tree is "a good trade-off between
// simplicity and compression rate". This bench quantifies that claim:
// mean compression ratio over all 13 blocks for trees of different
// shapes, against the full canonical Huffman code (the optimum) and the
// fixed 9-bit baseline, together with the decode-table storage each
// tree needs (the hardware cost axis).

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/bkc.h"
#include "util/json.h"

int main(int argc, char** argv) {
  using namespace bkc;
  exit_on_unknown_flags(argc, argv, {"--tiny", "--json"});

  // --tiny swaps in the reduced test model so the CTest smoke run of
  // this binary finishes in milliseconds. --json FILE additionally
  // writes the sweep machine-readably (the codec shoot-out snapshot
  // BENCH_codecs.json follows the same idiom).
  const bool tiny = has_flag(argc, argv, "--tiny");
  const std::string json_path(flag_string_value(argc, argv, "--json", ""));
  const bnn::ReActNet model(tiny ? bnn::tiny_reactnet_config(/*seed=*/42)
                                 : bnn::paper_reactnet_config(/*seed=*/42));

  struct TreePoint {
    std::string name;
    compress::GroupedTreeConfig config;
  };
  const std::vector<TreePoint> trees = {
      {"fixed 9-bit (no compression)", compress::GroupedTreeConfig::fixed9()},
      {"2 nodes {6,9}", {.index_bits = {6, 9}}},
      {"3 nodes {5,6,9}", {.index_bits = {5, 6, 9}}},
      {"4 nodes {5,6,6,9} (paper)", compress::GroupedTreeConfig::paper()},
      {"5 nodes {4,5,6,6,9}", {.index_bits = {4, 5, 6, 6, 9}}},
      {"6 nodes {3,4,5,6,6,9}", {.index_bits = {3, 4, 5, 6, 6, 9}}},
  };

  Table table({"tree", "mean ratio (clustered)", "mean ratio (encoding)",
               "table bits/block", "vs full Huffman"});
  // Full-Huffman reference on the clustered alphabets.
  std::vector<double> huffman_ratios;
  {
    const compress::ModelCompressor compressor;
    const auto report = compressor.analyze(model);
    for (const auto& block : report.blocks) {
      huffman_ratios.push_back(block.huffman_ratio);
    }
  }
  const double huffman_mean = mean(huffman_ratios);

  // Strict-JSON emitter (util/json.h): tree names contain quotes-free
  // text today, but escaping and round-trip doubles are no longer this
  // bench's problem. Built alongside the table; written only on --json.
  json::Writer json_out;
  json_out.begin_object();
  json_out.key("bench").value("ablation_tree");
  json_out.key("model").value(tiny ? "tiny" : "paper");
  json_out.key("full_huffman_mean").value(huffman_mean);
  json_out.key("trees").begin_array();
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const auto& tree = trees[t];
    const compress::ModelCompressor compressor(tree.config, {});
    const auto report = compressor.analyze(model);
    table.row()
        .add(tree.name)
        .add(report.mean_clustering_ratio)
        .add(report.mean_encoding_ratio)
        .add(report.decode_table_bits / report.blocks.size())
        .add(percent_str(report.mean_clustering_ratio / huffman_mean));
    json_out.begin_object();
    json_out.key("tree").value(tree.name);
    json_out.key("mean_clustering_ratio").value(report.mean_clustering_ratio);
    json_out.key("mean_encoding_ratio").value(report.mean_encoding_ratio);
    json_out.key("table_bits_per_block")
        .value(report.decode_table_bits / report.blocks.size());
    json_out.key("fraction_of_huffman")
        .value(report.mean_clustering_ratio / huffman_mean);
    json_out.end_object();
  }
  json_out.end_array();
  json_out.end_object();
  table.print("Simplified-tree ablation over the 13 ReActNet blocks");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    check(static_cast<bool>(out), "ablation_tree: cannot open ", json_path);
    out << json_out.str();
    std::cout << "wrote " << json_path << "\n";
  }

  std::cout << "\nFull canonical Huffman (optimal prefix code, clustered "
               "alphabet): mean "
            << ratio_str(huffman_mean) << "\n";
  std::cout << "The paper's 4-node point recovers most of the optimal\n"
               "ratio while the decoder needs only a leading-ones prefix\n"
               "detector, a 4-entry length table and a small banked\n"
               "uncompressed table (Fig. 6) - deeper trees buy little.\n";
  return 0;
}
