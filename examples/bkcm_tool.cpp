// Command-line round trip for the BKCM container format: compress a
// ReActNet to disk, inspect / verify a container, classify straight
// from compressed bits (no original weights anywhere in the load path),
// and run the paper's CPU/decoder timing comparison directly from a
// container's artifacts (no kernel is ever decoded for `speedup`).
//
//   ./examples/bkcm_tool compress [--out model.bkcm] [--tiny] [--seed S]
//                                 [--threads N] [--no-clustering]
//   ./examples/bkcm_tool info     [--file model.bkcm]
//   ./examples/bkcm_tool verify   [--file model.bkcm] [--threads N]
//   ./examples/bkcm_tool classify [--file model.bkcm] [--images N]
//                                 [--threads N]
//   ./examples/bkcm_tool speedup  [--file model.bkcm]
//                                 [--sampled [--clusters K] [--threads N]]
//
// Each subcommand accepts only the flags listed above; any other "--"
// argument fails by name (exit 1) instead of being ignored.
//
// The CTest smoke targets chain `compress --tiny` with `info`,
// `verify`, `classify`, `speedup` and `speedup --sampled --clusters 1`
// on the same file, proving the save -> load -> inference and the
// save -> simulate paths end to end; one more `info` run reads the
// permanent v1 golden container, and a misspelt flag must fail.

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "compress/block_codec.h"
#include "core/bkc.h"

namespace {

using namespace bkc;

/// A seed is a full uint64 (0 is valid), unlike the thread/image counts
/// positive_flag_value covers.
std::uint64_t seed_flag(int argc, char** argv) {
  const std::string text = flag_string_value(argc, argv, "--seed", "42");
  std::uint64_t seed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), seed);
  check(ec == std::errc() && ptr == text.data() + text.size(),
        "--seed: malformed unsigned integer '", text, "'");
  return seed;
}

int run_compress(int argc, char** argv) {
  check_known_flags(argc, argv,
                    {"--out", "--tiny", "--seed", "--threads",
                     "--no-clustering"});
  const std::string path(
      flag_string_value(argc, argv, "--out", "model.bkcm"));
  const int num_threads = positive_flag_value(argc, argv, "--threads", 2);
  const std::uint64_t seed = seed_flag(argc, argv);
  bnn::ReActNetConfig config = has_flag(argc, argv, "--tiny")
                                   ? bnn::tiny_reactnet_config(seed)
                                   : bnn::paper_reactnet_config(seed);
  EngineOptions options;
  options.clustering = !has_flag(argc, argv, "--no-clustering");

  Engine engine(config, options);
  const auto& report = engine.compress(num_threads);
  engine.save_compressed(path);

  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  check(!ec, "bkcm_tool: cannot stat ", path);
  std::cout << "wrote " << path << ": " << file_size << " bytes, "
            << report.blocks.size() << " blocks, kernel ratio "
            << ratio_str(options.clustering ? report.mean_clustering_ratio
                                            : report.mean_encoding_ratio)
            << ", whole model " << ratio_str(report.model_ratio) << "\n";
  return 0;
}

int run_info(int argc, char** argv) {
  check_known_flags(argc, argv, {"--file"});
  const std::string path(
      flag_string_value(argc, argv, "--file", "model.bkcm"));
  const auto file = read_file_bytes(path);
  const compress::BkcmInfo info = compress::inspect_bkcm(file);
  std::cout << path << ": BKCM version " << info.version << ", "
            << info.file_size << " bytes, clustering "
            << ((info.flags & compress::kBkcmFlagClustering) ? "on" : "off")
            << "\n";
  Table sections({"section", "offset", "bytes", "crc32"});
  for (const auto& section : info.sections) {
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", section.crc);
    sections.row()
        .add(section.name)
        .add(std::to_string(section.offset))
        .add(std::to_string(section.length))
        .add(crc);
  }
  sections.print("Section table");

  // The section table above prints even when a payload is corrupt; the
  // full parse comes second.
  const compress::MappedBkcm mapped = compress::MappedBkcm::open(path);
  const auto& config = mapped.model_config();
  std::cout << "\nmodel: " << config.blocks.size() << " blocks, input "
            << config.input_channels << "x" << config.input_size << "x"
            << config.input_size << ", " << config.num_classes
            << " classes, seed " << config.seed << "\n";

  Table streams({"block", "sequences", "stream bits"});
  for (std::size_t b = 0; b < mapped.blocks().size(); ++b) {
    const compress::KernelCompression& stream = mapped.blocks()[b].artifact;
    streams.row()
        .add(std::to_string(b))
        .add(std::to_string(stream.compressed.num_sequences()))
        .add(std::to_string(stream.compressed.stream_bits));
  }
  streams.print("Per-block streams");
  const compress::ModelReport& report = mapped.report();
  std::cout << "report: encoding " << ratio_str(report.mean_encoding_ratio)
            << ", clustering " << ratio_str(report.mean_clustering_ratio)
            << ", whole model " << ratio_str(report.model_ratio) << " ("
            << bits_str(report.model_bits) << " total)\n";
  return 0;
}

int run_verify(int argc, char** argv) {
  // The original weights are not stored, so verification means
  // cross-checking the container's INDEPENDENT artifacts against each
  // other (not decode-vs-what-decode-installed, which is circular).
  // Loading runs every header/CRC/payload gate of MappedBkcm::open
  // (including the codec-id gate: a CRC-valid hostile v2 file cannot
  // select a codec that does not exist) and decodes every stream; then
  // verify_artifact checks each block's decoded stream and stored remap
  // against its frequency tables.
  check_known_flags(argc, argv, {"--file", "--threads"});
  const std::string path(
      flag_string_value(argc, argv, "--file", "model.bkcm"));
  const int num_threads = positive_flag_value(argc, argv, "--threads", 2);

  const Engine engine = Engine::load_compressed(path, num_threads);
  const std::vector<compress::KernelCompression>& streams =
      engine.block_streams();
  for (std::size_t b = 0; b < streams.size(); ++b) {
    compress::verify_artifact(streams[b], b);
  }
  std::cout << path << ": verified (" << streams.size()
            << " blocks; container loads cleanly, every stream passed its "
               "artifact cross-checks)\n";
  return 0;
}

int run_classify(int argc, char** argv) {
  check_known_flags(argc, argv, {"--file", "--images", "--threads"});
  const std::string path(
      flag_string_value(argc, argv, "--file", "model.bkcm"));
  const int num_threads = positive_flag_value(argc, argv, "--threads", 2);
  const int num_images = positive_flag_value(argc, argv, "--images", 2);

  const Engine engine = Engine::load_compressed(path, num_threads);
  bnn::WeightGenerator gen(123);
  std::vector<Tensor> images;
  for (int i = 0; i < num_images; ++i) {
    images.push_back(gen.sample_activation(engine.model().input_shape()));
  }
  const std::vector<Tensor> scores =
      engine.classify_batch(images, num_threads);
  for (int i = 0; i < num_images; ++i) {
    const Tensor& score = scores[static_cast<std::size_t>(i)];
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < score.shape().channels; ++c) {
      if (score.at(c, 0, 0) > score.at(best, 0, 0)) best = c;
    }
    std::cout << "image " << i << ": top-1 class " << best << " (score "
              << score.at(best, 0, 0) << ")\n";
  }
  std::cout << num_images << " image(s) classified from compressed bits ("
            << path << ")\n";
  return 0;
}

int run_speedup(int argc, char** argv) {
  // The artifact-view path end to end: the container is parsed, its
  // 'BLKS' blocks become a CompressedModelView (code lengths come from
  // a prefix scan), and the timing model consumes that view. No compression pass runs, no
  // kernel is decoded and no weight is sampled — the op-record layout
  // comes from the configuration alone (bnn::op_records_for).
  const bool sampled = has_flag(argc, argv, "--sampled");
  // --clusters and --threads tune the sampled walk; the exact one reads
  // neither.
  if (sampled) {
    check_known_flags(argc, argv,
                      {"--file", "--sampled", "--clusters", "--threads"});
  } else {
    check_known_flags(argc, argv, {"--file"});
  }
  const std::string path(
      flag_string_value(argc, argv, "--file", "model.bkcm"));

  const compress::MappedBkcm mapped = compress::MappedBkcm::open(path);
  const std::vector<bnn::OpRecord> ops =
      bnn::op_records_for(mapped.model_config());

  hwsim::SpeedupReport report;
  if (sampled) {
    // Sampled simulation (hwsim/sampled.h): each equal-geometry group
    // splits into at most --clusters runs of close stream bits; only
    // each run's representative block is simulated, the rest
    // extrapolate. Baseline cycles stay exact either way.
    hwsim::SamplingConfig config;
    config.max_clusters_per_group =
        positive_flag_value(argc, argv, "--clusters",
                            config.max_clusters_per_group);
    config.num_threads = positive_flag_value(argc, argv, "--threads", 2);
    hwsim::SampledSpeedupReport sampled_report =
        hwsim::compare_model_sampled(mapped.view(ops), config);
    const hwsim::SamplingSummary& summary = sampled_report.summary;
    std::cout << path << ": sampled simulation — " << summary.simulated_blocks
              << " of " << summary.num_blocks << " blocks simulated ("
              << summary.num_clusters << " runs over "
              << summary.num_geometry_groups
              << " geometry groups; max stream-bits skew "
              << summary.max_stream_bits_skew << ")\n";
    report = std::move(sampled_report.report);
  } else {
    report = hwsim::compare_model(mapped.view(ops));
  }

  std::cout << path << ": " << mapped.blocks().size()
            << " blocks, " << (sampled ? "sampled" : "exact")
            << " timing from mapped streams (clustering "
            << (mapped.clustering() ? "on" : "off") << ")\n";
  Table table({"layer", "baseline kcycles", "sw-decode kcycles",
               "hw-decode kcycles", "sw slowdown", "hw speedup"});
  for (const auto& layer : report.conv3x3) {
    table.row()
        .add(layer.name)
        .add(layer.baseline_cycles / 1000)
        .add(layer.sw_cycles / 1000)
        .add(layer.hw_cycles / 1000)
        .add(ratio_str(layer.sw_slowdown()))
        .add(ratio_str(layer.hw_speedup()));
  }
  table.print("Per-layer timing of the 3x3 binary convolutions");
  std::cout << "\nwhole model: sw-decode slowdown "
            << ratio_str(report.model_sw_slowdown())
            << ", hw-decode speedup "
            << ratio_str(report.model_hw_speedup())
            << " (paper Sec VI: 1.47x slower / 1.35x faster)\n";
  return 0;
}

int usage() {
  std::cerr << "usage: bkcm_tool <compress|info|verify|classify|speedup> "
               "[--out|--file <path>] [--tiny] [--seed S] [--threads N] "
               "[--images N] [--no-clustering] [--sampled] "
               "[--clusters K]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  try {
    if (command == "compress") return run_compress(argc, argv);
    if (command == "info") return run_info(argc, argv);
    if (command == "verify") return run_verify(argc, argv);
    if (command == "classify") return run_classify(argc, argv);
    if (command == "speedup") return run_speedup(argc, argv);
  } catch (const std::exception& e) {
    // CheckError (bad flags, corrupt/truncated container) and anything
    // unexpected: report, don't terminate.
    std::cerr << "bkcm_tool: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
