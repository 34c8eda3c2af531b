// Offline compression throughput: blocks/sec vs thread count.
//
// Measures ModelCompressor::compress_model — the single pass that
// produces the report and both stream artifacts per block — for a range
// of thread counts (1, 2, 4, ... up to --threads). Before timing, the
// parallel pass is checked bit-identical against the serial one (the
// determinism guarantee).
//
//   ./bench/compress_throughput [--tiny] [--threads N] [--repeats N]
//
// Defaults: paper-width channels, threads up to 4, best of 3 repeats.
// --tiny switches to the reduced test model for the CTest smoke run.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <vector>

#include "core/bkc.h"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bkc;

  const bool tiny = has_flag(argc, argv, "--tiny");
  const int max_threads = positive_flag_value(argc, argv, "--threads", 4);
  const int repeats = positive_flag_value(argc, argv, "--repeats", 3);

  const bnn::ReActNetConfig config =
      tiny ? bnn::tiny_reactnet_config(/*seed=*/42)
           : bnn::paper_reactnet_config(/*seed=*/42);
  const bnn::ReActNet model(config);
  const compress::ModelCompressor compressor;
  const auto num_blocks = static_cast<double>(model.num_blocks());
  std::cout << "Model: " << model.num_blocks()
            << " blocks, kernels up to "
            << model.block(model.num_blocks() - 1).config().in_channels
            << " channels\n\n";

  // Correctness gate: the parallel pass must be bit-identical to the
  // serial one before its timing means anything.
  const compress::CompressedModel serial = compressor.compress_model(model, 1);
  const compress::CompressedModel parallel =
      compressor.compress_model(model, max_threads);
  check(serial.blocks.size() == parallel.blocks.size(),
        "compress_throughput: block count diverged");
  for (std::size_t b = 0; b < serial.blocks.size(); ++b) {
    const auto& s = serial.blocks[b];
    const auto& p = parallel.blocks[b];
    check(s.encoding.compressed.stream == p.encoding.compressed.stream &&
              s.clustered.compressed.stream == p.clustered.compressed.stream &&
              s.clustered.coded_kernel == p.clustered.coded_kernel,
          "compress_throughput: parallel streams diverged from serial");
    check(s.report.encoding_ratio == p.report.encoding_ratio &&
              s.report.clustering_ratio == p.report.clustering_ratio &&
              s.report.entropy_bits == p.report.entropy_bits,
          "compress_throughput: parallel report diverged from serial");
  }
  check(serial.report.model_ratio == parallel.report.model_ratio,
        "compress_throughput: model ratio diverged from serial");
  std::cout << "Parallel pass bit-identical to serial: yes\n\n";

  std::vector<int> thread_counts;
  for (int t = 1; t < max_threads; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(max_threads);

  const auto best_of = [&](auto&& work) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      const auto start = clock_type::now();
      work();
      best = std::min(best, seconds_since(start));
    }
    return best;
  };

  Table table({"threads", "seconds", "blocks/sec", "speedup"});
  double base_seconds = 0.0;
  for (int threads : thread_counts) {
    const double seconds =
        best_of([&] { compressor.compress_model(model, threads); });
    if (threads == 1) base_seconds = seconds;
    table.row()
        .add(threads)
        .add(seconds, 4)
        .add(num_blocks / seconds, 1)
        .add(base_seconds > 0.0 ? ratio_str(base_seconds / seconds)
                                : std::string("-"));
  }
  table.print("compress_model throughput (best of " +
              std::to_string(repeats) + ")");

  return 0;
}
