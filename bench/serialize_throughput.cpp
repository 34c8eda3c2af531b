// BKCM container throughput: save/load MB/s and size accounting.
//
// Measures the full container pipeline over an already-compressed
// engine: write_bkcm (serialize to a memory image), MappedBkcm::open
// (map + validate checksums + parse in place, the parse every load
// ships through) and Engine::load_compressed (open + decode every
// kernel stream + rebuild the model), plus the on-disk size of the
// container against the raw bit-packed 3x3 storage it replaces. Before
// timing, a loaded engine is checked bit-identical to the writer
// (kernels and streams) — throughput of a broken round trip means
// nothing.
//
//   ./bench/serialize_throughput [--tiny] [--threads N] [--repeats N]
//                                [--file serialize_throughput.bkcm]
//
// Defaults: paper-width channels, 2 threads, best of 3 repeats.
// --tiny switches to the reduced test model for the CTest smoke run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/bkc.h"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

std::string mb_per_sec(std::uint64_t bytes, double seconds) {
  char out[32];
  std::snprintf(out, sizeof(out), "%.1f",
                static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bkc;

  const bool tiny = has_flag(argc, argv, "--tiny");
  const int num_threads = positive_flag_value(argc, argv, "--threads", 2);
  const int repeats = positive_flag_value(argc, argv, "--repeats", 3);
  const std::string path(flag_string_value(argc, argv, "--file",
                                           "serialize_throughput.bkcm"));

  Engine engine(tiny ? bnn::tiny_reactnet_config(/*seed=*/42)
                     : bnn::paper_reactnet_config(/*seed=*/42));
  const auto& report = engine.compress(num_threads);
  engine.save_compressed(path);
  const std::vector<std::uint8_t> image = read_file_bytes(path);

  // Correctness gate: the loaded engine must be bit-identical to the
  // writer before any throughput number means anything. (The comparison
  // is against the WRITER's kernels — an independent reference;
  // verify_streams on the loaded engine would be circular.)
  const Engine loaded = Engine::load_compressed(path, num_threads);
  for (std::size_t b = 0; b < engine.model().num_blocks(); ++b) {
    check(loaded.model().block(b).conv3x3().kernel() ==
              engine.model().block(b).conv3x3().kernel(),
          "serialize_throughput: loaded kernel diverged from the writer");
  }
  check(loaded.report().model_ratio == report.model_ratio,
        "serialize_throughput: loaded report diverged from the writer");
  std::cout << "Loaded engine bit-identical to the writer: yes\n\n";

  const auto best_of = [&](auto&& work) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      const auto start = clock_type::now();
      work();
      best = std::min(best, seconds_since(start));
    }
    return best;
  };

  std::vector<std::uint8_t> sink;
  const double serialize_s = best_of([&] {
    sink = compress::write_bkcm(
        engine.options().clustering, engine.options().tree,
        engine.options().clustering_config, engine.model().config(), report,
        engine.block_streams());
  });
  check(sink == image,
        "serialize_throughput: serialization is not deterministic");
  const double parse_s = best_of([&] {
    const compress::MappedBkcm parsed = compress::MappedBkcm::open(path);
    check(!parsed.blocks().empty(), "serialize_throughput: empty parse");
  });
  const double load_serial_s =
      best_of([&] { Engine::load_compressed(path, 1); });
  const double load_parallel_s =
      best_of([&] { Engine::load_compressed(path, num_threads); });

  Table table({"stage", "seconds", "MB/s"});
  table.row().add("write_bkcm (memory)").add(serialize_s, 4).add(
      mb_per_sec(image.size(), serialize_s));
  table.row().add("MappedBkcm::open (map+crc+parse)").add(parse_s, 4).add(
      mb_per_sec(image.size(), parse_s));
  table.row()
      .add("Engine::load_compressed, 1 thread")
      .add(load_serial_s, 4)
      .add(mb_per_sec(image.size(), load_serial_s));
  table.row()
      .add("Engine::load_compressed, " + std::to_string(num_threads) +
           " threads")
      .add(load_parallel_s, 4)
      .add(mb_per_sec(image.size(), load_parallel_s));
  table.print("BKCM throughput (best of " + std::to_string(repeats) + ")");

  // Size accounting: the container against the raw bit-packed 3x3
  // kernels it replaces (the paper's Table V storage story, now on
  // disk). The container also carries the config, report and decode
  // tables — the overhead column makes that visible.
  const std::uint64_t raw_3x3_bytes = report.conv3x3_bits / 8;
  const std::uint64_t stream_bytes =
      (engine.options().clustering ? report.conv3x3_clustering_bits
                                   : report.conv3x3_encoding_bits) /
      8;
  Table sizes({"artifact", "bytes", "vs raw 3x3"});
  sizes.row().add("raw bit-packed 3x3 kernels").add(
      std::to_string(raw_3x3_bytes)).add("1.00x");
  sizes.row().add("kernel streams (payload)").add(
      std::to_string(stream_bytes)).add(
      ratio_str(static_cast<double>(raw_3x3_bytes) /
                static_cast<double>(stream_bytes)));
  sizes.row().add("BKCM container (total)").add(
      std::to_string(image.size())).add(
      ratio_str(static_cast<double>(raw_3x3_bytes) /
                static_cast<double>(image.size())));
  std::cout << "\n";
  sizes.print("Container size");
  std::cout << "\n(container total includes config, report, frequency "
               "tables, remaps and decode tables on top of the streams)\n";
  return 0;
}
