// Codec shoot-out: every block codec in the compress/block_codec.h
// registry over the same ReActNet, compared on the three axes that
// matter for the paper's deployment story:
//   storage   - bits per 3x3 kernel (stream only, and with the decode
//               tables / dictionaries charged),
//   decode    - hwsim cycles for the three execution variants (the
//               Sec IV decoder consumes only per-codeword lengths, so
//               every codec runs through the identical timing model),
//   accuracy  - mean flipped-bit fraction (a lossy clustering pass
//               flips kernel bits; a lossless codec reports 0).
// Every codec's streams are also round-tripped through the engine's
// verify pass - a codec that cannot reproduce its kernels bit-exactly
// fails the bench rather than shipping a wrong number.
//
//   ./bench/codec_shootout [--tiny] [--threads N] [--json FILE]
//
// --json writes the table as BENCH_codecs.json-style output (the
// checked-in snapshot at the repo root is generated by this flag on the
// full paper model).

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "compress/block_codec.h"
#include "core/bkc.h"
#include "util/json.h"

namespace {

using namespace bkc;

struct CodecResult {
  std::uint32_t id = 0;
  std::string name;
  double bits_per_kernel = 0.0;         ///< deployed (clustered) stream
  double bits_per_kernel_encoding = 0.0;///< encoding-only stream
  double mean_ratio = 0.0;              ///< deployed, vs 9-bit baseline
  double model_ratio = 0.0;             ///< whole-model storage
  std::uint64_t table_bits = 0;         ///< decode tables / dictionaries
  double mean_flipped = 0.0;            ///< accuracy proxy (0 = lossless)
  std::uint64_t baseline_cycles = 0;
  std::uint64_t sw_cycles = 0;
  std::uint64_t hw_cycles = 0;
  double hw_speedup = 0.0;
};

void write_json(const std::string& path, bool tiny, int num_threads,
                const std::vector<CodecResult>& results) {
  // Strict-JSON writer (util/json.h): names escaped, doubles printed
  // locale-independently at round-trip precision; a non-finite value
  // anywhere is a CheckError (the ratio math never produces one).
  json::Writer w;
  w.begin_object();
  w.key("bench").value("codec_shootout");
  w.key("model").value(tiny ? "tiny" : "paper");
  w.key("threads").value(num_threads);
  w.key("codecs").begin_array();
  for (const CodecResult& r : results) {
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(r.id));
    w.key("name").value(r.name);
    w.key("bits_per_kernel").value(r.bits_per_kernel);
    w.key("bits_per_kernel_encoding").value(r.bits_per_kernel_encoding);
    w.key("mean_ratio").value(r.mean_ratio);
    w.key("model_ratio").value(r.model_ratio);
    w.key("table_bits").value(r.table_bits);
    w.key("mean_flipped_bit_fraction").value(r.mean_flipped);
    w.key("baseline_cycles").value(r.baseline_cycles);
    w.key("sw_decode_cycles").value(r.sw_cycles);
    w.key("hw_decode_cycles").value(r.hw_cycles);
    w.key("hw_speedup").value(r.hw_speedup);
    w.key("lossless_round_trip").value(true);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream file(path);
  check(static_cast<bool>(file), "codec_shootout: cannot open ", path);
  file << w.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bool tiny = has_flag(argc, argv, "--tiny");
    const int num_threads = positive_flag_value(argc, argv, "--threads", 2);
    const std::string json_path(
        flag_string_value(argc, argv, "--json", ""));
    const bnn::ReActNetConfig config =
        tiny ? bnn::tiny_reactnet_config(/*seed=*/42)
             : bnn::paper_reactnet_config(/*seed=*/42);

    std::vector<CodecResult> results;
    for (const std::uint32_t id : compress::registered_block_codecs()) {
      Engine engine(config, EngineOptions{.codec_id = id});
      const compress::ModelReport& report = engine.compress(num_threads);

      // Round-trip gate: every deployed stream must decode back to the
      // installed kernel bit-exactly before its numbers are reported.
      check(engine.verify_streams(num_threads),
            "codec_shootout: codec ", id, " streams do not round-trip");

      CodecResult r;
      r.id = id;
      r.name = std::string(compress::codec_for(id).name());
      std::uint64_t num_kernels = 0;
      double flipped_sum = 0.0;
      for (const auto& block : report.blocks) {
        num_kernels += block.num_sequences;
        flipped_sum += block.flipped_bit_fraction;
      }
      r.bits_per_kernel =
          static_cast<double>(report.conv3x3_clustering_bits) /
          static_cast<double>(num_kernels);
      r.bits_per_kernel_encoding =
          static_cast<double>(report.conv3x3_encoding_bits) /
          static_cast<double>(num_kernels);
      r.mean_ratio = report.mean_clustering_ratio;
      r.model_ratio = report.model_ratio;
      r.table_bits = report.decode_table_bits;
      r.mean_flipped =
          flipped_sum / static_cast<double>(report.blocks.size());

      const hwsim::SpeedupReport speedup = engine.simulate_speedup();
      r.baseline_cycles = speedup.total_baseline;
      r.sw_cycles = speedup.total_sw;
      r.hw_cycles = speedup.total_hw;
      r.hw_speedup = speedup.model_hw_speedup();
      results.push_back(std::move(r));
    }

    Table table({"codec", "bits/kernel", "bits/kernel (enc)", "mean ratio",
                 "model ratio", "table bits", "flipped", "hw-decode kcycles",
                 "hw speedup"});
    for (const CodecResult& r : results) {
      table.row()
          .add(r.name + " (id " + std::to_string(r.id) + ")")
          .add(r.bits_per_kernel)
          .add(r.bits_per_kernel_encoding)
          .add(ratio_str(r.mean_ratio))
          .add(ratio_str(r.model_ratio))
          .add(r.table_bits)
          .add(percent_str(r.mean_flipped))
          .add(r.hw_cycles / 1000)
          .add(ratio_str(r.hw_speedup));
    }
    table.print("Codec shoot-out (9-bit uncompressed baseline, " +
                std::string(tiny ? "tiny" : "paper") + " model)");

    std::cout << "\nAll " << results.size()
              << " registered codecs round-tripped losslessly; the decoder\n"
                 "timing model consumes per-codeword lengths only, so every\n"
                 "codec runs the identical hwsim pipeline.\n";

    if (!json_path.empty()) {
      write_json(json_path, tiny, num_threads, results);
      std::cout << "wrote " << json_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "codec_shootout: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
