// Regenerates the paper's two performance headlines (Secs IV-B, VI):
//   * software-only decoding is ~1.47x SLOWER than the uncompressed
//     baseline (kernel-level),
//   * the decoding unit makes the model ~1.35x FASTER overall.
// Every 3x3 binary convolution of the full-size ReActNet is simulated
// in the three execution variants on the A53-class timing model.
//
// The simulation consumes the engine's artifact view — the compressed
// streams compress() already produced — and self-checks that it bumps
// no pipeline instrumentation counter.
//
// The bench ends with the sampled-simulation scaling section
// (hwsim/sampled.h): a DEEP schedule — every stride-1 non-expanding
// block of the MobileNet schedule repeated `--repeat` times — is timed
// exact vs sampled. Both runs share one simulator walk (baselines once
// per geometry); the sampled one also simulates sw/hw only for each
// run representative picked by stream bits. The sampled path is gated
// on baseline bit-identity, <= 2% sw/hw cycle error against the exact
// oracle, flat pipeline counters, and (full-size only) >= 5x
// wall-clock advantage.
//
//   ./bench/speedup [--tiny] [--sampled] [--repeat R] [--threads N]
//
// --sampled skips the Sec VI table and runs only the scaling section
// (the smoke_speedup_sampled CTest target).

#include <chrono>
#include <cmath>
#include <iostream>

#include "core/bkc.h"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

double relative_error(std::uint64_t approx, std::uint64_t exact) {
  return std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
         static_cast<double>(exact);
}

/// The deep scaling configuration: the base schedule with every
/// stride-1 non-expanding block repeated `repeat` times. Repetition is
/// shape-safe (those blocks map in_channels -> in_channels at constant
/// resolution) and is exactly the regime sampling targets: many blocks
/// sharing a geometry whose streams differ only in their code-length
/// mix (the calibrated per-block Table II distributions cycle, so
/// repeats are NOT byte-identical streams).
bkc::bnn::ReActNetConfig deep_config(bool tiny, int repeat) {
  bkc::bnn::ReActNetConfig config =
      tiny ? bkc::bnn::tiny_reactnet_config(/*seed=*/42)
           : bkc::bnn::paper_reactnet_config(/*seed=*/42);
  std::vector<bkc::bnn::BlockConfig> deep;
  for (const auto& block : config.blocks) {
    deep.push_back(block);
    if (block.stride == 1 && block.out_channels == block.in_channels) {
      for (int r = 1; r < repeat; ++r) deep.push_back(block);
    }
  }
  config.blocks = std::move(deep);
  return config;
}

int run_sampled_section(bool tiny, int repeat, int num_threads) {
  using namespace bkc;
  const bnn::ReActNetConfig config = deep_config(tiny, repeat);
  std::cout << "\n=== Sampled simulation ===\n"
            << "deep schedule: " << config.blocks.size()
            << " blocks (stride-1 non-expanding blocks x" << repeat
            << "), compressing...\n";
  Engine engine(config);
  engine.compress(num_threads);
  const compress::CompressedModelView view = engine.artifact_view();

  std::cout << "exact simulation of " << view.blocks.size()
            << " conv3x3 layers x 3 variants...\n";
  const auto exact_start = clock_type::now();
  const hwsim::SpeedupReport exact = hwsim::compare_model(view);
  const double exact_seconds = seconds_since(exact_start);

  // Sampled run over the same view, serial like the exact run so the
  // wall-clock ratio measures the algorithm, not the thread pool.
  // The counter delta proves the sampled path is also pure consumption
  // of the artifact view.
  hwsim::SamplingConfig sampling_config;
  sampling_config.num_threads = 1;
  const compress::PipelineCounters before =
      compress::pipeline_counters();
  const auto sampled_start = clock_type::now();
  const hwsim::SampledSpeedupReport sampled =
      hwsim::compare_model_sampled(view, sampling_config);
  const double sampled_seconds = seconds_since(sampled_start);
  const compress::PipelineCounters delta =
      compress::pipeline_counters().delta_since(before);
  if (delta.frequency_counts != 0 || delta.cluster_sequences_calls != 0 ||
      delta.grouped_codec_builds != 0) {
    std::cerr << "speedup: SELF-CHECK FAILED — sampled simulation ran "
                 "compression-pipeline work\n";
    return 1;
  }

  // The parallel fan-out must not change a single cycle.
  hwsim::SamplingConfig parallel_config = sampling_config;
  parallel_config.num_threads = 7;
  if (!hwsim::cycles_identical(
          hwsim::compare_model_sampled(view, parallel_config).report,
          sampled.report)) {
    std::cerr << "speedup: SELF-CHECK FAILED — sampled report changed "
                 "with num_threads=7\n";
    return 1;
  }

  const hwsim::SamplingSummary& summary = sampled.summary;
  std::cout << "sampled: " << summary.simulated_blocks << " of "
            << summary.num_blocks << " blocks simulated ("
            << summary.num_clusters << " runs over "
            << summary.num_geometry_groups
            << " geometry groups; max stream-bits skew "
            << summary.max_stream_bits_skew << ")\n";

  // Baseline cycles are memoized per exact geometry, never
  // extrapolated, so equality here is a hard gate, not a tolerance.
  if (sampled.report.total_baseline != exact.total_baseline) {
    std::cerr << "speedup: SELF-CHECK FAILED — sampled baseline cycles "
                 "diverged from exact ("
              << sampled.report.total_baseline << " vs "
              << exact.total_baseline << ")\n";
    return 1;
  }
  const double sw_error =
      relative_error(sampled.report.total_sw, exact.total_sw);
  const double hw_error =
      relative_error(sampled.report.total_hw, exact.total_hw);
  std::cout << "total cycles, exact vs sampled:\n"
            << "  baseline: " << exact.total_baseline / 1000000
            << " Mcycles vs " << sampled.report.total_baseline / 1000000
            << " Mcycles (identical by construction)\n"
            << "  sw:       " << exact.total_sw / 1000000 << " Mcycles vs "
            << sampled.report.total_sw / 1000000
            << " Mcycles (relative error " << sw_error << ")\n"
            << "  hw:       " << exact.total_hw / 1000000 << " Mcycles vs "
            << sampled.report.total_hw / 1000000
            << " Mcycles (relative error " << hw_error << ")\n";
  if (sw_error > 0.02 || hw_error > 0.02) {
    std::cerr << "speedup: SELF-CHECK FAILED — sampled cycle error above "
                 "2% (sw " << sw_error << ", hw " << hw_error << ")\n";
    return 1;
  }

  const double ratio = exact_seconds / sampled_seconds;
  std::cout << "wall clock: exact " << exact_seconds << " s, sampled "
            << sampled_seconds << " s — " << ratio_str(ratio)
            << " faster at <= 2% error\n";
  // The tiny fixture is too small for the ratio to be meaningful (both
  // runs finish in milliseconds); the full-size deep schedule must
  // show the >= 5x the sampling exists for.
  if (!tiny && ratio < 5.0) {
    std::cerr << "speedup: SELF-CHECK FAILED — sampled speedup "
              << ratio << "x below the 5x floor\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace bkc;
  check_known_flags(argc, argv,
                    {"--tiny", "--repeat", "--threads", "--sampled"});

  const bool tiny = has_flag(argc, argv, "--tiny");
  const int repeat = positive_flag_value(argc, argv, "--repeat", 8);
  const int num_threads = positive_flag_value(argc, argv, "--threads", 4);
  if (has_flag(argc, argv, "--sampled")) {
    return run_sampled_section(tiny, repeat, num_threads);
  }

  // --tiny swaps in the reduced test model so the CTest smoke run of
  // this binary finishes quickly.
  Engine engine(tiny ? bnn::tiny_reactnet_config(/*seed=*/42)
                     : bnn::paper_reactnet_config(/*seed=*/42));
  engine.compress();

  std::cout << "Simulating 13 conv3x3 layers x 3 variants (sampled rows, "
               "this takes ~10s)...\n";

  // The artifact-view path Engine::simulate_speedup uses. The
  // instrumentation counters prove no pipeline primitive runs.
  const compress::PipelineCounters before_sim =
      compress::pipeline_counters();
  const hwsim::SpeedupReport report = engine.simulate_speedup();
  const compress::PipelineCounters sim_delta =
      compress::pipeline_counters().delta_since(before_sim);
  if (sim_delta.frequency_counts != 0 ||
      sim_delta.cluster_sequences_calls != 0 ||
      sim_delta.grouped_codec_builds != 0) {
    std::cerr << "speedup: SELF-CHECK FAILED — simulate_speedup ran "
                 "compression-pipeline work (frequency counts "
              << sim_delta.frequency_counts << ", clustering searches "
              << sim_delta.cluster_sequences_calls << ", codec builds "
              << sim_delta.grouped_codec_builds << ")\n";
    return 1;
  }

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

  std::cout << "\nConv3x3 kernels only:\n";
  std::cout << "  software decode slowdown: "
            << ratio_str(report.conv3x3_sw_slowdown())
            << "   (paper Sec IV-B: 1.47x slower)\n";
  std::cout << "  hardware decode speedup:  "
            << ratio_str(report.conv3x3_hw_speedup()) << "\n";

  std::cout << "\nWhole model (including stem, 1x1 convs, activations, "
               "classifier):\n";
  std::cout << "  baseline: " << report.total_baseline / 1000000
            << " Mcycles, sw: " << report.total_sw / 1000000
            << " Mcycles, hw: " << report.total_hw / 1000000
            << " Mcycles\n";
  std::cout << "  software decode slowdown: "
            << ratio_str(report.model_sw_slowdown()) << "\n";
  std::cout << "  hardware decode speedup:  "
            << ratio_str(report.model_hw_speedup())
            << "   (paper Sec VI: 1.35x)\n";

  std::cout << "\nMechanism check (largest layer): the decoding unit must\n"
               "remove the baseline's weight-load stalls:\n";
  const auto& big = report.conv3x3.back();
  std::cout << "  " << big.name << ": baseline load stalls "
            << big.baseline_detail.load_stall_cycles << " cycles, hw ldps "
               "stalls "
            << big.hw_detail.ldps_stall_cycles << " cycles, DRAM accesses "
            << big.baseline_detail.dram_accesses << " -> "
            << big.hw_detail.dram_accesses << "\n";

  return run_sampled_section(tiny, repeat, num_threads);
} catch (const std::exception& e) {
  std::cerr << "speedup: " << e.what() << "\n";
  return 1;
}
