// The per-layer profile every traced run makes on its workload's model,
// and the helpers the workloads share.
//
// Layers are timed from outside, through their public functions:
// BasicBlock::forward_into and BinaryConv2d::forward_into for every
// block (chained as classify runs them), Engine::classify_batch for the
// inter-image fan-out, and, in the files beside this one, the compress,
// hwsim and serve layers. The timing model's cycles for the same ops
// are put beside the measured times.

#include <cstdio>
#include <map>

#include "bnn/memory_plan.h"
#include "hwsim/perf_model.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace bkcbench {

using bkc::Engine;
using bkc::Tensor;
namespace bnn = bkc::bnn;

namespace {

/// Fewest and most repetitions of the block profile, whatever its time
/// budget; the cap keeps the trace of a tiny model small.
constexpr int kMinProfileReps = 3;
constexpr int kMaxProfileReps = 200;
/// classify_batch calls that util.pool.efficiency and core.batch.ms
/// are medians of.
constexpr int kBatchProfileReps = 5;

/// core.batch.ms (one classify_batch of `images` at T threads) and
/// util.pool.efficiency = B x single-image ms / (T x batch ms).
void profile_batch(const Engine& engine, const std::vector<Tensor>& images,
                   const std::vector<Tensor>& expected, const Options& o,
                   Tracer& tracer, Result& result) {
  std::vector<double> batch_ms, single_ms;
  for (std::int64_t r = 0; r < kBatchProfileReps; ++r) {
    std::vector<Tensor> scores;
    batch_ms.push_back(tracer.time("core.batch", r, -1, [&] {
      scores = engine.classify_batch(images, o.threads);
    }));
    for (std::size_t i = 0; i < images.size(); ++i) {
      result.count(same_scores(scores[i], expected[i]),
                   "classify_batch differs from classify on image " +
                       std::to_string(i));
    }
    const std::size_t img = static_cast<std::size_t>(r) % images.size();
    Tensor one;
    single_ms.push_back(tracer.time("core.single", r, -1, [&] {
      one = engine.classify(images[img], 1);
    }));
    result.count(same_scores(one, expected[img]),
                 "classify at 1 thread differs on image " +
                     std::to_string(img));
  }
  const double batch = median(batch_ms);
  result.add("core.batch.ms", batch, "ms", batch_ms.size());
  result.add("util.pool.efficiency",
             static_cast<double>(images.size()) * median(single_ms) /
                 (o.threads * batch),
             "ratio", single_ms.size());
}

}  // namespace

std::vector<Tensor> make_images(const bkc::FeatureShape& shape,
                                std::uint64_t seed, int count) {
  bnn::WeightGenerator generator(seed);
  std::vector<Tensor> images;
  for (int i = 0; i < count; ++i) {
    images.push_back(generator.sample_activation(shape));
  }
  return images;
}

std::string block_label(std::size_t block) {
  const std::string index = std::to_string(block);
  return (block < 10 ? "b0" : "b") + index;
}

void add_common_metrics(const Engine& engine,
                        const std::vector<double>& setup_s, Result& result) {
  result.add("setup_s", median(setup_s), "s", setup_s.size());
  result.add("peak_rss_mb", peak_rss_mib(), "MiB");
  result.add("compression_ratio", engine.report().model_ratio_with_tables,
             "x");
  result.add("sim_hw_speedup", engine.simulate_speedup().model_hw_speedup(),
             "x");
}

void add_overhead(const std::vector<double>& untraced,
                  const std::vector<double>& traced, Result& result) {
  result.add("trace.overhead_pct",
             (median(traced) / median(untraced) - 1.0) * 100.0, "%",
             traced.size());
}

/// Per-block profile of the planned forward path. Each repetition times
/// one whole classify at 1 thread untraced and traced, then, from
/// outside, the 13 blocks chained as classify runs them: block b's
/// output is block b+1's input, so inputs and cache state match. The
/// chain starts from a sampled activation of the stem's output shape
/// (the stem is not reachable through the public planned path). Then,
/// on the same inputs, each block's 3x3 conv with the active kernel and
/// with the scalar reference, and each block at T threads.
/// bnn.head.ms is the traced classify time minus the blocks: the int8
/// stem, pool and classifier.
void profile_blocks(const Engine& engine, const std::vector<Tensor>& images,
                    const std::vector<Tensor>& expected, const Options& o,
                    double budget_s, Tracer& tracer, Result& result) {
  const bnn::ReActNet& model = engine.model();
  const std::vector<bnn::OpRecord> ops = model.op_records();
  std::map<std::string, const bnn::OpRecord*> op_by_name;
  for (const bnn::OpRecord& op : ops) op_by_name[op.name] = &op;

  const std::size_t n = model.num_blocks();
  std::vector<const bnn::OpRecord*> convs;
  for (std::size_t b = 0; b < n; ++b) {
    convs.push_back(op_by_name.at(model.block(b).conv3x3().name()));
  }
  // acts[b] is block b's input; acts[n] the last block's output.
  std::vector<Tensor> acts;
  std::vector<Tensor> conv_outputs;
  bnn::WeightGenerator generator(o.seed ^ 0x5eedb10cULL);
  acts.push_back(generator.sample_activation(convs[0]->input_shape));
  for (std::size_t b = 0; b < n; ++b) {
    const bnn::BasicBlock& block = model.block(b);
    acts.emplace_back(block.output_shape(acts[b].shape()));
    conv_outputs.emplace_back(block.conv3x3().output_shape(acts[b].shape()));
  }
  bnn::Workspace workspace = engine.make_workspace();
  auto run_block = [&](std::size_t b) {
    model.block(b).forward_into(acts[b], acts[b + 1], workspace);
  };
  auto run_conv = [&](std::size_t b) {
    model.block(b).conv3x3().forward_into(acts[b], conv_outputs[b],
                                          workspace);
  };

  std::vector<double> untraced_ms, head_ms, chain_ms;
  const Clock::time_point start = Clock::now();
  for (std::int64_t r = 0;
       r < kMinProfileReps ||
       (r < kMaxProfileReps &&
        ms_between(start, Clock::now()) < budget_s * 1e3);
       ++r) {
    const std::size_t img = static_cast<std::size_t>(r) % images.size();
    const Clock::time_point t0 = Clock::now();
    Tensor scores = engine.classify(images[img], 1);
    untraced_ms.push_back(ms_between(t0, Clock::now()));
    result.count(same_scores(scores, expected[img]),
                 "classify at 1 thread differs on image " +
                     std::to_string(img));

    const int rep = tracer.begin("bnn.rep", r);
    const double classify_ms = tracer.time(
        "classify", r, rep, [&] { scores = engine.classify(images[img], 1); });
    result.count(same_scores(scores, expected[img]),
                 "profiled classify differs on image " + std::to_string(img));
    double blocks_ms = 0.0;
    for (std::size_t b = 0; b < n; ++b) {
      blocks_ms += tracer.time("bnn." + block_label(b), r, rep,
                               [&] { run_block(b); });
    }
    chain_ms.push_back(blocks_ms);
    head_ms.push_back(classify_ms - blocks_ms);
    for (std::size_t b = 0; b < n; ++b) {
      tracer.time("bnn." + block_label(b) + ".conv3x3", r, rep,
                  [&] { run_conv(b); });
    }
    {
      bkc::simd::ScopedForceScalar scalar;
      for (std::size_t b = 0; b < n; ++b) {
        tracer.time("bnn." + block_label(b) + ".conv3x3.scalar", r, rep,
                    [&] { run_conv(b); });
      }
    }
    {
      bkc::ScopedNumThreads threads(o.threads);
      for (std::size_t b = 0; b < n; ++b) {
        tracer.time("bnn." + block_label(b) + ".mt", r, rep,
                    [&] { run_block(b); });
      }
    }
    tracer.end(rep);
  }

  // The timing model's cycles for the same ops: block 3x3 convs, and the
  // ops outside every block (stem, pool, classifier) as the head.
  const bkc::hwsim::ModelTiming timing = bkc::hwsim::time_model_baseline(ops);
  std::map<std::string, std::uint64_t> cycles;
  std::uint64_t head_cycles = 0;
  for (const bkc::hwsim::OpTiming& op : timing.ops) {
    cycles[op.name] = op.cycles;
    if (op.name.rfind("block", 0) != 0) head_cycles += op.cycles;
  }

  char line[160];
  result.note("per-op table, measured (1 thread) beside modelled (A53 "
              "baseline), GOP/s counts 2 ops per MAC:");
  result.note("block  conv3x3_ms   GOP/s  hwsim_kcycles  ms/Mcycle");
  for (std::size_t b = 0; b < n; ++b) {
    const std::string name = "bnn." + block_label(b);
    const double block_ms = median(tracer.durations_ms(name));
    const double conv_ms = median(tracer.durations_ms(name + ".conv3x3"));
    const double scalar_ms =
        median(tracer.durations_ms(name + ".conv3x3.scalar"));
    const double mt_ms = median(tracer.durations_ms(name + ".mt"));
    const double kcycles =
        static_cast<double>(cycles.at(convs[b]->name)) / 1e3;
    result.add(name + ".ms", block_ms, "ms");
    result.add(name + ".conv3x3.ms", conv_ms, "ms");
    result.add(name + ".conv3x3.simd_x", scalar_ms / conv_ms, "x");
    result.add(name + ".mt_x", block_ms / mt_ms, "x");
    result.add("hwsim." + block_label(b) + ".conv3x3.kcycles", kcycles,
               "kcycles");
    std::snprintf(line, sizeof line, "%-5s %11.3f %7.2f %14.1f %10.4f",
                  block_label(b).c_str(), conv_ms,
                  2.0 * static_cast<double>(convs[b]->macs) / conv_ms / 1e6,
                  kcycles, conv_ms / (kcycles / 1e3));
    result.note(line);
  }
  result.add("bnn.head.ms", median(head_ms), "ms", head_ms.size());
  std::snprintf(line, sizeof line,
                "block chain median %.3f ms %s untraced classify median "
                "%.3f ms at 1 thread (head median %.3f ms)",
                median(chain_ms),
                median(chain_ms) <= median(untraced_ms) ? "<=" : ">",
                median(untraced_ms), median(head_ms));
  result.note(line);
  result.add("hwsim.head.kcycles", static_cast<double>(head_cycles) / 1e3,
             "kcycles");
}

void profile_layers(const Engine& engine,
                    const bnn::ReActNetConfig& config,
                    const std::vector<Tensor>& images,
                    const std::vector<Tensor>& expected, const Options& o,
                    double budget_s, Tracer& tracer, Result& result) {
  profile_blocks(engine, images, expected, o, budget_s, tracer, result);
  profile_batch(engine, images, expected, o, tracer, result);
  profile_artifact(config, o, tracer, result);
  profile_serve(o, tracer, result);
}

}  // namespace bkcbench
