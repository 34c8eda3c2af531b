// edge_224 and batch_64: the paper-width model on one image at a time
// (the paper's mobile deployment case) and in fixed batches at 64x64
// (small late maps, where the conv kernel runs its scalar border rim).

#include <optional>

#include "workloads.h"

namespace bkcbench {

using bkc::Engine;
using bkc::Tensor;
namespace bnn = bkc::bnn;

namespace {

constexpr int kEdgeImages = 4;
constexpr int kBatchSize = 8;
/// Shares of a traced run's budget: traced against untraced calls of
/// the workload's operation, and the chained block profile. The rest of
/// profile_layers has a fixed amount of work.
constexpr double kOverheadShare = 0.4;
constexpr double kBlocksShare = 0.4;

Engine build_engine(const bnn::ReActNetConfig& config, int threads) {
  Engine engine(config);
  engine.compress(threads);
  return engine;
}

bnn::ReActNetConfig batch_config() {
  bnn::ReActNetConfig config = bnn::paper_reactnet_config();
  config.input_size = 64;
  return config;
}

/// Timed classify of images[img] at `threads`; checks the output
/// against expected[img]. Returns ms.
double timed_classify(const Engine& engine, const std::vector<Tensor>& images,
                      const std::vector<Tensor>& expected, std::size_t img,
                      int threads, Result& result) {
  const Clock::time_point t0 = Clock::now();
  const Tensor scores = engine.classify(images[img], threads);
  const double ms = ms_between(t0, Clock::now());
  result.count(same_scores(scores, expected[img]),
               "classify at " + std::to_string(threads) +
                   " thread(s) differs from the reference on image " +
                   std::to_string(img));
  return ms;
}

/// Timed classify_batch call; checks each image against `expected`.
double timed_batch(const Engine& engine, const std::vector<Tensor>& batch,
                   const std::vector<Tensor>& expected, int threads,
                   Result& result) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<Tensor> scores = engine.classify_batch(batch, threads);
  const double ms = ms_between(t0, Clock::now());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    result.count(same_scores(scores[i], expected[i]),
                 "classify_batch differs from classify on image " +
                     std::to_string(i));
  }
  return ms;
}

/// Call `op(r)` (returning ms) back to back for `budget_s`, at least
/// once. Returns the latencies.
template <typename F>
std::vector<double> closed_loop(double budget_s, F&& op) {
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  for (std::int64_t r = 0;
       ms.empty() || ms_between(start, Clock::now()) < budget_s * 1e3; ++r) {
    ms.push_back(op(r));
  }
  return ms;
}

/// The end-to-end metrics of a closed loop of `op` over the whole run.
template <typename F>
void measure(const Engine& engine, const std::vector<double>& setup_s,
             const Options& o, Result& result, F&& op) {
  op(0);  // warm the workspace pool
  const std::vector<double> ms = closed_loop(o.seconds, op);
  result.add("op_p50_ms", median(ms), "ms", ms.size());
  result.add("op_p90_ms", pct(ms, 90.0), "ms", ms.size());
  add_common_metrics(engine, setup_s, result);
}

/// The traced run: interleaved untraced and traced calls of `op` give
/// trace.overhead_pct, then profile_layers on the workload's model.
template <typename F>
void measure_traced(const Engine& engine, const bnn::ReActNetConfig& config,
                    const std::vector<Tensor>& images,
                    const std::vector<Tensor>& expected, const Options& o,
                    Tracer& tracer, Result& result, F&& op) {
  op(0);
  std::vector<double> untraced, traced;
  closed_loop(o.seconds * kOverheadShare, [&](std::int64_t r) {
    untraced.push_back(op(r));
    traced.push_back(tracer.time("op", r, -1, [&] { op(r); }));
    return traced.back();
  });
  add_overhead(untraced, traced, result);
  profile_layers(engine, config, images, expected, o,
                 o.seconds * kBlocksShare, tracer, result);
}

}  // namespace

Result run_edge_224(const Options& o, Tracer* tracer) {
  Result result;
  const bnn::ReActNetConfig config = bnn::paper_reactnet_config();
  std::optional<Engine> engine;
  const std::vector<double> setup_s =
      timed_setup([&] { return build_engine(config, o.threads); }, engine);
  const std::vector<Tensor> images =
      make_images(engine->model().input_shape(), o.seed, kEdgeImages);
  // classify at 1 and at T threads must equal classify_batch bytewise.
  const std::vector<Tensor> expected =
      engine->classify_batch(images, o.threads);
  for (std::size_t i = 0; i < images.size(); ++i) {
    timed_classify(*engine, images, expected, i, 1, result);
  }
  // The operation: one image at a time at T threads.
  auto op = [&](std::int64_t r) {
    return timed_classify(*engine, images, expected,
                          static_cast<std::size_t>(r) % images.size(),
                          o.threads, result);
  };
  if (tracer != nullptr) {
    measure_traced(*engine, config, images, expected, o, *tracer, result, op);
  } else {
    measure(*engine, setup_s, o, result, op);
  }
  return result;
}

Result run_batch_64(const Options& o, Tracer* tracer) {
  Result result;
  const bnn::ReActNetConfig config = batch_config();
  std::optional<Engine> engine;
  const std::vector<double> setup_s =
      timed_setup([&] { return build_engine(config, o.threads); }, engine);
  const std::vector<Tensor> batch =
      make_images(engine->model().input_shape(), o.seed, kBatchSize);
  // classify_batch must equal per-image classify at 1 thread bytewise.
  std::vector<Tensor> expected;
  for (const Tensor& image : batch) {
    expected.push_back(engine->classify(image, 1));
  }
  // The operation: one classify_batch of kBatchSize images at T threads.
  auto op = [&](std::int64_t) {
    return timed_batch(*engine, batch, expected, o.threads, result);
  };
  if (tracer != nullptr) {
    measure_traced(*engine, config, batch, expected, o, *tracer, result, op);
  } else {
    measure(*engine, setup_s, o, result, op);
  }
  return result;
}

}  // namespace bkcbench
