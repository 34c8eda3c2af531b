#pragma once
// The three workloads and the per-layer profile their traced runs share.
//
// Each workload builds its inputs from options.seed, measures one
// operation for options.seconds and checks every output it times.
// Without a tracer it reports the end-to-end metrics, the same set on
// every workload: setup_s, peak_rss_mb, op_p50_ms and op_p90_ms of the
// workload's operation, and its model's compression_ratio and
// sim_hw_speedup. With a tracer the run is the separate traced run: it
// reports trace.overhead_pct for its operation plus profile_layers on
// its own model, so it too reports the same set on every workload.

#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "tensor/tensor.h"
#include "trace.h"

namespace bkcbench {

Result run_edge_224(const Options& options, Tracer* tracer);
Result run_batch_64(const Options& options, Tracer* tracer);
Result run_serve_tiny(const Options& options, Tracer* tracer);

/// `count` images of `shape` drawn from `seed`: the only input the
/// library receives from a workload besides arrival times.
std::vector<bkc::Tensor> make_images(const bkc::FeatureShape& shape,
                                     std::uint64_t seed, int count);

/// Two-digit zero-based block label used in per-layer metric names.
std::string block_label(std::size_t block);

/// The end-to-end metrics every workload reports besides its timings:
/// setup_s (the median of `setup_s`), peak_rss_mb, and `engine`'s
/// compression_ratio (model_ratio_with_tables) and sim_hw_speedup (exact
/// simulate_speedup).
void add_common_metrics(const bkc::Engine& engine,
                        const std::vector<double>& setup_s, Result& result);

/// trace.overhead_pct from interleaved untraced and traced timings of
/// the same end-to-end operation.
void add_overhead(const std::vector<double>& untraced,
                  const std::vector<double>& traced, Result& result);

/// The per-layer profile of a traced run on `engine` (compressed, built
/// from `config`), whose outputs for `images` must equal `expected`:
///   bnn.*, hwsim.bNN/head.kcycles  blocks chained from outside, for
///                                  about `budget_s` (profile_blocks);
///   core.batch.ms, util.pool.*     classify_batch of `images` at T;
///   compress.*, bnn.construct.ms,  a fresh engine of `config` through
///   hwsim.sim.*, hwsim.muops_per_s compress, save, load and simulate,
///                                  layer by layer (profile_artifact);
///   serve.*                        a closed-loop probe of the serving
///                                  layer on two tiny models.
void profile_layers(const bkc::Engine& engine,
                    const bkc::bnn::ReActNetConfig& config,
                    const std::vector<bkc::Tensor>& images,
                    const std::vector<bkc::Tensor>& expected,
                    const Options& options, double budget_s, Tracer& tracer,
                    Result& result);

void profile_blocks(const bkc::Engine& engine,
                    const std::vector<bkc::Tensor>& images,
                    const std::vector<bkc::Tensor>& expected,
                    const Options& options, double budget_s, Tracer& tracer,
                    Result& result);
void profile_artifact(const bkc::bnn::ReActNetConfig& config,
                      const Options& options, Tracer& tracer, Result& result);
void profile_serve(const Options& options, Tracer& tracer, Result& result);

}  // namespace bkcbench
