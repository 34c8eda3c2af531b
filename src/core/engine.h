#pragma once
// The top-level public API of the library.
//
// Engine bundles the whole system of the paper behind one object:
// build a ReActNet (calibrated synthetic weights), compress its 3x3
// binary kernels with the simplified Huffman tree + clustering, run
// inference from the (clustered) kernels, verify the compressed streams
// decode bit-exactly, and estimate the hardware-assisted speedup on the
// A53 timing model. See examples/quickstart.cpp for a tour.
//
// Each 3x3 kernel is resident once, in the model. The per-block stream
// artifacts next to it hold what a container block holds (stream,
// decode tables, statistics) and no decoded copy: compress() moves the
// clustered kernel the pass built into the model, and load_compressed()
// installs each decode_block() result directly.

#include <cstdint>
#include <string>
#include <vector>

#include "bnn/reactnet.h"
#include "compress/model_view.h"
#include "compress/pipeline.h"
#include "hwsim/perf_model.h"

namespace bkc {

/// Compression knobs for the engine.
struct EngineOptions {
  /// Run the Sec III-C clustering pass (Table V "Clustering" column)
  /// before encoding; when false only the variable-length encoding is
  /// applied (Table V "Encoding" column) and inference is bit-exact.
  bool clustering = true;
  compress::GroupedTreeConfig tree = compress::GroupedTreeConfig::paper();
  compress::ClusteringConfig clustering_config = {};
  /// The block codec id; the Engine constructor raises CheckError for
  /// any value but compress::kCodecGroupedHuffman. Kept only because the
  /// benchmark harness (bkcbench/) sets it; it goes, together with
  /// compress::make_block_codec, in the next change to the benchmark
  /// (ROADMAP item 6).
  std::uint32_t codec_id = compress::kCodecGroupedHuffman;
};

/// End-to-end facade over the model, the codec and the timing model.
///
/// Threading model: every method taking a `num_threads` parameter fans
/// independent work units (images, blocks, streams, output channels)
/// out over the shared util/thread_pool.h pool with a fixed partition
/// and no cross-unit accumulation, so results are guaranteed
/// bit-identical to the serial path at every thread count (enforced by
/// tests/test_parallel_determinism.cpp). num_threads caps the fan-out;
/// it does not have to match the machine's core count.
class Engine {
 public:
  explicit Engine(
      const bnn::ReActNetConfig& model_config = bnn::paper_reactnet_config(),
      const EngineOptions& options = {});

  /// Compress every 3x3 binary kernel: ONE
  /// ModelCompressor::compress_model pass per call produces the report
  /// and the stream artifacts together (the report is derived from the
  /// streams), fanned out over `num_threads` per block. When clustering
  /// is enabled the clustered kernels are installed into the model
  /// (that is what the deployed network evaluates). Idempotent.
  const compress::ModelReport& compress(int num_threads = 1);

  bool is_compressed() const { return compressed_; }

  /// Classify one image (input_channels x input_size x input_size);
  /// returns class scores. Uses the installed kernels. `num_threads`
  /// parallelizes the per-output-channel loop inside each binary
  /// convolution (bnn/bconv.h), cutting single-image latency.
  ///
  /// Runs the arena-backed forward path: a Workspace is leased from the
  /// engine's pool (allocated on first use, reused ever after), so
  /// steady-state calls perform no heap allocation beyond the returned
  /// score tensor. Bit-identical to model().forward_into(image, ...)
  /// with any workspace covering memory_plan().
  Tensor classify(const Tensor& image, int num_threads = 1) const;

  /// classify() into caller-provided storage: with a warm `workspace`
  /// (one prior call) and a correctly-shaped `scores`
  /// (num_classes x 1 x 1; reallocated if not), the call performs ZERO
  /// heap allocations — the property tests/test_zero_alloc.cpp pins
  /// with a global operator-new counter. The workspace must cover
  /// memory_plan() (anything from make_workspace() qualifies).
  void classify_into(const Tensor& image, Tensor& scores,
                     bnn::Workspace& workspace, int num_threads = 1) const;

  /// Classify a batch of independent images, fanned out across
  /// `num_threads` workers (one chunk of images per worker; within a
  /// worker each image runs serially). Each worker leases one Workspace
  /// from the engine's pool and reuses it for its whole chunk, so the
  /// pool grows to the peak worker count and then stops allocating.
  /// Returns one score tensor per image, in input order, bit-identical
  /// to calling classify() on each image serially. The serve-side
  /// BatchScheduler (serve/scheduler.h) dispatches through this entry
  /// point and therefore rides the same workspace pool.
  std::vector<Tensor> classify_batch(const std::vector<Tensor>& images,
                                     int num_threads = 1) const;

  /// The model's memory plan (computed once at construction from its
  /// op records); sizes every workspace the engine leases.
  const bnn::MemoryPlan& memory_plan() const { return model_.memory_plan(); }

  /// A fresh workspace covering memory_plan(), for callers that manage
  /// their own reuse (benchmarks, tests) instead of going through the
  /// engine's internal pool.
  bnn::Workspace make_workspace() const {
    return bnn::Workspace(memory_plan());
  }

  /// Decode every compressed stream and check it reproduces the
  /// installed kernels bit-exactly, one stream per work unit across
  /// `num_threads`. Precondition: compress() was called.
  bool verify_streams(int num_threads = 1) const;

  /// Write the compressed model to `path` as a BKCM v2 container
  /// (compress/serialize.h): model configuration, compression report,
  /// and per-block decode tables + kernel bitstreams. The 3x3 kernels
  /// themselves are not stored — load_compressed() reconstructs them by
  /// decoding the streams. Deterministic output (same engine, same
  /// bytes). Precondition: compress() was called.
  void save_compressed(const std::string& path) const;

  /// Stand up an Engine from a BKCM container alone: rebuild the
  /// uncompressed layers from the stored model configuration, then
  /// decode every kernel stream (fanned out over `num_threads` with the
  /// usual serial-equivalence guarantee) and install the decoded
  /// kernels. The result is bit-identical to the engine that wrote the
  /// file: installed kernels, report() and classification outputs all
  /// match exactly (tests/test_serialize.cpp). CheckError on a missing,
  /// truncated, corrupt or inconsistent container — the message names
  /// the failing section. The container is parsed once
  /// (compress::MappedBkcm::open) and the engine keeps the parsed
  /// artifacts as its block_streams().
  static Engine load_compressed(const std::string& path,
                                int num_threads = 1);

  /// The non-owning artifact view over this engine's compressed state
  /// (compress/model_view.h): op-record layout plus references to the
  /// streams the engine deployed (clustered when clustering is
  /// enabled, plain encoding otherwise). This is what the hwsim
  /// simulator consumes; the engine must outlive the view.
  /// Precondition: compress() was called.
  compress::CompressedModelView artifact_view() const;

  /// Simulate the three execution variants on the timing model, fed by
  /// artifact_view() — the stream artifacts the engine already holds.
  /// No compression-pipeline primitive runs (the instrumentation
  /// counters of compress/instrumentation.h stay flat; enforced by
  /// tests/test_engine.cpp). The sampled walk takes the same view:
  /// hwsim::compare_model_sampled(artifact_view(), config).
  /// Precondition: compress() was called.
  hwsim::SpeedupReport simulate_speedup() const;

  const bnn::ReActNet& model() const { return model_; }
  bnn::ReActNet& model() { return model_; }
  const compress::ModelReport& report() const;
  const std::vector<compress::KernelCompression>& block_streams() const;
  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
  bnn::ReActNet model_;
  compress::ModelCompressor compressor_;
  bool compressed_ = false;
  compress::ModelReport report_;
  std::vector<compress::KernelCompression> streams_;
  /// Lazy pool of per-thread inference workspaces (bnn/memory_plan.h).
  /// Held by pointer: the pool's mutex makes it immovable, while Engine
  /// itself is moved (load_compressed returns by value).
  std::unique_ptr<bnn::WorkspacePool> workspaces_;
};

}  // namespace bkc
