#include "core/engine.h"

#include "compress/block_codec.h"
#include "compress/serialize.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bkc {

Engine::Engine(const bnn::ReActNetConfig& model_config,
               const EngineOptions& options)
    : options_(options),
      model_(model_config),
      compressor_(options.tree, options.clustering_config),
      workspaces_(
          std::make_unique<bnn::WorkspacePool>(model_.memory_plan())) {
  check(options.codec_id == compress::kCodecGroupedHuffman,
        "unregistered codec id ", options.codec_id, " (registered: ",
        compress::kCodecGroupedHuffman, " grouped-huffman)");
}

const compress::ModelReport& Engine::compress(int num_threads) {
  if (compressed_) return report_;
  // One compress_model() pass produces the report, both stream
  // artifacts and, when clustering, the kernel to deploy:
  // clustered_kernel is exactly what the clustered stream encodes, so
  // moving it into the model keeps verify_streams() bit-exact without
  // re-running any per-block primitive or holding a second copy.
  compress::CompressedModel compressed =
      compressor_.compress_model(model_, num_threads);
  report_ = std::move(compressed.report);
  streams_.clear();
  streams_.reserve(compressed.blocks.size());
  for (std::size_t b = 0; b < compressed.blocks.size(); ++b) {
    compress::CompressedBlock& block = compressed.blocks[b];
    if (options_.clustering) {
      streams_.push_back(std::move(block.clustered));
      model_.block(b).conv3x3().set_kernel(std::move(block.clustered_kernel));
    } else {
      streams_.push_back(std::move(block.encoding));
    }
  }
  compressed_ = true;
  return report_;
}

Tensor Engine::classify(const Tensor& image, int num_threads) const {
  Tensor scores(FeatureShape{model_.config().num_classes, 1, 1});
  bnn::WorkspacePool::Lease lease = workspaces_->acquire();
  classify_into(image, scores, lease.workspace(), num_threads);
  return scores;
}

void Engine::classify_into(const Tensor& image, Tensor& scores,
                           bnn::Workspace& workspace, int num_threads) const {
  const FeatureShape out_shape{model_.config().num_classes, 1, 1};
  if (scores.shape() != out_shape) scores = Tensor(out_shape);
  // The binary convolutions pick the count up via current_num_threads();
  // the scoped override keeps the setting local to this call (and to
  // this thread).
  ScopedNumThreads threads(num_threads);
  model_.forward_into(image, scores, workspace);
}

std::vector<Tensor> Engine::classify_batch(const std::vector<Tensor>& images,
                                           int num_threads) const {
  std::vector<Tensor> scores(images.size());
  const FeatureShape out_shape{model_.config().num_classes, 1, 1};
  parallel_for(static_cast<std::int64_t>(images.size()), num_threads,
               [&](std::int64_t begin, std::int64_t end) {
                 // One workspace per worker, reused across the whole
                 // chunk — the pool grows to the peak worker count on
                 // the first batch and stops allocating from then on.
                 bnn::WorkspacePool::Lease lease = workspaces_->acquire();
                 bnn::Workspace& workspace = lease.workspace();
                 for (std::int64_t i = begin; i < end; ++i) {
                   const auto idx = static_cast<std::size_t>(i);
                   scores[idx] = Tensor(out_shape);
                   model_.forward_into(images[idx], scores[idx], workspace);
                 }
               });
  return scores;
}

bool Engine::verify_streams(int num_threads) const {
  check(compressed_, "Engine::verify_streams: call compress() first");
  std::vector<std::uint8_t> ok(streams_.size(), 0);
  parallel_for(static_cast<std::int64_t>(streams_.size()), num_threads,
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t b = begin; b < end; ++b) {
                   const auto i = static_cast<std::size_t>(b);
                   const auto& stream = streams_[i];
                   const bnn::PackedKernel decoded =
                       compress::decode_block(stream);
                   ok[i] = decoded == model_.block(i).conv3x3().kernel();
                 }
               });
  for (std::uint8_t flag : ok) {
    if (!flag) return false;
  }
  return true;
}

void Engine::save_compressed(const std::string& path) const {
  check(compressed_, "Engine::save_compressed: call compress() first");
  // The field-wise overload serializes straight from the engine state —
  // no copy of the report or the per-block streams.
  const std::vector<std::uint8_t> file = compress::write_bkcm(
      options_.clustering, options_.tree, options_.clustering_config,
      model_.config(), report_, streams_);
  write_file_bytes(path, file);
}

Engine Engine::load_compressed(const std::string& path, int num_threads) {
  compress::MappedBkcm mapped = compress::MappedBkcm::open(path);
  // Rebuild the uncompressed layers (stem, batch norms, 1x1s,
  // classifier) deterministically from the stored configuration, then
  // replace every 3x3 kernel with the decoded stream content — the
  // decode-side reconstruction of the paper's Sec IV deployment story.
  const std::vector<compress::MappedBkcm::Block>& blocks = mapped.blocks();
  Engine engine(
      mapped.model_config(),
      EngineOptions{.clustering = mapped.clustering(),
                    .tree = mapped.tree(),
                    .clustering_config = mapped.clustering_config()});
  const auto num_blocks = static_cast<std::int64_t>(blocks.size());
  check(blocks.size() == engine.model_.num_blocks(),
        "Engine::load_compressed: container block count does not match "
        "the model");
  // Validate stream shapes against the model BEFORE decoding, so a
  // hostile-but-checksummed channel count cannot drive a huge decode
  // allocation.
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto& shape = engine.model_.block(b).conv3x3().kernel().shape();
    const compress::CompressedKernel& stream = blocks[b].artifact.compressed;
    check(stream.out_channels == shape.out_channels &&
              stream.in_channels == shape.in_channels,
          "Engine::load_compressed: stream shape for block ", b, " (",
          engine.model_.block(b).name(), ") does not match the model");
  }
  // Take the parsed artifacts over (moved, not copied: the container
  // object dies with this call), then fan the expensive part — the
  // kernel decode — out one stream per work unit; each unit installs
  // only its own block's kernel, bit-identical to the serial path.
  // Decode errors (a stream inconsistent with its codec) surface as
  // CheckError out of the pool's lowest-index propagation.
  engine.streams_ = mapped.take_artifacts();
  parallel_for(num_blocks, num_threads,
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t b = begin; b < end; ++b) {
                   const auto i = static_cast<std::size_t>(b);
                   engine.model_.block(i).conv3x3().set_kernel(
                       compress::decode_block(engine.streams_[i]));
                 }
               });
  engine.report_ = mapped.report();
  engine.compressed_ = true;
  return engine;
}

compress::CompressedModelView Engine::artifact_view() const {
  check(compressed_, "Engine::artifact_view: call compress() first");
  return compress::view_of(model_.op_records(), streams_);
}

hwsim::SpeedupReport Engine::simulate_speedup() const {
  // The view is built from the streams compress() already produced —
  // simulating costs zero compression-pipeline work.
  return hwsim::compare_model(artifact_view());
}

const compress::ModelReport& Engine::report() const {
  check(compressed_, "Engine::report: call compress() first");
  return report_;
}

const std::vector<compress::KernelCompression>& Engine::block_streams()
    const {
  check(compressed_, "Engine::block_streams: call compress() first");
  return streams_;
}

}  // namespace bkc
