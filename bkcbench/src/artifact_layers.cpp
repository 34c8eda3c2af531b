// The compress and hwsim layers of the per-layer profile: a fresh engine
// of the workload's model through compress(T) + save_compressed ->
// Engine::load_compressed(path, T) -> exact simulation, then the same
// steps again layer by layer, from outside: the block codec's
// compress_block per block, MappedBkcm::open, the engine construction a
// load performs, decode_block per block and simulate_binary_conv_layer
// per 3x3 layer and variant.
//
// Checks: the loaded engine's scores equal the writer's,
// verify_streams() holds, the storage ratio survives the round trip, and
// every layer simulated on the loaded artifact gives the writer's
// simulate_speedup cycles.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>

#include "compress/block_codec.h"
#include "compress/serialize.h"
#include "hwsim/conv_trace.h"
#include "hwsim/perf_model.h"
#include "workloads.h"

namespace bkcbench {

using bkc::Engine;
using bkc::Tensor;
namespace bnn = bkc::bnn;
namespace compress = bkc::compress;
namespace hwsim = bkc::hwsim;

namespace {

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double max_of(const std::vector<double>& values) {
  return *std::max_element(values.begin(), values.end());
}

/// Encode every block as compress(T) does, one block at a time, from
/// the kernels `fresh` started from; check each stream against it.
std::vector<double> trace_encode(const Engine& fresh,
                                 const bnn::ReActNetConfig& config,
                                 Tracer& tracer, int root, Result& result) {
  const bkc::EngineOptions& options = fresh.options();
  const Engine unclustered(config);
  const auto codec = compress::make_block_codec(
      options.codec_id, options.tree, options.clustering_config);
  std::vector<double> encode_ms;
  for (std::size_t b = 0; b < fresh.model().num_blocks(); ++b) {
    const bnn::BasicBlock& block = unclustered.model().block(b);
    std::optional<compress::CompressedBlock> encoded;
    encode_ms.push_back(tracer.time(
        "compress.encode." + block_label(b), 0, root, [&] {
          encoded.emplace(
              codec->compress_block(block.name(), block.conv3x3().kernel()));
        }));
    const compress::KernelCompression& deployed =
        options.clustering ? encoded->clustered : encoded->encoding;
    result.count(deployed.compressed.stream ==
                     fresh.block_streams()[b].compressed.stream,
                 "compress_block stream differs from the engine's, block " +
                     block_label(b));
  }
  return encode_ms;
}

/// Load `path` layer by layer: map it, construct the model it
/// describes, decode every stream and check it against `loaded`.
void trace_load(const Engine& loaded, const std::string& path,
                double untraced_load_ms, Tracer& tracer, int root,
                Result& result) {
  std::optional<compress::MappedBkcm> mapped;
  const double open_ms = tracer.time("compress.open", 0, root, [&] {
    mapped.emplace(compress::MappedBkcm::open(path));
  });
  const double construct_ms = tracer.time("bnn.construct", 0, root, [&] {
    const Engine built(mapped->model_config(),
                       bkc::EngineOptions{
                           .clustering = mapped->clustering(),
                           .tree = mapped->tree(),
                           .clustering_config = mapped->clustering_config(),
                           .codec_id = loaded.options().codec_id});
  });
  std::vector<double> decode_ms;
  double sequences = 0.0;
  for (std::size_t b = 0; b < mapped->blocks().size(); ++b) {
    const compress::MappedBkcm::Block& block = mapped->blocks()[b];
    compress::KernelCompression stream = block.artifact;
    stream.compressed.stream.assign(block.stream.begin(), block.stream.end());
    sequences += static_cast<double>(stream.compressed.num_sequences());
    std::optional<bnn::PackedKernel> kernel;
    decode_ms.push_back(tracer.time(
        "compress.decode." + block_label(b), 0, root,
        [&] { kernel.emplace(compress::decode_block(stream)); }));
    result.count(*kernel == loaded.model().block(b).conv3x3().kernel(),
                 "decode_block differs from the loaded kernel, block " +
                     block_label(b));
  }
  result.add("compress.open.ms", open_ms, "ms");
  result.add("compress.decode.ms", sum(decode_ms), "ms", decode_ms.size());
  result.add("compress.decode.max_block_ms", max_of(decode_ms), "ms");
  result.add("compress.decode.mseq_per_s", sequences / sum(decode_ms) / 1e3,
             "Mseq/s");
  result.add("bnn.construct.ms", construct_ms, "ms");
  const double open_decode_ms = open_ms + max_of(decode_ms);
  char line[160];
  std::snprintf(line, sizeof line,
                "compress.open.ms + compress.decode.max_block_ms = %.1f ms "
                "%s untraced load %.1f ms",
                open_decode_ms, open_decode_ms <= untraced_load_ms ? "<=" : ">",
                untraced_load_ms);
  result.note(line);
}

/// Simulate every binary 3x3 layer of `loaded`'s artifact per variant,
/// walking the view as compare_model does; the cycles must equal the
/// writer's report.
void trace_simulate(const Engine& loaded, const hwsim::SpeedupReport& ref,
                    Tracer& tracer, int root, Result& result) {
  const compress::CompressedModelView view = loaded.artifact_view();
  const hwsim::ConvVariant variants[3] = {hwsim::ConvVariant::kBaseline,
                                          hwsim::ConvVariant::kSwDecode,
                                          hwsim::ConvVariant::kHwDecode};
  const char* const labels[3] = {"baseline", "sw", "hw"};
  std::vector<double> sim_ms[3];
  double uops = 0.0;
  std::size_t b = 0;
  for (const bnn::OpRecord& op : view.ops) {
    if (op.precision_bits != 1 || op.op_class != bnn::OpClass::kConv3x3) {
      continue;
    }
    const hwsim::StreamInfo info = hwsim::stream_info_for(view.blocks[b]);
    const hwsim::LayerComparison& expected = ref.conv3x3.at(b);
    const std::uint64_t expected_cycles[3] = {
        expected.baseline_cycles, expected.sw_cycles, expected.hw_cycles};
    for (int v = 0; v < 3; ++v) {
      hwsim::LayerSimResult sim;
      sim_ms[v].push_back(tracer.time(
          std::string("hwsim.sim.") + labels[v] + "." + block_label(b), 0,
          root, [&] {
            sim = hwsim::simulate_binary_conv_layer(
                op, variants[v],
                variants[v] == hwsim::ConvVariant::kBaseline ? nullptr
                                                             : &info);
          }));
      uops += static_cast<double>(sim.sampled_uops);
      result.count(sim.cycles == expected_cycles[v],
                   "simulated cycles of the loaded artifact differ from the "
                   "writer's, block " + block_label(b) + " " + labels[v]);
    }
    ++b;
  }
  double sim_total = 0.0;
  double max_layer = 0.0;
  for (int v = 0; v < 3; ++v) {
    result.add(std::string("hwsim.sim.") + labels[v] + ".ms", sum(sim_ms[v]),
               "ms", sim_ms[v].size());
    sim_total += sum(sim_ms[v]);
    max_layer = std::max(max_layer, max_of(sim_ms[v]));
  }
  result.add("hwsim.sim.max_layer_ms", max_layer, "ms");
  result.add("hwsim.muops_per_s", uops / sim_total / 1e3, "Muops/s");
}

}  // namespace

void profile_artifact(const bnn::ReActNetConfig& config, const Options& o,
                      Tracer& tracer, Result& result) {
  const std::string path =
      o.out_dir + "/artifact-" + o.workload + "-" + std::to_string(o.seed) +
      ".bkcm";
  const int root = tracer.begin("artifact", 0);
  Engine fresh(config);
  tracer.time("compress.model", 0, root, [&] { fresh.compress(o.threads); });
  const double save_ms = tracer.time("compress.save", 0, root,
                                     [&] { fresh.save_compressed(path); });
  const hwsim::SpeedupReport ref = fresh.simulate_speedup();

  const Clock::time_point t0 = Clock::now();
  const Engine loaded = Engine::load_compressed(path, o.threads);
  const double load_ms = ms_between(t0, Clock::now());
  const Tensor image =
      make_images(fresh.model().input_shape(), o.seed, 1).front();
  result.count(same_scores(loaded.classify(image, o.threads),
                           fresh.classify(image, o.threads)),
               "loaded engine's scores differ from the writer's");
  result.count(loaded.verify_streams(o.threads),
               "verify_streams failed on the loaded engine");
  result.count(loaded.report().model_ratio_with_tables ==
                   fresh.report().model_ratio_with_tables,
               "compression ratio differs after the save/load round trip");

  const std::vector<double> encode_ms =
      trace_encode(fresh, config, tracer, root, result);
  result.add("compress.encode.ms", sum(encode_ms), "ms", encode_ms.size());
  result.add("compress.encode.max_block_ms", max_of(encode_ms), "ms");
  result.add("compress.save.ms", save_ms, "ms");
  result.add("compress.container_bytes",
             static_cast<double>(std::filesystem::file_size(path)), "bytes");
  trace_load(loaded, path, load_ms, tracer, root, result);
  trace_simulate(loaded, ref, tracer, root, result);
  tracer.end(root);
  std::filesystem::remove(path);
}

}  // namespace bkcbench
