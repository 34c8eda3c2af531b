// Tour of the timing model: one large binary conv, three ways.
//
// Simulates a 512-channel 14x14 3x3 binary convolution (the dominant
// layer shape of ReActNet) on the A53-class core model as:
//   baseline   - uncompressed kernel, weights streamed from memory
//   sw-decode  - compressed kernel decoded by software into a scratch
//                buffer (the paper's 1.47x-slower configuration)
//   hw-decode  - compressed kernel streamed + decoded by the decoding
//                unit of Fig. 6, weights arriving via ldps
// and prints the cycle/stall/traffic breakdown that explains the
// paper's speedup: the unit hides the weight-fetch latency that the
// in-order core cannot.
//
//   ./examples/hwsim_demo [channels=512] [size=14]

#include <iostream>

#include "compress/block_codec.h"
#include "core/bkc.h"

int main(int argc, char** argv) try {
  using namespace bkc;
  using hwsim::ConvVariant;
  check_known_flags(argc, argv, {});
  const std::int64_t channels =
      argc > 1 ? parse_integer<std::int64_t>("channels", argv[1]) : 512;
  const std::int64_t size =
      argc > 2 ? parse_integer<std::int64_t>("size", argv[2]) : 14;

  // Build the layer's OpRecord and its compressed stream.
  bnn::OpRecord op;
  op.name = "conv3x3";
  op.op_class = bnn::OpClass::kConv3x3;
  op.precision_bits = 1;
  op.kernel_shape = {channels, channels, 3, 3};
  op.input_shape = {channels, size, size};
  op.geometry = {1, 1};
  op.output_shape = op.geometry.output_shape(op.input_shape, op.kernel_shape);

  bnn::WeightGenerator gen(7);
  const auto dist =
      bnn::SequenceDistribution::fitted(bnn::paper_table2_targets()[6]);
  const auto kernel = gen.sample_kernel3x3(channels, channels, dist);
  const compress::CompressedBlock block =
      compress::BlockCodec().compress_block(op.name, kernel);
  // The clustered column is the stream the paper deploys; the StreamInfo
  // holds the codeword lengths scanned from it.
  const compress::KernelCompression& compression = block.clustered;
  const hwsim::StreamInfo stream = hwsim::stream_info_for(compression);

  std::cout << "Layer: " << op.kernel_shape.to_string() << " at " << size
            << "x" << size << "; kernel "
            << bits_str(static_cast<std::uint64_t>(kernel.payload_bits()))
            << " uncompressed, "
            << bits_str(compression.compressed.stream_bits)
            << " compressed (" << ratio_str(compression.compressed.ratio())
            << ")\n";
  std::cout << "Mean codeword: " << stream.mean_bits() << " bits\n\n";

  Table table({"variant", "cycles", "vs base", "load stalls", "ldps stalls",
               "DRAM accesses"});
  std::uint64_t base_cycles = 0;
  for (const auto variant : {ConvVariant::kBaseline, ConvVariant::kSwDecode,
                             ConvVariant::kHwDecode}) {
    const auto result = hwsim::simulate_binary_conv_layer(
        op, variant, variant == ConvVariant::kBaseline ? nullptr : &stream);
    if (variant == ConvVariant::kBaseline) base_cycles = result.cycles;
    table.row()
        .add(hwsim::variant_name(variant))
        .add(result.cycles)
        .add(ratio_str(static_cast<double>(base_cycles) /
                       static_cast<double>(result.cycles)))
        .add(result.load_stall_cycles)
        .add(result.ldps_stall_cycles)
        .add(result.dram_accesses);
  }
  table.print("One-layer timing (sampled rows, scaled to the full layer)");

  std::cout
      << "\nWhat to look for: the baseline's load stalls are the weight\n"
         "fetches an in-order core cannot hide; sw-decode adds a decode\n"
         "pass on top; hw-decode removes the weight loads entirely (the\n"
         "decoding unit streams and decodes in the background) and cuts\n"
         "DRAM traffic by the compression ratio.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "hwsim_demo: " << e.what() << "\n";
  return 1;
}
