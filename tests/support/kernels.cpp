#include "support/kernels.h"

namespace bkc::test {

bnn::PackedKernel calibrated_kernel(std::int64_t out_channels,
                                    std::int64_t in_channels,
                                    std::uint64_t seed,
                                    bnn::BlockFrequencyTarget target) {
  bnn::WeightGenerator gen(seed);
  const auto dist = bnn::SequenceDistribution::fitted(target);
  return gen.sample_kernel3x3(out_channels, in_channels, dist);
}

Tensor random_pm1_tensor(const FeatureShape& shape, Rng& rng) {
  Tensor t(shape);
  for (auto& v : t.data()) v = rng.chance(0.5) ? 1.0f : -1.0f;
  return t;
}

WeightTensor random_pm1_weights(const KernelShape& shape, Rng& rng) {
  WeightTensor w(shape);
  for (auto& v : w.data()) v = rng.chance(0.5) ? 1.0f : -1.0f;
  return w;
}

bnn::OpRecord conv_op(std::int64_t channels, std::int64_t size,
                      std::int64_t kernel, std::int64_t stride) {
  bnn::OpRecord op;
  op.name = "conv";
  op.op_class =
      kernel == 3 ? bnn::OpClass::kConv3x3 : bnn::OpClass::kConv1x1;
  op.precision_bits = 1;
  op.kernel_shape = {channels, channels, kernel, kernel};
  op.input_shape = {channels, size, size};
  op.geometry = {stride, kernel == 3 ? 1 : 0};
  op.output_shape =
      op.geometry.output_shape(op.input_shape, op.kernel_shape);
  op.macs = static_cast<std::uint64_t>(op.output_shape.size() *
                                       op.kernel_shape.receptive_size());
  op.storage_bits = static_cast<std::uint64_t>(op.kernel_shape.size());
  return op;
}

hwsim::StreamInfo uniform_stream(std::size_t sequences, std::uint8_t bits) {
  return hwsim::StreamInfo::from_lengths(
      std::vector<std::uint8_t>(sequences, bits));
}

compress::CompressedBlock encode_block(const bnn::PackedKernel& kernel) {
  return compress::BlockCodec().compress_block("kernel", kernel);
}

hwsim::StreamInfo compressed_stream(std::int64_t channels,
                                    std::uint64_t seed) {
  return hwsim::stream_info_for(
      encode_block(calibrated_kernel(channels, channels, seed)).clustered);
}

bnn::PackedKernel pipeline_round_trip(const bnn::PackedKernel& kernel,
                                      bool clustering) {
  const compress::CompressedBlock block = encode_block(kernel);
  return compress::decode_block(clustering ? block.clustered
                                           : block.encoding);
}

}  // namespace bkc::test
