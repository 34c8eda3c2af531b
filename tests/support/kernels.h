#pragma once
// Seeded kernel / tensor / stream factories shared by the codec and
// hwsim test suites.

#include <cstdint>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/weights.h"
#include "compress/block_codec.h"
#include "hwsim/decoder_unit.h"
#include "hwsim/perf_model.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bkc::test {

/// A 3x3 binary kernel whose bit-sequence frequencies follow the
/// paper's Table II shape (defaults to the block-5 row: top-64 share
/// 64.5%, top-256 share 95.1%). This is the standard compressible
/// input of the codec suites.
bnn::PackedKernel calibrated_kernel(std::int64_t out_channels,
                                    std::int64_t in_channels,
                                    std::uint64_t seed,
                                    bnn::BlockFrequencyTarget target = {
                                        0.645, 0.951});

/// A feature tensor with i.i.d. +/-1 entries.
Tensor random_pm1_tensor(const FeatureShape& shape, Rng& rng);

/// A weight tensor with i.i.d. +/-1 entries.
WeightTensor random_pm1_weights(const KernelShape& shape, Rng& rng);

/// A binary conv OpRecord (3x3 or 1x1) with geometry, macs and storage
/// resolved the way BasicBlock::op_records resolves real layers.
bnn::OpRecord conv_op(std::int64_t channels, std::int64_t size,
                      std::int64_t kernel = 3, std::int64_t stride = 1);

/// A compressed-stream summary where every sequence costs `bits` bits.
hwsim::StreamInfo uniform_stream(std::size_t sequences, std::uint8_t bits);

/// One compress_block pass of the default grouped-huffman codec (the
/// paper's tree and clustering configuration) over `kernel`.
compress::CompressedBlock encode_block(const bnn::PackedKernel& kernel);

/// The stream summary of a freshly compressed (clustered) calibrated
/// channels x channels kernel - a realistic decoder-unit input.
hwsim::StreamInfo compressed_stream(std::int64_t channels,
                                    std::uint64_t seed);

/// Compresses the kernel with encode_block and decodes one column back
/// with decode_block (the clustered column when `clustering`); returns
/// the decoded kernel. With `clustering` false the result must equal
/// the input bit-exactly (the suites assert this).
bnn::PackedKernel pipeline_round_trip(const bnn::PackedKernel& kernel,
                                      bool clustering);

}  // namespace bkc::test
