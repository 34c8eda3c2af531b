#include "bnn/kernel_sequences.h"

#include "util/check.h"

namespace bkc::bnn {

namespace {
void check_3x3(const KernelShape& shape) {
  check(shape.kernel_h == kSeqSide && shape.kernel_w == kSeqSide,
        "bit sequences are defined for 3x3 kernels, got ", shape);
}
}  // namespace

SeqId sequence_at(const PackedKernel& kernel, std::int64_t o,
                  std::int64_t i) {
  check_3x3(kernel.shape());
  SeqId seq = 0;
  for (int ky = 0; ky < kSeqSide; ++ky) {
    for (int kx = 0; kx < kSeqSide; ++kx) {
      seq = static_cast<SeqId>((seq << 1) |
                               static_cast<SeqId>(kernel.bit(o, i, ky, kx)));
    }
  }
  return seq;
}

void set_sequence_at(PackedKernel& kernel, std::int64_t o, std::int64_t i,
                     SeqId seq) {
  check_3x3(kernel.shape());
  check(seq < kNumSequences, "set_sequence_at: sequence id out of range");
  for (int ky = 0; ky < kSeqSide; ++ky) {
    for (int kx = 0; kx < kSeqSide; ++kx) {
      kernel.set_bit(o, i, ky, kx, seq_bit(seq, ky, kx));
    }
  }
}

std::vector<SeqId> extract_sequences(const PackedKernel& kernel) {
  check_3x3(kernel.shape());
  const auto& shape = kernel.shape();
  std::vector<SeqId> out;
  out.reserve(
      static_cast<std::size_t>(shape.out_channels * shape.in_channels));
  for (std::int64_t o = 0; o < shape.out_channels; ++o) {
    for (std::int64_t i = 0; i < shape.in_channels; ++i) {
      out.push_back(sequence_at(kernel, o, i));
    }
  }
  return out;
}

PackedKernel kernel_from_sequences(std::int64_t out_channels,
                                   std::int64_t in_channels,
                                   std::span<const SeqId> sequences) {
  check(static_cast<std::int64_t>(sequences.size()) ==
            out_channels * in_channels,
        "kernel_from_sequences: sequence count mismatch");
  PackedKernel kernel(
      KernelShape{out_channels, in_channels, kSeqSide, kSeqSide});
  std::size_t index = 0;
  for (std::int64_t o = 0; o < out_channels; ++o) {
    for (std::int64_t i = 0; i < in_channels; ++i) {
      set_sequence_at(kernel, o, i, sequences[index++]);
    }
  }
  return kernel;
}

}  // namespace bkc::bnn
