#pragma once
// The per-block compressed artifact: exactly what a container block
// holds (Sec IV-B).
//
// Encoded bit sequences have variable length, so channel packing cannot
// be done offline; the codewords are simply stored "consecutively in
// memory as a sequence of encoded words" in the canonical order
// (output-channel-major, then input channel). The one encoder is
// BlockCodec::compress_block and the one way back to the channel-packed
// kernel is decode_block (compress/block_codec.h); the artifact carries
// no decoded copy of its kernel.

#include <cstdint>
#include <vector>

#include "bnn/bitseq.h"
#include "compress/clustering.h"
#include "compress/grouped_huffman.h"

namespace bkc::compress {

/// The block codec's on-disk id. BKCM v2 stores it before every block
/// and lists it in the codec directory; a reader accepts no other id.
inline constexpr std::uint32_t kCodecGroupedHuffman = 1;

/// A 3x3 binary kernel in compressed form. Mirrors the hardware
/// configuration structure of Table III: number of sequences, pointer
/// (here: owned bytes) and length of the compressed stream; the Huffman
/// tree travels as the codec that produced the stream.
struct CompressedKernel {
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::vector<std::uint8_t> stream;
  std::size_t stream_bits = 0;

  std::size_t num_sequences() const {
    return static_cast<std::size_t>(out_channels * in_channels);
  }
  /// Size of the uncompressed kernel (one bit per weight).
  std::uint64_t uncompressed_bits() const {
    return static_cast<std::uint64_t>(out_channels * in_channels *
                                      bnn::kSeqBits);
  }
  /// Compression ratio achieved on this kernel (stream only, like the
  /// paper's Table V).
  double ratio() const;
};

/// One compressed 3x3 kernel: statistics, decode tables and stream —
/// exactly the fields a container block stores. Emitted by
/// BlockCodec::compress_block, parsed back by read_block
/// (compress/block_codec.h). The per-codeword lengths are a function of
/// the stream (hwsim::stream_info_for scans them).
struct KernelCompression {
  FrequencyTable frequencies;        ///< before clustering
  ClusteringResult clustering;       ///< identity when disabled
  FrequencyTable coded_frequencies;  ///< after clustering
  GroupedHuffmanCodec codec;
  CompressedKernel compressed;
};

}  // namespace bkc::compress
