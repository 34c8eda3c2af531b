#pragma once
// Micro-op trace generation for binary convolution layers.
//
// The simulated schedule mirrors daBNN's direct convolution on the
// channel-packed layout (Sec IV-B): for every output row, the kernel is
// swept output-channel-major; the 9 (or 1) weight words of one
// (output-channel, channel-group) pair are loaded into vector registers,
// then the row's pixels stream through xnor+popcount+accumulate. The
// kernel is therefore re-fetched once per output row - for the large
// layers its footprint exceeds the L2, which puts the weight loads on
// the critical path exactly as the paper observes.
//
// Three variants are generated from the same schedule:
//   kBaseline - weights loaded from the uncompressed kernel.
//   kSwDecode - a software decode pass (stream loads, table lookups and
//               bit-packing ops per sequence) materialises the kernel
//               into a scratch buffer once per inference; the sweep then
//               loads weights from that scratch buffer.
//   kHwDecode - weight loads are replaced by `ldps` pops from the
//               decoding unit, which re-streams the compressed kernel in
//               the background each row sweep.
//
// Every simulation runs on the one A53 configuration of hwsim/params.h
// (its defaults) and times a fixed sample of output rows: one warm-up
// row, then three counted rows, scaled to the full layer.

#include <compare>
#include <string>

#include "bnn/model.h"
#include "hwsim/core.h"
#include "hwsim/decoder_unit.h"

namespace bkc::hwsim {

enum class ConvVariant { kBaseline, kSwDecode, kHwDecode };

/// NEON register width: the channel-group size of the packed layout.
inline constexpr int kVectorBits = 128;

std::string variant_name(ConvVariant variant);

/// Resolved geometry of a binary conv layer in channel groups of the
/// vector width. The micro-op trace is a function of this, the variant
/// and the stream alone, so two ops with equal geometry simulate to
/// equal cycles: it is the simulation memo key.
struct LayerGeometry {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;  ///< kernel side (1 or 3)
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t in_h = 0, in_w = 0;
  std::int64_t out_h = 0, out_w = 0;
  std::int64_t groups = 0;  ///< ceil(in_channels / kVectorBits)

  static LayerGeometry from_op(const bnn::OpRecord& op);
  std::int64_t positions() const { return kernel * kernel; }
  auto operator<=>(const LayerGeometry&) const = default;
};

/// Result of simulating one layer (scaled to the full layer).
struct LayerSimResult {
  std::string name;
  ConvVariant variant = ConvVariant::kBaseline;
  std::uint64_t cycles = 0;         ///< full-layer estimate
  std::uint64_t decode_cycles = 0;  ///< sw variant: one-time decode pass
  std::uint64_t sampled_uops = 0;
  std::uint64_t load_stall_cycles = 0;
  std::uint64_t ldps_stall_cycles = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_accesses = 0;
};

/// Simulate one binary conv layer. `stream` carries the compressed
/// stream's codeword lengths and is required for kSwDecode / kHwDecode.
LayerSimResult simulate_binary_conv_layer(const bnn::OpRecord& op,
                                          ConvVariant variant,
                                          const StreamInfo* stream = nullptr);

}  // namespace bkc::hwsim
