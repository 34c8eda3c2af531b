#include "hwsim/conv_trace.h"

#include <algorithm>
#include <vector>

#include "hwsim/params.h"
#include "util/check.h"

namespace bkc::hwsim {

std::string variant_name(ConvVariant variant) {
  switch (variant) {
    case ConvVariant::kBaseline:
      return "baseline";
    case ConvVariant::kSwDecode:
      return "sw-decode";
    case ConvVariant::kHwDecode:
      return "hw-decode";
  }
  unreachable("variant_name: bad enum");
}

LayerGeometry LayerGeometry::from_op(const bnn::OpRecord& op) {
  check(op.kernel_shape.kernel_h == op.kernel_shape.kernel_w,
        "LayerGeometry: only square kernels are simulated");
  LayerGeometry g;
  g.in_channels = op.kernel_shape.in_channels;
  g.out_channels = op.kernel_shape.out_channels;
  g.kernel = op.kernel_shape.kernel_h;
  g.stride = op.geometry.stride;
  g.padding = op.geometry.padding;
  g.in_h = op.input_shape.height;
  g.in_w = op.input_shape.width;
  g.out_h = op.output_shape.height;
  g.out_w = op.output_shape.width;
  g.groups = (g.in_channels + kVectorBits - 1) / kVectorBits;
  check(g.groups >= 1 && g.out_h >= 1 && g.out_w >= 1,
        "LayerGeometry: degenerate layer");
  return g;
}

namespace {

// Simulated address space (byte addresses; buffers are far apart so they
// never alias in the caches by accident).
constexpr std::uint64_t kInputBase = 0x10000000;
constexpr std::uint64_t kWeightBase = 0x20000000;
constexpr std::uint64_t kScratchBase = 0x30000000;
constexpr std::uint64_t kOutputBase = 0x40000000;
constexpr std::uint64_t kStreamBase = 0x50000000;
constexpr std::uint64_t kTableBase = 0x60000000;

constexpr int kVectorBytes = kVectorBits / 8;

// The row sample: every layer simulates one warm-up row (cold caches,
// not counted) and then this many rows, whose mean is scaled to out_h.
// Rows past the warm-up see steady-state cache behaviour.
constexpr std::int64_t kSampleRows = 3;
constexpr std::int64_t kWarmupRows = 1;

/// Exact uop count of one emit_row sweep of `g` (any variant).
std::size_t row_uops(const LayerGeometry& g) {
  return static_cast<std::size_t>(
      g.out_channels *
      (g.groups * (2 + g.positions() * (1 + 4 * g.out_w)) + 2 * g.out_w + 1));
}

/// Emit the trace of one output row sweep.
///
/// The generated code is *software-pipelined* the way daBNN's unrolled
/// NEON kernels are: within a pixel, all position loads issue first and
/// the xnor/popcount ops consume them a constant distance later, so L1
/// hit latency is hidden and only real misses stall. The weight words of
/// each (output-channel, group) section are acquired up front; the first
/// compute op of the section waits for the last of them, exposing the
/// weight-fetch latency exactly once per section - this is the latency
/// the decoding unit hides in the kHwDecode variant.
void emit_row(std::vector<MicroOp>& trace, const LayerGeometry& g,
              ConvVariant variant, std::int64_t row) {
  const std::int64_t positions = g.positions();
  constexpr auto vb = static_cast<std::uint16_t>(kVectorBytes);
  for (std::int64_t o = 0; o < g.out_channels; ++o) {
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      // Acquire the weight words for (o, grp): one per kernel position.
      const std::uint64_t weight_row_base =
          (variant == ConvVariant::kSwDecode ? kScratchBase : kWeightBase);
      for (std::int64_t pos = 0; pos < positions; ++pos) {
        if (variant == ConvVariant::kHwDecode) {
          trace.push_back({.kind = UopKind::kLoadPacked});
        } else {
          const std::uint64_t addr =
              weight_row_base +
              static_cast<std::uint64_t>(((o * g.groups + grp) * positions +
                                          pos) *
                                         kVectorBytes);
          trace.push_back(
              {.kind = UopKind::kLoad, .addr = addr, .bytes = vb});
        }
      }
      // The compute below reads the weight registers: synchronise on the
      // last weight acquisition (DRAM serialisation makes it complete
      // last, so one dependency models the whole set).
      trace.push_back({.kind = UopKind::kScalar, .dep = 1});
      // Stream the row's pixels.
      for (std::int64_t x = 0; x < g.out_w; ++x) {
        const std::int64_t base_y = row * g.stride - g.padding;
        const std::int64_t base_x = x * g.stride - g.padding;
        // Phase 1: all position loads (2 uops each: addr-gen + load).
        for (std::int64_t pos = 0; pos < positions; ++pos) {
          const std::int64_t iy = base_y + pos / g.kernel;
          const std::int64_t ix = base_x + pos % g.kernel;
          trace.push_back({.kind = UopKind::kScalar});
          if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
            const std::uint64_t addr =
                kInputBase +
                static_cast<std::uint64_t>(((iy * g.in_w + ix) * g.groups +
                                            grp) *
                                           kVectorBytes);
            trace.push_back(
                {.kind = UopKind::kLoad, .addr = addr, .bytes = vb});
          } else {
            // Padding: the -1 constant lives in a register; model the
            // select as a 1-cycle vector op in place of the load.
            trace.push_back({.kind = UopKind::kVector});
          }
        }
        // Phase 2: xnor+popcount+accumulate per position. eor_p sits a
        // constant 2*positions-1 uops after load_p; the accumulator
        // chains through the pixel.
        const auto eor_dep = static_cast<std::uint32_t>(2 * positions - 1);
        for (std::int64_t pos = 0; pos < positions; ++pos) {
          trace.push_back({.kind = UopKind::kVector, .dep = eor_dep});
          const bool first_acc = pos == 0 && x == 0;
          const std::uint32_t acc_dep =
              pos == 0 ? static_cast<std::uint32_t>(2 * positions + 2) : 2;
          trace.push_back({.kind = UopKind::kVector,
                           .dep = first_acc ? 0 : acc_dep});
        }
      }
      trace.push_back({.kind = UopKind::kBranch});
    }
    // Reduce + store one output value per pixel of the row.
    for (std::int64_t x = 0; x < g.out_w; ++x) {
      trace.push_back({.kind = UopKind::kScalar});
      const std::uint64_t addr =
          kOutputBase + static_cast<std::uint64_t>(
                            ((o * g.out_h + row) * g.out_w + x) * 2);
      trace.push_back({.kind = UopKind::kStore, .addr = addr, .bytes = 2});
    }
    trace.push_back({.kind = UopKind::kBranch});
  }
}

/// Emit the one-time software decode pass for `count` sequences starting
/// at stream bit offset tracked via `bits_done`.
void emit_sw_decode(std::vector<MicroOp>& trace, const StreamInfo& stream,
                    std::size_t first_seq, std::size_t count,
                    std::uint64_t& bits_done) {
  std::uint64_t packed_in_group = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t seq = first_seq + i;
    // Refill the 64-bit stream window when it runs dry.
    const std::uint64_t before = bits_done / 64;
    bits_done += stream.code_lengths[seq];
    if (bits_done / 64 != before) {
      trace.push_back({.kind = UopKind::kLoad,
                       .addr = kStreamBase + (bits_done / 64) * 8,
                       .bytes = 8});
    }
    // Prefix probe, length lookup, shift/mask of the index bits
    // (Sec IV-B: "the overhead of decoding and packing the bit
    // sequences at runtime").
    for (int s = 0; s < 4; ++s) {
      trace.push_back({.kind = UopKind::kScalar});
    }
    // Uncompressed-table lookup.
    trace.push_back({.kind = UopKind::kLoad,
                     .addr = kTableBase + (seq % 672) * 2,
                     .bytes = 2});
    // Channel packing: insert one bit into each of the 9 packing words.
    for (int b = 0; b < 9; ++b) {
      trace.push_back({.kind = UopKind::kScalar, .dep = 1});
    }
    // Write a packed register group to the scratch kernel every
    // kVectorBits sequences.
    ++packed_in_group;
    if (packed_in_group == static_cast<std::uint64_t>(kVectorBits)) {
      packed_in_group = 0;
      for (int r = 0; r < 9; ++r) {
        trace.push_back({.kind = UopKind::kStore,
                         .addr = kScratchBase + seq * 2 + r,
                         .bytes = kVectorBytes});
      }
    }
  }
}

}  // namespace

LayerSimResult simulate_binary_conv_layer(const bnn::OpRecord& op,
                                          ConvVariant variant,
                                          const StreamInfo* stream) {
  const LayerGeometry g = LayerGeometry::from_op(op);
  LayerSimResult result;
  result.name = op.name;
  result.variant = variant;

  if (variant != ConvVariant::kBaseline) {
    check(stream != nullptr,
          "simulate_binary_conv_layer: compressed variants need a stream");
    check(static_cast<std::int64_t>(stream->code_lengths.size()) ==
              g.in_channels * g.out_channels,
          "simulate_binary_conv_layer: stream length mismatch");
  }

  InOrderCore core(CpuParams{});

  // --- One-time software decode pass (sampled, linear cost). ---
  if (variant == ConvVariant::kSwDecode) {
    const std::size_t total =
        static_cast<std::size_t>(g.in_channels * g.out_channels);
    const std::size_t sample = std::min<std::size_t>(total, 16384);
    std::vector<MicroOp> decode_trace;
    std::uint64_t bits_done = 0;
    emit_sw_decode(decode_trace, *stream, 0, sample, bits_done);
    const CoreStats stats = core.run(decode_trace);
    const double scale =
        static_cast<double>(total) / static_cast<double>(sample);
    result.decode_cycles =
        static_cast<std::uint64_t>(static_cast<double>(stats.cycles) * scale);
    result.sampled_uops += stats.uops;
  }

  // The hw variant's channel-packing groups: (o, grp) in stream order,
  // each as many sequences as its group has input channels.
  std::vector<std::uint32_t> group_sizes;
  if (variant == ConvVariant::kHwDecode) {
    group_sizes.reserve(static_cast<std::size_t>(g.out_channels * g.groups));
    for (std::int64_t o = 0; o < g.out_channels; ++o) {
      for (std::int64_t grp = 0; grp < g.groups; ++grp) {
        const std::int64_t lo = grp * kVectorBits;
        const std::int64_t hi =
            std::min<std::int64_t>(g.in_channels, lo + kVectorBits);
        group_sizes.push_back(static_cast<std::uint32_t>(hi - lo));
      }
    }
  }

  // --- The row sweeps, one trace buffer reused across rows. ---
  const std::int64_t rows_to_sim =
      std::min<std::int64_t>(g.out_h, kWarmupRows + kSampleRows);
  const std::int64_t warmup = rows_to_sim > kWarmupRows ? kWarmupRows : 0;

  std::vector<MicroOp> trace;
  trace.reserve(row_uops(g));
  std::uint64_t counted_cycles = 0;
  std::int64_t counted_rows = 0;
  for (std::int64_t row = 0; row < rows_to_sim; ++row) {
    trace.clear();
    emit_row(trace, g, variant, row);

    CoreStats stats;
    if (variant == ConvVariant::kHwDecode) {
      // One lddu activation streams the whole kernel for this row sweep.
      DecoderUnitRuntime decoder(DecoderParams{}, core.memory(), *stream,
                                 group_sizes,
                                 static_cast<int>(g.positions()),
                                 core.cycle());
      stats = core.run(trace, &decoder);
    } else {
      stats = core.run(trace);
    }

    result.sampled_uops += stats.uops;
    if (row >= warmup) {
      counted_cycles += stats.cycles;
      ++counted_rows;
      result.load_stall_cycles += stats.load_stall_cycles;
      result.ldps_stall_cycles += stats.ldps_stall_cycles;
      result.l1_misses += stats.l1_misses;
      result.l2_misses += stats.l2_misses;
      result.dram_accesses += stats.dram_accesses;
    }
  }
  check(counted_rows > 0, "simulate_binary_conv_layer: nothing sampled");
  const double per_row = static_cast<double>(counted_cycles) /
                         static_cast<double>(counted_rows);
  result.cycles =
      result.decode_cycles +
      static_cast<std::uint64_t>(per_row * static_cast<double>(g.out_h));
  return result;
}

}  // namespace bkc::hwsim
