#pragma once
// The decoding unit (Fig. 6): streaming unit + packing unit.
//
// Functional behaviour lives in compress::GroupedHuffmanCodec (what the
// bits mean); this model adds *timing*: when is each channel-packed
// register available to an `ldps` instruction?
//
//   - The streaming unit fetches the compressed stream in T-byte chunks
//     from DRAM into a double-buffered input buffer; a new fetch is
//     issued while previous bits decode (Sec IV-C).
//   - The stream parser + decoder table emit one decoded bit sequence
//     per cycle once bits are available.
//   - The packing unit distributes each decoded sequence over k (=9)
//     packing registers of R (=128) bits; a register group becomes
//     readable when its R sequences have been packed, and the register
//     file has room for two groups (double buffering) - the decoder
//     stalls when both groups are full and unread.
//
// The model is driven lazily from the consuming core: `pop(cycle)`
// returns the cycle at which the next packed register is in a CPU
// register. Stream fetches go through the shared MemoryHierarchy so
// decoder traffic occupies the same DRAM channel as CPU misses.

#include <cstdint>
#include <vector>

#include "hwsim/cache.h"
#include "hwsim/params.h"

namespace bkc::hwsim {

/// Static description of one compressed kernel stream: the per-sequence
/// codeword lengths in stream order (canonical o-major enumeration) and
/// their sum. Owns its lengths; hwsim::stream_info_for scans them from
/// an artifact's stream.
struct StreamInfo {
  std::vector<std::uint8_t> code_lengths;  ///< bits per sequence
  std::uint64_t total_bits = 0;

  /// Take `lengths` and sum the total (streams fabricated by hand, as
  /// in tests).
  static StreamInfo from_lengths(std::vector<std::uint8_t> lengths);
  double mean_bits() const;
};

/// Timing model of one decoding-unit activation (one lddu configuration
/// streaming `sequences_per_group`-sized groups until the stream ends).
class DecoderUnitRuntime {
 public:
  /// `group_sizes[g]` = number of sequences channel-packed into group g
  /// (R, except possibly less for the last input-channel group).
  /// Each group produces `regs_per_group` packed registers to pop.
  /// `stream` and `group_sizes` are held by reference and must outlive
  /// the runtime.
  DecoderUnitRuntime(const DecoderParams& params, MemoryHierarchy& memory,
                     const StreamInfo& stream,
                     const std::vector<std::uint32_t>& group_sizes,
                     int regs_per_group, std::uint64_t start_cycle);
  DecoderUnitRuntime(const DecoderParams&, MemoryHierarchy&, StreamInfo&&,
                     const std::vector<std::uint32_t>&, int,
                     std::uint64_t) = delete;
  DecoderUnitRuntime(const DecoderParams&, MemoryHierarchy&,
                     const StreamInfo&, std::vector<std::uint32_t>&&, int,
                     std::uint64_t) = delete;

  /// Cycle at which the next packed register (pops are strictly in
  /// order) is available in a CPU register, given the core asks at
  /// `cycle`. Advances internal pop state.
  std::uint64_t pop(std::uint64_t cycle);

  /// Registers still unread.
  std::uint64_t remaining_pops() const;

 private:
  /// Ensure group `g`'s ready time is computed (decodes lazily).
  void ensure_group(std::size_t g);

  DecoderParams params_;
  MemoryHierarchy* memory_;
  const StreamInfo& stream_;
  const std::vector<std::uint32_t>& group_sizes_;
  int regs_per_group_;

  // Decode progress.
  std::size_t next_seq_ = 0;           ///< next sequence to decode
  std::uint64_t bits_fetched_ = 0;     ///< stream bits available
  std::uint64_t bits_consumed_ = 0;    ///< stream bits already decoded
  std::uint64_t fetch_done_cycle_ = 0; ///< completion of last fetch
  std::uint64_t stream_request_cycle_ = 0;  ///< activation start (prefetch)
  std::uint64_t chunks_fetched_ = 0;
  std::uint64_t dram_latency_ = 0;
  std::uint64_t chunk_transfer_cycles_ = 0;
  std::uint64_t decoder_time_ = 0;     ///< decoder pipeline clock

  std::vector<std::uint64_t> group_ready_;  ///< computed lazily
  std::size_t groups_computed_ = 0;

  // Pop state.
  std::size_t next_pop_ = 0;
  std::vector<std::uint64_t> group_freed_;  ///< when group slot was freed
};

}  // namespace bkc::hwsim
