#include "hwsim/decoder_unit.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace bkc::hwsim {

StreamInfo StreamInfo::from_lengths(std::vector<std::uint8_t> lengths) {
  const std::uint64_t total = std::accumulate(
      lengths.begin(), lengths.end(), std::uint64_t{0});
  return StreamInfo{.code_lengths = std::move(lengths), .total_bits = total};
}

double StreamInfo::mean_bits() const {
  check(!code_lengths.empty(), "StreamInfo: empty stream");
  return static_cast<double>(total_bits) /
         static_cast<double>(code_lengths.size());
}

DecoderUnitRuntime::DecoderUnitRuntime(const DecoderParams& params,
                                       MemoryHierarchy& memory,
                                       const StreamInfo& stream,
                                       std::vector<std::uint32_t> group_sizes,
                                       int regs_per_group,
                                       std::uint64_t start_cycle)
    : params_(params),
      memory_(&memory),
      stream_(stream),
      group_sizes_(std::move(group_sizes)),
      regs_per_group_(regs_per_group) {
  check(regs_per_group_ >= 1, "DecoderUnitRuntime: regs_per_group >= 1");
  check(!group_sizes_.empty(), "DecoderUnitRuntime: no groups");
  const std::uint64_t total = std::accumulate(
      group_sizes_.begin(), group_sizes_.end(), std::uint64_t{0});
  check(total == stream.code_lengths.size(),
        "DecoderUnitRuntime: group sizes must cover the stream");
  // lddu: configuration load + unit reset before the first fetch.
  decoder_time_ = start_cycle + static_cast<std::uint64_t>(
                                    params_.configure_cycles);
  fetch_done_cycle_ = decoder_time_;
  stream_request_cycle_ = decoder_time_;
  // The fetch schedule is analytic (see ensure_group).
  dram_latency_ =
      static_cast<std::uint64_t>(params_.stream_latency_cycles);
  chunk_transfer_cycles_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(params_.fetch_chunk_bytes) /
             params_.stream_bytes_per_cycle));
  group_ready_.assign(group_sizes_.size(), 0);
  group_freed_.assign(group_sizes_.size(), 0);
}

void DecoderUnitRuntime::ensure_group(std::size_t g) {
  check(g < group_sizes_.size(), "DecoderUnitRuntime: group out of range");
  while (groups_computed_ <= g) {
    const std::size_t group = groups_computed_;
    // Register-file backpressure: with room for two packed groups, group
    // g cannot start packing before group g-2's registers were all read.
    if (group >= 2) {
      decoder_time_ = std::max(decoder_time_, group_freed_[group - 2]);
    }
    std::uint64_t needed_bits = 0;
    for (std::size_t i = 0; i < group_sizes_[group]; ++i) {
      needed_bits += stream_.code_lengths[next_seq_ + i];
    }
    // Fetch T-byte chunks until this group's bits are buffered. The
    // streaming unit "sends a new request to fetch more bytes while
    // doing the decoding" (Sec IV-C): requests stream back-to-back from
    // the start of the activation, so chunk k completes one transfer
    // time after chunk k-1 and only the first fetch exposes the full
    // DRAM latency. The decoder consumes ~7 bits/cycle worth of stream
    // at most, far below channel bandwidth, so the prefetch never falls
    // behind and channel contention with the core is negligible (the
    // traffic volume is still accounted).
    while (bits_fetched_ - bits_consumed_ < needed_bits) {
      ++chunks_fetched_;
      fetch_done_cycle_ = stream_request_cycle_ + dram_latency_ +
                          chunks_fetched_ * chunk_transfer_cycles_;
      memory_->note_stream_traffic(params_.fetch_chunk_bytes);
      bits_fetched_ +=
          static_cast<std::uint64_t>(params_.fetch_chunk_bytes) * 8;
    }
    bits_consumed_ += needed_bits;
    // Decode: one sequence per cycle once its bits are in the buffer.
    decoder_time_ = std::max(decoder_time_, fetch_done_cycle_);
    decoder_time_ += group_sizes_[group] /
                     static_cast<std::uint64_t>(params_.decode_per_cycle);
    next_seq_ += group_sizes_[group];
    group_ready_[group] = decoder_time_;
    ++groups_computed_;
  }
}

std::uint64_t DecoderUnitRuntime::pop(std::uint64_t cycle) {
  const std::size_t group = next_pop_ / static_cast<std::size_t>(regs_per_group_);
  const std::size_t reg_in_group =
      next_pop_ % static_cast<std::size_t>(regs_per_group_);
  ensure_group(group);
  const std::uint64_t ready = group_ready_[group];
  const std::uint64_t done =
      std::max(cycle, ready) + static_cast<std::uint64_t>(params_.ldps_cycles);
  if (reg_in_group == static_cast<std::size_t>(regs_per_group_) - 1) {
    group_freed_[group] = done;
  }
  last_pop_cycle_ = done;
  ++next_pop_;
  return done;
}

std::uint64_t DecoderUnitRuntime::remaining_pops() const {
  const std::uint64_t total_regs =
      static_cast<std::uint64_t>(group_sizes_.size()) *
      static_cast<std::uint64_t>(regs_per_group_);
  return total_regs - next_pop_;
}

}  // namespace bkc::hwsim
