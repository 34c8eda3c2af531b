#pragma once
// Set-associative LRU caches and the two-level hierarchy + DRAM channel.

#include <cstdint>
#include <vector>

#include "hwsim/params.h"

namespace bkc::hwsim {

/// One set-associative, write-allocate, LRU cache level. Addresses are
/// byte addresses in the simulated physical space.
class Cache {
 public:
  Cache(std::int64_t size_bytes, int ways, int line_bytes);

  /// Look up (and on miss, fill) the line containing `addr`.
  /// Returns true on hit.
  bool access(std::uint64_t addr);

  void reset();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  std::int64_t line_bytes() const { return line_bytes_; }

 private:
  std::int64_t sets_;
  int ways_;
  std::int64_t line_bytes_;
  // tags_[set * ways + way]; lru_[same index] = last-use stamp.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::vector<bool> valid_;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Result of one memory access through the hierarchy.
struct AccessResult {
  int latency = 0;      ///< load-to-use cycles
  bool l1_hit = false;
  bool l2_hit = false;
  bool dram = false;
};

/// L1 + L2 + DRAM with a simple bandwidth-occupancy channel model.
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const CpuParams& params);

  /// Access `bytes` at `addr` at time `cycle`; straddling accesses touch
  /// every line they cover (latency of the slowest).
  AccessResult access(std::uint64_t addr, int bytes, std::uint64_t cycle);

  /// Account decoder-stream traffic that is scheduled analytically (the
  /// streaming unit's continuous prefetch, Sec IV-C). The volume is
  /// recorded for the traffic statistics; occupancy is not charged to
  /// the channel because the stream uses well under 10% of its
  /// bandwidth.
  void note_stream_traffic(int bytes);

  void reset();

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  std::uint64_t dram_accesses() const { return dram_accesses_; }
  std::uint64_t stream_bytes() const { return stream_bytes_; }

 private:
  CpuParams params_;
  Cache l1_;
  Cache l2_;
  std::uint64_t dram_busy_until_ = 0;
  std::uint64_t dram_accesses_ = 0;
  std::uint64_t stream_bytes_ = 0;
  std::vector<std::uint64_t> miss_slot_free_;
};

}  // namespace bkc::hwsim
