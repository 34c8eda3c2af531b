#include "hwsim/cache.h"

#include <algorithm>

#include "util/check.h"

namespace bkc::hwsim {

namespace {
bool is_pow2(std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; }
}  // namespace

Cache::Cache(std::int64_t size_bytes, int ways, int line_bytes)
    : sets_(size_bytes / (ways * line_bytes)),
      ways_(ways),
      line_bytes_(line_bytes) {
  check(ways >= 1, "Cache: need at least one way");
  check(is_pow2(line_bytes), "Cache: line size must be a power of two");
  check(sets_ >= 1 && is_pow2(sets_),
        "Cache: size/(ways*line) must be a power-of-two set count");
  const auto entries = static_cast<std::size_t>(sets_ * ways_);
  tags_.assign(entries, 0);
  lru_.assign(entries, 0);
  valid_.assign(entries, false);
}

bool Cache::access(std::uint64_t addr) {
  const std::uint64_t line = addr / static_cast<std::uint64_t>(line_bytes_);
  const auto set = static_cast<std::size_t>(
      line % static_cast<std::uint64_t>(sets_));
  const std::size_t base = set * static_cast<std::size_t>(ways_);
  ++stamp_;
  for (int w = 0; w < ways_; ++w) {
    if (valid_[base + static_cast<std::size_t>(w)] &&
        tags_[base + static_cast<std::size_t>(w)] == line) {
      lru_[base + static_cast<std::size_t>(w)] = stamp_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  // Fill the LRU way.
  std::size_t victim = base;
  for (int w = 1; w < ways_; ++w) {
    const std::size_t i = base + static_cast<std::size_t>(w);
    if (!valid_[i]) {
      victim = i;
      break;
    }
    if (lru_[i] < lru_[victim]) victim = i;
  }
  tags_[victim] = line;
  lru_[victim] = stamp_;
  valid_[victim] = true;
  return false;
}

void Cache::reset() {
  std::fill(valid_.begin(), valid_.end(), false);
  stamp_ = hits_ = misses_ = 0;
}

MemoryHierarchy::MemoryHierarchy(const CpuParams& params)
    : params_(params),
      l1_(params.l1_bytes, params.l1_ways, params.line_bytes),
      l2_(params.l2_bytes, params.l2_ways, params.line_bytes) {
  check(params.max_outstanding_misses >= 1,
        "MemoryHierarchy: need at least one miss slot");
  miss_slot_free_.assign(
      static_cast<std::size_t>(params.max_outstanding_misses), 0);
}

AccessResult MemoryHierarchy::access(std::uint64_t addr, int bytes,
                                     std::uint64_t cycle) {
  check(bytes >= 1, "MemoryHierarchy: bytes must be positive");
  AccessResult result;
  const auto line_bytes = static_cast<std::uint64_t>(params_.line_bytes);
  const std::uint64_t first = addr / line_bytes;
  const std::uint64_t last =
      (addr + static_cast<std::uint64_t>(bytes) - 1) / line_bytes;
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::uint64_t line_addr = line * line_bytes;
    int latency = params_.l1_latency;
    if (l1_.access(line_addr)) {
      result.l1_hit = true;
    } else if (l2_.access(line_addr)) {
      result.l2_hit = true;
      latency += params_.l2_latency;
    } else {
      result.dram = true;
      ++dram_accesses_;
      const auto transfer = static_cast<std::uint64_t>(
          static_cast<double>(params_.line_bytes) /
          params_.dram_bytes_per_cycle);
      // The linefill needs (a) a free miss slot - the core sustains only
      // a few outstanding misses - and (b) the channel.
      auto slot = miss_slot_free_.begin();
      for (auto it = miss_slot_free_.begin(); it != miss_slot_free_.end();
           ++it) {
        if (*it < *slot) slot = it;
      }
      const std::uint64_t start =
          std::max({cycle, *slot, dram_busy_until_});
      dram_busy_until_ = start + transfer;
      const std::uint64_t fill_done =
          start + static_cast<std::uint64_t>(params_.dram_latency) + transfer;
      *slot = fill_done;  // slot held until the fill returns
      latency += params_.l2_latency + static_cast<int>(fill_done - cycle);
    }
    result.latency = std::max(result.latency, latency);
  }
  return result;
}

void MemoryHierarchy::note_stream_traffic(int bytes) {
  check(bytes >= 1, "MemoryHierarchy: bytes must be positive");
  ++dram_accesses_;
  stream_bytes_ += static_cast<std::uint64_t>(bytes);
}

void MemoryHierarchy::reset() {
  l1_.reset();
  l2_.reset();
  dram_busy_until_ = 0;
  dram_accesses_ = 0;
  stream_bytes_ = 0;
  std::fill(miss_slot_free_.begin(), miss_slot_free_.end(), 0);
}

}  // namespace bkc::hwsim
