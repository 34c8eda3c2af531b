#pragma once
// Serving-side observability: per-model and per-tenant traffic counters
// for the in-process inference server (serve/scheduler.h).
//
// The scheduler records three events — a submission accepted into a
// queue, a submission rejected by admission control, and a dispatched
// batch (which carries the queue time and tenant of every request it
// drained). ServeStats aggregates them under one lock into plain
// counter structs; snapshot() copies the whole state out so callers
// (demo binaries, the load bench, tests) can read a consistent view
// without holding up the serving path.

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>

namespace bkc::serve {

/// Counters for one traffic aggregate (the whole server, one model, or
/// one tenant). All durations are steady-clock nanoseconds.
struct Counters {
  std::uint64_t requests = 0;    ///< submissions accepted into a queue
  std::uint64_t rejects = 0;     ///< submissions refused by admission
  std::uint64_t batches = 0;     ///< dispatched batches (>= 1 request)
  std::uint64_t dispatched = 0;  ///< requests those batches drained
  std::uint64_t queue_ns = 0;    ///< total time dispatched requests queued
  /// Sum over batches of this aggregate's share of the batch capacity
  /// (batch size / max_batch for models; own-request count / max_batch
  /// for tenants). batch_occupancy() turns it into a mean fill factor.
  double occupancy_sum = 0.0;

  /// Mean fill factor of the batches counted here, in [0, 1]: 1.0 means
  /// every batch left exactly max_batch full. 0 when nothing dispatched.
  double batch_occupancy() const {
    return batches == 0 ? 0.0
                        : occupancy_sum / static_cast<double>(batches);
  }
  /// Mean queued time per dispatched request, in milliseconds.
  double mean_queue_ms() const {
    return dispatched == 0 ? 0.0
                           : static_cast<double>(queue_ns) /
                                 static_cast<double>(dispatched) / 1e6;
  }
};

/// A consistent copy of every counter the server holds.
struct StatsSnapshot {
  Counters total;
  std::map<std::string, Counters> per_model;   ///< keyed by model name
  std::map<std::string, Counters> per_tenant;  ///< keyed by tenant name
};

/// One drained request as the scheduler reports it at dispatch time.
struct DispatchedRequest {
  std::string tenant;
  std::uint64_t queue_ns = 0;  ///< enqueue -> dispatch, steady clock
};

/// Thread-safe accumulator behind the scheduler. Recording an event
/// takes one mutex; the counters themselves are plain structs so a
/// snapshot is a single locked copy.
class ServeStats {
 public:
  /// A submission passed admission control and entered `model`'s queue.
  void record_accept(const std::string& model, const std::string& tenant);

  /// A submission was refused (queue full, or the scheduler stopping).
  void record_reject(const std::string& model, const std::string& tenant);

  /// One batch left `model`'s queue. `max_batch` is the configured
  /// capacity the occupancy is measured against. Precondition:
  /// non-empty `requests`, max_batch >= 1.
  void record_batch(const std::string& model,
                    std::span<const DispatchedRequest> requests,
                    int max_batch);

  StatsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  StatsSnapshot data_;
};

}  // namespace bkc::serve
