#include "serve/stats.h"

#include <map>

#include "util/check.h"

namespace bkc::serve {

void ServeStats::record_accept(const std::string& model,
                               const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++data_.total.requests;
  ++data_.per_model[model].requests;
  ++data_.per_tenant[tenant].requests;
}

void ServeStats::record_reject(const std::string& model,
                               const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++data_.total.rejects;
  ++data_.per_model[model].rejects;
  ++data_.per_tenant[tenant].rejects;
}

void ServeStats::record_batch(const std::string& model,
                              std::span<const DispatchedRequest> requests,
                              int max_batch) {
  check(!requests.empty(), "ServeStats::record_batch: empty batch");
  check(max_batch >= 1, "ServeStats::record_batch: max_batch must be >= 1");
  const double capacity = static_cast<double>(max_batch);

  // Per-tenant composition of this batch, accumulated outside the lock.
  std::map<std::string, Counters> tenant_delta;
  std::uint64_t total_queue_ns = 0;
  for (const DispatchedRequest& request : requests) {
    Counters& t = tenant_delta[request.tenant];
    ++t.dispatched;
    t.queue_ns += request.queue_ns;
    total_queue_ns += request.queue_ns;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const double batch_fill = static_cast<double>(requests.size()) / capacity;
  for (Counters* aggregate : {&data_.total, &data_.per_model[model]}) {
    ++aggregate->batches;
    aggregate->dispatched += requests.size();
    aggregate->queue_ns += total_queue_ns;
    aggregate->occupancy_sum += batch_fill;
  }
  for (const auto& [tenant, delta] : tenant_delta) {
    Counters& t = data_.per_tenant[tenant];
    ++t.batches;  // batches carrying >= 1 of this tenant's requests
    t.dispatched += delta.dispatched;
    t.queue_ns += delta.queue_ns;
    // The tenant's share of the batch capacity, so a tenant riding in
    // shared batches sees occupancy proportional to its traffic.
    t.occupancy_sum += static_cast<double>(delta.dispatched) / capacity;
  }
}

StatsSnapshot ServeStats::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

}  // namespace bkc::serve
