// Unit tests for serve/stats.h — the serving-side counters.
//
// The arithmetic is pinned directly: accepts/rejects land in the right
// aggregates, a dispatched batch charges occupancy as batch-size /
// max_batch (own-request share for tenants), queue time accumulates in
// every aggregate a request belongs to, and snapshot() is a consistent
// copy (later events don't mutate an earlier snapshot).

#include "serve/stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bkc::serve {
namespace {

TEST(ServeStatsTest, AcceptAndRejectLandInEveryAggregate) {
  ServeStats stats;
  stats.record_accept("m1", "alice");
  stats.record_accept("m1", "bob");
  stats.record_accept("m2", "alice");
  stats.record_reject("m1", "bob");

  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.total.requests, 3u);
  EXPECT_EQ(snap.total.rejects, 1u);
  EXPECT_EQ(snap.per_model.at("m1").requests, 2u);
  EXPECT_EQ(snap.per_model.at("m1").rejects, 1u);
  EXPECT_EQ(snap.per_model.at("m2").requests, 1u);
  EXPECT_EQ(snap.per_model.at("m2").rejects, 0u);
  EXPECT_EQ(snap.per_tenant.at("alice").requests, 2u);
  EXPECT_EQ(snap.per_tenant.at("bob").requests, 1u);
  EXPECT_EQ(snap.per_tenant.at("bob").rejects, 1u);
}

TEST(ServeStatsTest, BatchChargesOccupancyAndQueueTime) {
  ServeStats stats;
  // One batch of 2 out of capacity 4: alice queued 4ms, bob 2ms.
  const std::vector<DispatchedRequest> batch = {
      {"alice", 4'000'000}, {"bob", 2'000'000}};
  stats.record_batch("m1", batch, 4);

  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.total.batches, 1u);
  EXPECT_EQ(snap.total.dispatched, 2u);
  EXPECT_EQ(snap.total.queue_ns, 6'000'000u);
  EXPECT_DOUBLE_EQ(snap.total.batch_occupancy(), 0.5);
  EXPECT_DOUBLE_EQ(snap.total.mean_queue_ms(), 3.0);
  // The model aggregate saw both requests' queue time.
  EXPECT_EQ(snap.per_model.at("m1").dispatched, 2u);
  EXPECT_EQ(snap.per_model.at("m1").queue_ns, 6'000'000u);

  EXPECT_EQ(snap.per_model.at("m1").batches, 1u);
  EXPECT_DOUBLE_EQ(snap.per_model.at("m1").batch_occupancy(), 0.5);

  // A tenant's occupancy is its own share of the batch capacity: one
  // request each out of max_batch 4.
  EXPECT_EQ(snap.per_tenant.at("alice").batches, 1u);
  EXPECT_EQ(snap.per_tenant.at("alice").dispatched, 1u);
  EXPECT_DOUBLE_EQ(snap.per_tenant.at("alice").batch_occupancy(), 0.25);
  EXPECT_DOUBLE_EQ(snap.per_tenant.at("alice").mean_queue_ms(), 4.0);
  EXPECT_DOUBLE_EQ(snap.per_tenant.at("bob").mean_queue_ms(), 2.0);
}

TEST(ServeStatsTest, MultipleBatchesAverageTheFillFactor) {
  ServeStats stats;
  const std::vector<DispatchedRequest> full = {
      {"t", 0}, {"t", 0}, {"t", 0}, {"t", 0}};
  const std::vector<DispatchedRequest> half = {{"t", 0}, {"t", 0}};
  stats.record_batch("m", full, 4);
  stats.record_batch("m", half, 4);

  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.total.batches, 2u);
  EXPECT_EQ(snap.total.dispatched, 6u);
  EXPECT_DOUBLE_EQ(snap.total.batch_occupancy(), 0.75);  // (1.0 + 0.5) / 2
}

TEST(ServeStatsTest, EmptyAggregatesReadAsZero) {
  const Counters counters;
  EXPECT_DOUBLE_EQ(counters.batch_occupancy(), 0.0);
  EXPECT_DOUBLE_EQ(counters.mean_queue_ms(), 0.0);

  ServeStats stats;
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.total.requests, 0u);
  EXPECT_TRUE(snap.per_model.empty());
  EXPECT_TRUE(snap.per_tenant.empty());
}

TEST(ServeStatsTest, SnapshotIsAConsistentCopy) {
  ServeStats stats;
  stats.record_accept("m", "t");
  const StatsSnapshot before = stats.snapshot();
  stats.record_accept("m", "t");
  stats.record_reject("m", "t");

  EXPECT_EQ(before.total.requests, 1u);
  EXPECT_EQ(before.total.rejects, 0u);
  const StatsSnapshot after = stats.snapshot();
  EXPECT_EQ(after.total.requests, 2u);
  EXPECT_EQ(after.total.rejects, 1u);
}

}  // namespace
}  // namespace bkc::serve
