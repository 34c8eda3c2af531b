// Integration tests for serve/scheduler.h — dynamic batching over the
// shared registry.
//
// The load-bearing guarantee: batching NEVER changes a result. Every
// response must be bit-identical to calling classify_batch directly on
// the same engine, at every scheduler thread count (1/2/4/7) and
// however the requests happened to coalesce into batches. On top of
// that: the deadline flushes partial batches, a full batch dispatches
// without waiting for the deadline, admission control rejects
// deterministically at max_queue with a typed error, stop() drains
// every accepted request, and the counters add up — also when client
// threads open, submit to and evict from a shared registry while the
// scheduler stops under them (the TSan job runs this suite).

#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bnn/weights.h"
#include "core/engine.h"
#include "serve/registry.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::serve {
namespace {

using namespace std::chrono_literals;

void expect_scores_bit_identical(const Tensor& actual,
                                 const Tensor& expected,
                                 const std::string& context) {
  ASSERT_EQ(actual.data().size(), expected.data().size()) << context;
  for (std::size_t v = 0; v < actual.data().size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual.data()[v]),
              std::bit_cast<std::uint32_t>(expected.data()[v]))
        << context << " value " << v;
  }
}

class ServeSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/scheduler_model.bkcm";
    Engine engine(test::tiny_config(27));
    engine.compress(2);
    engine.save_compressed(path_);
    registry_ = std::make_unique<ModelRegistry>(2);
    model_ = registry_->open("tiny", path_);
  }

  void TearDown() override {
    model_.reset();
    registry_.reset();
    std::remove(path_.c_str());
  }

  std::vector<Tensor> sample_images(int count, std::uint64_t seed) const {
    bnn::WeightGenerator gen(seed);
    std::vector<Tensor> images;
    images.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      images.push_back(
          gen.sample_activation(model_->engine().model().input_shape()));
    }
    return images;
  }

  std::string path_;
  std::unique_ptr<ModelRegistry> registry_;
  ModelHandle model_;
};

// The acceptance criterion of the serving PR: the served path is
// bit-identical to the direct classify_batch path at every thread
// count, regardless of how the scheduler batched the requests.
TEST_F(ServeSchedulerTest, ServedResultsBitIdenticalToDirectAcrossThreads) {
  const std::vector<Tensor> images = sample_images(10, 99);
  const std::vector<Tensor> expected =
      model_->engine().classify_batch(images, 1);

  for (int threads : {1, 2, 4, 7}) {
    SchedulerOptions options;
    options.max_batch = 3;  // forces multiple, unevenly filled batches
    options.max_delay = 1ms;
    options.num_threads = threads;
    BatchScheduler scheduler(options);

    std::vector<std::future<Tensor>> futures;
    for (const Tensor& image : images) {
      futures.push_back(scheduler.submit(model_, "tenant", image));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Tensor scores = futures[i].get();
      expect_scores_bit_identical(
          scores, expected[i],
          "threads " + std::to_string(threads) + " image " +
              std::to_string(i));
    }
    scheduler.stop();
  }
}

TEST_F(ServeSchedulerTest, DeadlineFlushesAPartialBatch) {
  SchedulerOptions options;
  options.max_batch = 100;  // the queue can never fill; only the
                            // deadline can dispatch these requests
  options.max_delay = 2ms;
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(2, 7);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& image : images) {
    futures.push_back(scheduler.submit(model_, "tenant", image));
  }
  // Generous bound (sanitizer builds are slow); the point is that the
  // futures complete at all without the batch ever filling.
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.requests, 2u);
  EXPECT_EQ(stats.total.dispatched, 2u);
  EXPECT_GE(stats.total.batches, 1u);
}

TEST_F(ServeSchedulerTest, FullBatchDispatchesWithoutWaitingForDeadline) {
  SchedulerOptions options;
  options.max_batch = 4;
  options.max_delay = std::chrono::minutes(10);  // never reached in-test
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(4, 11);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& image : images) {
    futures.push_back(scheduler.submit(model_, "tenant", image));
  }
  // Completion long before the 10-minute deadline proves the size
  // trigger fired.
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.dispatched, 4u);
  EXPECT_EQ(stats.total.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.total.batch_occupancy(), 1.0);
}

TEST_F(ServeSchedulerTest, QueueFullRejectsDeterministically) {
  SchedulerOptions options;
  options.max_batch = 64;  // > max_queue: the size trigger can't fire
  options.max_delay = std::chrono::minutes(10);
  options.max_queue = 6;
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(7, 13);
  std::vector<std::future<Tensor>> futures;
  // Exactly max_queue submissions are admitted...
  for (int i = 0; i < 6; ++i) {
    futures.push_back(scheduler.submit(model_, "tenant", images[
        static_cast<std::size_t>(i)]));
  }
  // ...and the next is refused with the typed reason, every time.
  try {
    scheduler.submit(model_, "tenant", images[6]);
    FAIL() << "expected RejectError";
  } catch (const RejectError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
    EXPECT_NE(std::string(e.what()).find("tiny"), std::string::npos);
  }
  EXPECT_THROW(scheduler.submit(model_, "tenant", images[6]), RejectError);

  // stop() drains everything that was admitted.
  scheduler.stop();
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.requests, 6u);
  EXPECT_EQ(stats.total.rejects, 2u);
  EXPECT_EQ(stats.total.dispatched, 6u);
}

TEST_F(ServeSchedulerTest, SubmitAfterStopRejectsAsStopped) {
  BatchScheduler scheduler;
  scheduler.stop();
  const std::vector<Tensor> images = sample_images(1, 17);
  try {
    scheduler.submit(model_, "tenant", images[0]);
    FAIL() << "expected RejectError";
  } catch (const RejectError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kStopped);
  }
  EXPECT_EQ(scheduler.stats().total.rejects, 1u);
}

TEST_F(ServeSchedulerTest, NullHandleIsACheckError) {
  BatchScheduler scheduler;
  const std::vector<Tensor> images = sample_images(1, 19);
  EXPECT_THROW(scheduler.submit(nullptr, "tenant", images[0]), CheckError);
}

TEST_F(ServeSchedulerTest, DestructorDrainsQueuedRequests) {
  const std::vector<Tensor> images = sample_images(3, 23);
  std::vector<std::future<Tensor>> futures;
  {
    SchedulerOptions options;
    options.max_batch = 100;
    options.max_delay = std::chrono::minutes(10);
    BatchScheduler scheduler(options);
    for (const Tensor& image : images) {
      futures.push_back(scheduler.submit(model_, "tenant", image));
    }
    // No stop(): the destructor must dispatch what is queued.
  }
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
}

TEST_F(ServeSchedulerTest, QueuedRequestsPinTheModelAgainstEviction) {
  SchedulerOptions options;
  options.max_batch = 100;
  options.max_delay = std::chrono::minutes(10);
  BatchScheduler scheduler(options);
  const std::vector<Tensor> images = sample_images(1, 29);
  std::future<Tensor> future =
      scheduler.submit(model_, "tenant", images[0]);

  // The caller drops its handle; the queued request still pins it.
  model_.reset();
  EXPECT_EQ(registry_->evict_unused(), 0u);
  EXPECT_TRUE(registry_->contains("tiny"));

  scheduler.stop();
  EXPECT_NO_THROW(future.get());
  // Drained: nothing pins the model any more.
  EXPECT_EQ(registry_->evict_unused(), 1u);
  EXPECT_FALSE(registry_->contains("tiny"));
}

TEST_F(ServeSchedulerTest, PerTenantAndPerModelCountersAddUp) {
  SchedulerOptions options;
  options.max_batch = 2;
  options.max_delay = 1ms;
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(6, 31);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 6; ++i) {
    const std::string tenant = (i % 3 == 0) ? "tenant-x" : "tenant-y";
    futures.push_back(
        scheduler.submit(model_, tenant, images[static_cast<std::size_t>(i)]));
  }
  for (auto& future : futures) future.get();
  scheduler.stop();

  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.requests, 6u);
  EXPECT_EQ(stats.total.dispatched, 6u);
  ASSERT_EQ(stats.per_model.size(), 1u);
  EXPECT_EQ(stats.per_model.at("tiny").requests, 6u);
  EXPECT_EQ(stats.per_model.at("tiny").dispatched, 6u);
  ASSERT_EQ(stats.per_tenant.size(), 2u);
  EXPECT_EQ(stats.per_tenant.at("tenant-x").requests, 2u);
  EXPECT_EQ(stats.per_tenant.at("tenant-y").requests, 4u);
  EXPECT_EQ(stats.per_tenant.at("tenant-x").dispatched +
                stats.per_tenant.at("tenant-y").dispatched,
            6u);
  // Queue time is charged to every aggregate a dispatched request
  // belongs to, so the model's and the tenants' shares add up to the
  // total.
  EXPECT_EQ(stats.per_model.at("tiny").queue_ns, stats.total.queue_ns);
  EXPECT_EQ(stats.per_tenant.at("tenant-x").queue_ns +
                stats.per_tenant.at("tenant-y").queue_ns,
            stats.total.queue_ns);
  EXPECT_GE(stats.total.mean_queue_ms(), 0.0);
}

// Client threads interleave registry open / evict_unused with submits
// to two models while the main thread stops the scheduler in the
// middle of their traffic. Every accepted request must still resolve
// bit-identical to the direct path, every refusal must be kStopped
// (the queue bound is never reached), and the per-model and per-tenant
// counters must add up to exactly what the clients saw.
TEST_F(ServeSchedulerTest, RegistryAndSchedulerSurviveConcurrentStop) {
  constexpr int kClients = 4;
  constexpr int kIterations = 12;
  const std::string path_b = ::testing::TempDir() + "/scheduler_model_b.bkcm";
  {
    Engine engine(test::tiny_config(28));
    engine.compress(2);
    engine.save_compressed(path_b);
  }
  const std::string names[2] = {"stress-a", "stress-b"};
  const std::string paths[2] = {path_, path_b};
  const std::vector<Tensor> images = sample_images(4, 37);
  std::vector<Tensor> expected[2];
  for (int m = 0; m < 2; ++m) {
    expected[m] = Engine::load_compressed(paths[m]).classify_batch(images, 1);
  }

  SchedulerOptions options;
  options.max_batch = 3;
  options.max_delay = 1ms;
  options.max_queue = kClients * kIterations;  // admission never refuses
  options.num_threads = 2;
  BatchScheduler scheduler(options);

  struct Accepted {
    int model = 0;
    std::size_t image = 0;
    std::future<Tensor> future;
  };
  struct Client {
    std::vector<Accepted> accepted;
    std::vector<RejectReason> rejected;
  };
  std::vector<Client> clients(kClients);
  std::atomic<int> past_half{0};
  std::atomic<bool> stopped{false};

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[static_cast<std::size_t>(c)];
      const std::string tenant = "tenant-" + std::to_string(c % 2);
      for (int i = 0; i < kIterations; ++i) {
        if (i == kIterations / 2) past_half.fetch_add(1);
        // The last submission always lands after stop() returned.
        if (i == kIterations - 1) {
          while (!stopped.load()) std::this_thread::yield();
        }
        const int m = (c + i) % 2;
        const std::size_t image = static_cast<std::size_t>(i) % images.size();
        ModelHandle handle = registry_->open(names[m], paths[m]);
        try {
          client.accepted.push_back(
              {m, image, scheduler.submit(std::move(handle), tenant,
                                          images[image])});
        } catch (const RejectError& e) {
          client.rejected.push_back(e.reason());
        }
        if (i % 3 == 2) registry_->evict_unused();
      }
    });
  }
  // Stop once every client is halfway, while their second halves are
  // still submitting.
  while (past_half.load() < kClients) std::this_thread::yield();
  scheduler.stop();
  stopped.store(true);
  for (std::thread& thread : threads) thread.join();

  std::uint64_t accepted_total = 0;
  std::uint64_t rejected_total = 0;
  std::map<std::string, std::uint64_t> model_requests;
  std::map<std::string, std::uint64_t> tenant_requests;
  for (int c = 0; c < kClients; ++c) {
    Client& client = clients[static_cast<std::size_t>(c)];
    const std::string tenant = "tenant-" + std::to_string(c % 2);
    for (Accepted& request : client.accepted) {
      ASSERT_EQ(request.future.wait_for(60s), std::future_status::ready);
      expect_scores_bit_identical(
          request.future.get(),
          expected[request.model][request.image],
          "client " + std::to_string(c) + " model " +
              names[request.model] + " image " +
              std::to_string(request.image));
      ++model_requests[names[request.model]];
      ++tenant_requests[tenant];
    }
    for (const RejectReason reason : client.rejected) {
      EXPECT_EQ(reason, RejectReason::kStopped);
    }
    EXPECT_FALSE(client.rejected.empty()) << "client " << c;
    accepted_total += client.accepted.size();
    rejected_total += client.rejected.size();
  }
  EXPECT_EQ(accepted_total + rejected_total,
            static_cast<std::uint64_t>(kClients * kIterations));

  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.requests, accepted_total);
  EXPECT_EQ(stats.total.dispatched, accepted_total);
  EXPECT_EQ(stats.total.rejects, rejected_total);
  std::uint64_t per_model_requests = 0;
  std::uint64_t per_model_rejects = 0;
  for (const auto& [name, counters] : stats.per_model) {
    EXPECT_EQ(counters.requests, model_requests[name]) << name;
    EXPECT_EQ(counters.dispatched, counters.requests) << name;
    per_model_requests += counters.requests;
    per_model_rejects += counters.rejects;
  }
  EXPECT_EQ(per_model_requests, accepted_total);
  EXPECT_EQ(per_model_rejects, rejected_total);
  std::uint64_t per_tenant_requests = 0;
  std::uint64_t per_tenant_dispatched = 0;
  std::uint64_t per_tenant_rejects = 0;
  for (const auto& [tenant, counters] : stats.per_tenant) {
    EXPECT_EQ(counters.requests, tenant_requests[tenant]) << tenant;
    per_tenant_requests += counters.requests;
    per_tenant_dispatched += counters.dispatched;
    per_tenant_rejects += counters.rejects;
  }
  EXPECT_EQ(per_tenant_requests, accepted_total);
  EXPECT_EQ(per_tenant_dispatched, accepted_total);
  EXPECT_EQ(per_tenant_rejects, rejected_total);

  // Drained: nothing pins the stress models any more.
  registry_->evict_unused();
  EXPECT_FALSE(registry_->contains("stress-a"));
  EXPECT_FALSE(registry_->contains("stress-b"));
  EXPECT_TRUE(registry_->contains("tiny"));
  std::remove(path_b.c_str());
}

TEST_F(ServeSchedulerTest, OptionValidation) {
  SchedulerOptions options;
  options.max_batch = 0;
  EXPECT_THROW(BatchScheduler{options}, CheckError);
  options = {};
  options.max_queue = 0;
  EXPECT_THROW(BatchScheduler{options}, CheckError);
  options = {};
  options.num_threads = 0;
  EXPECT_THROW(BatchScheduler{options}, CheckError);
  options = {};
  options.max_delay = std::chrono::microseconds(-1);
  EXPECT_THROW(BatchScheduler{options}, CheckError);
}

}  // namespace
}  // namespace bkc::serve
