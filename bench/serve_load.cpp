// Offered-load sweep over the serving stack (serve/registry.h +
// serve/scheduler.h): two tiny models resident in one ModelRegistry, an
// open-loop arrival process per load level, and per-request latency
// measured from submit() to future completion by a small waiter pool.
// Each level reports sustained QPS, p50/p99 latency and mean batch
// occupancy; requests rejected by admission control are counted, never
// retried (open-loop means rejects shed load instead of stretching the
// arrival schedule).
//
//   ./bench/serve_load [--tiny] [--json FILE] [--threads N] [--seed S]
//
// --json writes the sweep as BENCH_serve.json-style output (the
// checked-in file at the repo root is produced this way); --tiny
// shrinks the sweep for the CTest smoke run.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bkc.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "util/json.h"

namespace {

using namespace bkc;
using Clock = std::chrono::steady_clock;

struct LevelResult {
  double offered_qps = 0.0;
  double sustained_qps = 0.0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double occupancy = 0.0;
  double mean_queue_ms = 0.0;
};

struct SweepConfig {
  std::vector<double> offered_qps;
  int requests_per_level = 0;
  serve::SchedulerOptions scheduler;
};

// One request in flight: submit timestamp plus the future the waiter
// pool resolves. Latency is submit-to-completion wall time.
struct Inflight {
  Clock::time_point submitted;
  std::future<Tensor> future;
};

LevelResult run_level(const serve::ModelHandle& model_a,
                      const serve::ModelHandle& model_b, double offered_qps,
                      int num_requests, const serve::SchedulerOptions& options,
                      std::uint64_t seed) {
  serve::BatchScheduler scheduler(options);

  // Pre-sample the request images so sampling cost stays out of the
  // arrival loop.
  bnn::WeightGenerator gen(seed);
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    const serve::ModelHandle& model = (i % 2 == 0) ? model_a : model_b;
    images.push_back(
        gen.sample_activation(model->engine().model().input_shape()));
  }

  std::vector<Inflight> inflight(static_cast<std::size_t>(num_requests));
  std::vector<double> latencies_ms(static_cast<std::size_t>(num_requests),
                                   -1.0);

  // Waiter pool: resolves futures as they are handed over and stamps
  // the completion time. A handful of waiters keeps an out-of-order
  // completion from hiding behind an in-order get().
  std::atomic<int> next_to_wait{0};
  std::atomic<int> submitted_count{0};
  std::atomic<bool> submit_done{false};
  const int num_waiters = 4;
  std::vector<std::thread> waiters;
  waiters.reserve(static_cast<std::size_t>(num_waiters));
  for (int w = 0; w < num_waiters; ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        const int i = next_to_wait.fetch_add(1);
        if (i >= num_requests) return;
        // Spin until this slot has been submitted (or the arrival loop
        // finished without filling it because the request was rejected).
        while (i >= submitted_count.load(std::memory_order_acquire)) {
          if (submit_done.load(std::memory_order_acquire) &&
              i >= submitted_count.load(std::memory_order_acquire)) {
            return;
          }
          std::this_thread::yield();
        }
        auto& req = inflight[static_cast<std::size_t>(i)];
        if (!req.future.valid()) continue;  // rejected at admission
        req.future.wait();
        const auto done = Clock::now();
        latencies_ms[static_cast<std::size_t>(i)] =
            std::chrono::duration<double, std::milli>(done - req.submitted)
                .count();
      }
    });
  }

  // Open-loop arrivals: the schedule is fixed by the offered rate; a
  // reject sheds that request instead of delaying the next one.
  std::int64_t rejected = 0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / offered_qps));
  const auto start = Clock::now();
  auto next_arrival = start;
  for (int i = 0; i < num_requests; ++i) {
    std::this_thread::sleep_until(next_arrival);
    next_arrival += interval;
    const auto idx = static_cast<std::size_t>(i);
    const serve::ModelHandle& model = (i % 2 == 0) ? model_a : model_b;
    const std::string tenant = (i % 3 == 0) ? "tenant-x" : "tenant-y";
    auto& req = inflight[idx];
    req.submitted = Clock::now();
    try {
      req.future = scheduler.submit(model, tenant, images[idx]);
    } catch (const serve::RejectError&) {
      ++rejected;
    }
    submitted_count.store(i + 1, std::memory_order_release);
  }
  submit_done.store(true, std::memory_order_release);

  for (std::thread& t : waiters) t.join();
  const auto end = Clock::now();
  scheduler.stop();

  LevelResult result;
  result.offered_qps = offered_qps;
  result.rejected = rejected;
  std::vector<double> completed_ms;
  completed_ms.reserve(latencies_ms.size());
  for (double ms : latencies_ms) {
    if (ms >= 0.0) completed_ms.push_back(ms);
  }
  result.completed = static_cast<std::int64_t>(completed_ms.size());
  const double elapsed_s =
      std::chrono::duration<double>(end - start).count();
  result.sustained_qps =
      elapsed_s > 0.0 ? static_cast<double>(result.completed) / elapsed_s
                      : 0.0;
  if (!completed_ms.empty()) {
    result.p50_ms = percentile(completed_ms, 50.0);
    result.p99_ms = percentile(completed_ms, 99.0);
  }
  const serve::StatsSnapshot stats = scheduler.stats();
  result.occupancy = stats.total.batch_occupancy();
  result.mean_queue_ms = stats.total.mean_queue_ms();
  return result;
}

void write_json(const std::string& path, const SweepConfig& config,
                const std::vector<LevelResult>& results, int num_threads) {
  // Strict-JSON writer (util/json.h). The sweep math never produces a
  // non-finite value (percentile and RunningStats check finiteness),
  // so the default CheckError policy guards the division fallbacks.
  json::Writer w;
  w.begin_object();
  w.key("bench").value("serve_load");
  w.key("config").begin_object();
  w.key("models").value(2);
  w.key("threads").value(num_threads);
  w.key("max_batch").value(config.scheduler.max_batch);
  w.key("max_delay_us")
      .value(static_cast<std::int64_t>(config.scheduler.max_delay.count()));
  w.key("max_queue").value(config.scheduler.max_queue);
  w.key("requests_per_level").value(config.requests_per_level);
  w.end_object();
  w.key("levels").begin_array();
  for (const LevelResult& r : results) {
    w.begin_object();
    w.key("offered_qps").value(r.offered_qps);
    w.key("sustained_qps").value(r.sustained_qps);
    w.key("completed").value(static_cast<std::int64_t>(r.completed));
    w.key("rejected").value(static_cast<std::int64_t>(r.rejected));
    w.key("p50_ms").value(r.p50_ms);
    w.key("p99_ms").value(r.p99_ms);
    w.key("occupancy").value(r.occupancy);
    w.key("mean_queue_ms").value(r.mean_queue_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream file(path);
  check(static_cast<bool>(file), "serve_load: cannot open ", path);
  file << w.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    check_known_flags(argc, argv,
                      {"--tiny", "--json", "--threads", "--seed"});
    const bool tiny = has_flag(argc, argv, "--tiny");
    const std::string json_path = flag_string_value(argc, argv, "--json", "");
    const int num_threads = positive_flag_value(argc, argv, "--threads", 2);
    const auto seed = static_cast<std::uint64_t>(
        positive_flag_value(argc, argv, "--seed", 42));

    SweepConfig config;
    config.scheduler.max_batch = 8;
    config.scheduler.max_delay = std::chrono::milliseconds(4);
    config.scheduler.max_queue = 128;
    config.scheduler.num_threads = num_threads;
    if (tiny) {
      config.offered_qps = {100.0, 400.0};
      config.requests_per_level = 40;
    } else {
      config.offered_qps = {100.0, 200.0, 400.0, 800.0, 1600.0};
      config.requests_per_level = 400;
    }

    // Both models ride the tiny architecture: the serving overhead under
    // test (queueing, batching, admission) is model-size independent,
    // and tiny models keep the sweep's service time well under the
    // deadline so p99 is governed by max_delay, not compute.
    const std::string dir = std::filesystem::temp_directory_path().string();
    auto write_model = [&](const std::string& name, std::uint64_t s) {
      Engine engine(bnn::tiny_reactnet_config(s));
      engine.compress(num_threads);
      const std::string path = dir + "/" + name + ".bkcm";
      engine.save_compressed(path);
      return path;
    };
    const std::string path_a = write_model("serve_load_a", seed);
    const std::string path_b = write_model("serve_load_b", seed + 1);

    serve::ModelRegistry registry(num_threads);
    const serve::ModelHandle model_a = registry.open("model-a", path_a);
    const serve::ModelHandle model_b = registry.open("model-b", path_b);

    std::vector<LevelResult> results;
    for (double qps : config.offered_qps) {
      results.push_back(run_level(model_a, model_b, qps,
                                  config.requests_per_level, config.scheduler,
                                  seed + 7));
    }

    Table table({"offered QPS", "sustained QPS", "completed", "rejected",
                 "p50 ms", "p99 ms", "occupancy", "queue ms"});
    for (const LevelResult& r : results) {
      table.row()
          .add(r.offered_qps, 0)
          .add(r.sustained_qps, 1)
          .add(r.completed)
          .add(r.rejected)
          .add(r.p50_ms, 3)
          .add(r.p99_ms, 3)
          .add(percent_str(r.occupancy))
          .add(r.mean_queue_ms, 3);
    }
    table.print("Serving offered-load sweep (2 models, " +
                std::to_string(num_threads) + " threads)");

    if (!json_path.empty()) {
      write_json(json_path, config, results, num_threads);
      std::cout << "\nwrote " << json_path << "\n";
    }

    std::filesystem::remove(path_a);
    std::filesystem::remove(path_b);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "serve_load: " << e.what() << "\n";
    return 1;
  }
}
