// The serving layer end to end: compress two models to BKCM containers,
// stand them up in a shared ModelRegistry (each container parsed
// exactly once), and drive a BatchScheduler with interleaved
// requests from two tenants. Every response is checked bit-identical to
// calling classify_batch on the registry engine directly — batching
// never changes a result — and the run ends with the per-model /
// per-tenant stats snapshot and a demonstration of admission control
// and eviction.
//
//   ./examples/serve_demo [--tiny] [--dir PATH] [--requests N]
//                         [--threads N] [--seed S]
//
// The CTest smoke target runs `serve_demo --tiny --dir <builddir>`.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "core/bkc.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace {

using namespace bkc;

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.data().size_bytes() == b.data().size_bytes() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

std::string write_model(const std::string& dir, const std::string& name,
                        const bnn::ReActNetConfig& config, int threads) {
  Engine engine(config);
  engine.compress(threads);
  const std::string path = dir + "/" + name + ".bkcm";
  engine.save_compressed(path);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bool tiny = has_flag(argc, argv, "--tiny");
    const std::string dir =
        flag_string_value(argc, argv, "--dir", ".");
    const int num_requests =
        positive_flag_value(argc, argv, "--requests", 24);
    const int num_threads = positive_flag_value(argc, argv, "--threads", 2);
    const auto seed = static_cast<std::uint64_t>(
        positive_flag_value(argc, argv, "--seed", 42));
    std::filesystem::create_directories(dir);

    // Two models resident side by side — the registry's reason to
    // exist. Both use the tiny architecture (at different seeds) so the
    // demo stays interactive; --tiny additionally shrinks the request
    // count for the CTest smoke run.
    const int requests = tiny ? std::min(num_requests, 12) : num_requests;
    const std::string path_a = write_model(
        dir, "serve_demo_a", bnn::tiny_reactnet_config(seed), num_threads);
    const std::string path_b = write_model(
        dir, "serve_demo_b", bnn::tiny_reactnet_config(seed + 1), num_threads);

    serve::ModelRegistry registry(num_threads);
    serve::ModelHandle model_a = registry.open("model-a", path_a);
    serve::ModelHandle model_b = registry.open("model-b", path_b);
    check(registry.open("model-a", path_a) == model_a,
          "serve_demo: open-once violated — second open returned a "
          "different entry");
    std::cout << "registry: " << registry.size()
              << " models resident (one engine each, shared by sessions)\n";

    serve::SchedulerOptions options;
    options.max_batch = 4;
    options.max_delay = std::chrono::milliseconds(5);
    options.max_queue = 256;
    options.num_threads = num_threads;
    serve::BatchScheduler scheduler(options);

    // Interleaved traffic: two tenants, two models, one future per
    // request.
    bnn::WeightGenerator gen(seed + 99);
    std::vector<Tensor> images;
    std::vector<std::future<Tensor>> futures;
    std::vector<const serve::ServedModel*> targets;
    for (int i = 0; i < requests; ++i) {
      const serve::ModelHandle& model = (i % 2 == 0) ? model_a : model_b;
      const std::string tenant = (i % 3 == 0) ? "tenant-x" : "tenant-y";
      images.push_back(
          gen.sample_activation(model->engine().model().input_shape()));
      targets.push_back(model.get());
      futures.push_back(scheduler.submit(model, tenant, images.back()));
    }

    // Collect and verify: the served result must be bit-identical to
    // the direct classify_batch path on the same engine.
    int verified = 0;
    for (int i = 0; i < requests; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const Tensor scores = futures[idx].get();
      const std::vector<Tensor> direct = targets[idx]->engine().classify_batch(
          {images[idx]}, num_threads);
      check(bit_identical(scores, direct.front()),
            "serve_demo: served scores differ from direct classify_batch");
      ++verified;
    }
    std::cout << verified << " responses verified bit-identical to the "
              << "direct classify_batch path\n";

    scheduler.stop();
    const serve::StatsSnapshot stats = scheduler.stats();
    Table table({"aggregate", "requests", "rejects", "batches", "occupancy",
                 "mean queue ms"});
    auto add_row = [&](const std::string& name, const serve::Counters& c) {
      table.row()
          .add(name)
          .add(c.requests)
          .add(c.rejects)
          .add(c.batches)
          .add(percent_str(c.batch_occupancy()))
          .add(c.mean_queue_ms(), 3);
    };
    add_row("total", stats.total);
    for (const auto& [name, counters] : stats.per_model) {
      add_row("model " + name, counters);
    }
    for (const auto& [name, counters] : stats.per_tenant) {
      add_row("tenant " + name, counters);
    }
    table.print("Serving counters");

    // Eviction: queues are drained and the demo's handles are the last
    // references; dropping them lets evict_unused() reclaim both models.
    check(registry.evict_unused() == 0,
          "serve_demo: eviction removed a model with live handles");
    model_a.reset();
    model_b.reset();
    // targets[] only borrows raw pointers, so the registry now holds
    // the sole references.
    const std::size_t evicted = registry.evict_unused();
    check(evicted == 2, "serve_demo: expected both unused models evicted");
    std::cout << "\nevicted " << evicted
              << " unused models; registry now holds " << registry.size()
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "serve_demo: " << e.what() << "\n";
    return 1;
  }
}
