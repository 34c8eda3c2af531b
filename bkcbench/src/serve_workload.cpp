// serve_tiny: two tiny models in one ModelRegistry behind one
// BatchScheduler (defaults except num_threads = 2), requests alternating
// between the models and between two tenants. The operation is one
// request in an open loop of Poisson arrivals at 400 req/s: compute is
// ~1 ms per image, so batches leave on the 2 ms deadline and queueing
// and batching do most of the work. The rate stays far below the
// ~2800-3200 req/s capacity of a shared 4-CPU x86 VM: at 1600 req/s,
// bursts of host contention filled the 64-deep admission queues.
//
// Load generation: the calling thread is the only arrival thread; it
// sleeps until each request is due. Completions are collected by
// threads blocked in future::get, one per model while nproc allows, so
// per-model FIFO order equals completion order. Open-loop latency runs
// from the scheduled send time to the future being ready.
//
// profile_serve, part of every traced run's per-layer profile, drives
// its own pair of tiny models closed loop, 2 x max_batch requests
// outstanding per model, so that batches fill.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "core/engine.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "workloads.h"

namespace bkcbench {

using bkc::Engine;
using bkc::Tensor;
namespace serve = bkc::serve;

namespace {

constexpr int kModels = 2;
constexpr std::uint64_t kModelSeeds[kModels] = {42, 43};
const char* const kTenants[2] = {"tenant-a", "tenant-b"};
constexpr int kPoolImages = 32;  ///< distinct images per model
constexpr double kLightRate = 400.0;
constexpr double kWarmupS = 0.3;
/// The run is cut into rounds and each end-to-end metric is the median
/// over rounds, so a burst of host interference spoils a few rounds
/// instead of the whole run. A round of a 25 s run has ~1250 responses,
/// so its p90 has ~125 beyond it. The tail is p90, not p99: on a shared
/// VM the wake-up stalls behind p99 (several ms, bursty) vary the p99
/// two- to four-fold from run to run.
constexpr std::uint64_t kRounds = 8;
/// Setups of a spare state after each untraced round (see run_serve_tiny).
constexpr std::size_t kSpareSetupReps = 2;
/// Closed-loop time of profile_serve.
constexpr double kProbeS = 2.0;

struct ServeState {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<serve::ModelHandle> models;
  std::vector<std::vector<Tensor>> images;    ///< per model
  std::vector<std::vector<Tensor>> expected;  ///< direct classify_batch
  // Declared last: destroyed (drained) before the handles it serves.
  std::unique_ptr<serve::BatchScheduler> scheduler;
};

/// The registry, models and scheduler; containers are written as
/// `prefix`0.bkcm, `prefix`1.bkcm under the output directory.
ServeState build_serve(const Options& o, const std::string& prefix) {
  ServeState state;
  state.registry = std::make_unique<serve::ModelRegistry>();
  for (int m = 0; m < kModels; ++m) {
    Engine engine(bkc::bnn::tiny_reactnet_config(kModelSeeds[m]));
    engine.compress(o.threads);
    const std::string path =
        o.out_dir + "/" + prefix + std::to_string(m) + ".bkcm";
    engine.save_compressed(path);
    state.models.push_back(
        state.registry->open("tiny" + std::to_string(m), path));
  }
  serve::SchedulerOptions options;
  options.num_threads = 2;
  state.scheduler = std::make_unique<serve::BatchScheduler>(options);
  return state;
}

/// Each model's request images and their direct classify_batch scores.
void add_images(ServeState& state, const Options& o) {
  for (int m = 0; m < kModels; ++m) {
    const Engine& engine =
        state.models[static_cast<std::size_t>(m)]->engine();
    state.images.push_back(make_images(engine.model().input_shape(),
                                       o.seed + static_cast<std::uint64_t>(m),
                                       kPoolImages));
    state.expected.push_back(engine.classify_batch(state.images.back(), 2));
  }
}

/// One submitted request on its way to a collector.
struct Pending {
  std::future<Tensor> future;
  Clock::time_point due;        ///< scheduled (open loop) or actual send
  Clock::time_point submitted;  ///< submit() returned
  Clock::time_point sent;       ///< submit() entered
  std::int64_t id = 0;
  int model = 0;
  std::size_t image = 0;
};

/// Blocking hand-off from the arrival thread to one collector.
class Inbox {
 public:
  void push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  std::optional<Pending> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    return p;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
};

/// What one phase measured; merged from the threads that measured it.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  std::vector<double> late_ms;
  std::int64_t ok = 0;
  std::vector<std::string> failures;
  std::int64_t rejected = 0;
  Clock::time_point first_due;
  Clock::time_point last_ready;
  serve::Counters counters;  ///< scheduler counters accrued in the phase

  void merge(const Phase& other) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(latency_ms, other.latency_ms);
    append(submit_us, other.submit_us);
    append(late_ms, other.late_ms);
    ok += other.ok;
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
    rejected += other.rejected;
    last_ready = std::max(last_ready, other.last_ready);
    counters.rejects += other.counters.rejects;
    counters.batches += other.counters.batches;
    counters.dispatched += other.counters.dispatched;
    counters.queue_ns += other.counters.queue_ns;
    counters.occupancy_sum += other.counters.occupancy_sum;
  }
};

/// Wait for one response, check it against the direct path, record
/// latency (and its spans in the traced run).
void complete(Pending& p, const ServeState& state, Tracer* tracer,
              Phase& phase) {
  bool same = false;
  try {
    same = same_scores(p.future.get(),
                       state.expected[static_cast<std::size_t>(p.model)]
                                     [p.image]);
  } catch (const std::exception& e) {
    phase.failures.push_back(std::string("request failed: ") + e.what());
    return;
  }
  const Clock::time_point ready = Clock::now();
  phase.last_ready = std::max(phase.last_ready, ready);
  if (!same) {
    phase.failures.push_back("serve response differs from classify_batch "
                             "on model " + std::to_string(p.model));
    return;
  }
  ++phase.ok;
  phase.latency_ms.push_back(ms_between(p.due, ready));
  if (tracer != nullptr) {
    const int root = tracer->record("serve.request", p.due, ready, p.id);
    tracer->record("serve.submit", p.sent, p.submitted, p.id, root);
    tracer->record("serve.wait", p.submitted, ready, p.id, root);
  }
}

serve::Counters counters_since(const serve::Counters& before,
                               const serve::Counters& after) {
  serve::Counters d;
  d.requests = after.requests - before.requests;
  d.rejects = after.rejects - before.rejects;
  d.batches = after.batches - before.batches;
  d.dispatched = after.dispatched - before.dispatched;
  d.queue_ns = after.queue_ns - before.queue_ns;
  d.occupancy_sum = after.occupancy_sum - before.occupancy_sum;
  return d;
}

/// Submit request `id` for `model` now; false when admission refused it.
bool submit(ServeState& state, std::int64_t id, int model, std::size_t image,
            Clock::time_point due, Phase& phase, Pending& out) {
  Tensor copy = state.images[static_cast<std::size_t>(model)][image];
  std::string tenant = kTenants[(id / kModels) % 2];
  out.due = due;
  out.id = id;
  out.model = model;
  out.image = image;
  out.sent = Clock::now();
  try {
    out.future = state.scheduler->submit(
        state.models[static_cast<std::size_t>(model)], std::move(tenant),
        std::move(copy));
  } catch (const serve::RejectError&) {
    ++phase.rejected;
    return false;
  }
  out.submitted = Clock::now();
  phase.submit_us.push_back(ms_between(out.sent, out.submitted) * 1e3);
  return true;
}

/// Open loop: Poisson arrivals at `rate` for `seconds`, requests
/// alternating between the models and, per model, between tenants.
Phase open_loop(ServeState& state, const Options& o, double rate,
                double seconds, std::uint64_t stream, Tracer* tracer) {
  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ULL + stream);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::size_t> pick(0, kPoolImages - 1);

  const int collectors = std::clamp(o.threads - 1, 1, kModels);
  std::vector<Inbox> inboxes(static_cast<std::size_t>(collectors));
  std::vector<Phase> collected(static_cast<std::size_t>(collectors));
  std::vector<std::thread> threads;
  for (int c = 0; c < collectors; ++c) {
    threads.emplace_back([&, c] {
      const auto i = static_cast<std::size_t>(c);
      while (std::optional<Pending> p = inboxes[i].pop()) {
        complete(*p, state, tracer, collected[i]);
      }
    });
  }

  Phase phase;
  const serve::Counters before = state.scheduler->stats().total;
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(1);
  phase.first_due = origin;
  double offset_s = gap(rng);
  for (std::int64_t id = 0; offset_s < seconds; ++id, offset_s += gap(rng)) {
    const Clock::time_point due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
    const int model = static_cast<int>(id % kModels);
    const std::size_t image = pick(rng);
    std::this_thread::sleep_until(due);
    phase.late_ms.push_back(ms_between(due, Clock::now()));
    Pending p;
    if (submit(state, id, model, image, due, phase, p)) {
      inboxes[static_cast<std::size_t>(model % collectors)].push(
          std::move(p));
    }
  }
  for (Inbox& inbox : inboxes) inbox.close();
  for (std::thread& t : threads) t.join();
  for (const Phase& c : collected) phase.merge(c);
  phase.counters = counters_since(before, state.scheduler->stats().total);
  return phase;
}

/// Closed loop: keep 2 x max_batch requests per model outstanding for
/// `seconds`, then drain. One thread; responses are awaited in send
/// order.
Phase closed_loop(ServeState& state, const Options& o, double seconds,
                  std::uint64_t stream, Tracer* tracer) {
  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ULL + stream);
  std::uniform_int_distribution<std::size_t> pick(0, kPoolImages - 1);
  const std::size_t outstanding =
      2 * static_cast<std::size_t>(state.scheduler->options().max_batch) *
      kModels;

  Phase phase;
  const serve::Counters before = state.scheduler->stats().total;
  std::deque<Pending> in_flight;
  phase.first_due = Clock::now();
  const Clock::time_point stop =
      phase.first_due + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::int64_t id = 0;
  for (;;) {
    const bool sending = Clock::now() < stop;
    while (sending && in_flight.size() < outstanding) {
      Pending p;
      const int model = static_cast<int>(id % kModels);
      if (submit(state, id, model, pick(rng), Clock::now(), phase, p)) {
        in_flight.push_back(std::move(p));
      }
      ++id;
    }
    if (in_flight.empty()) break;
    complete(in_flight.front(), state, tracer, phase);
    in_flight.pop_front();
  }
  phase.counters = counters_since(before, state.scheduler->stats().total);
  return phase;
}

void account(const Phase& phase, const std::string& name, Result& result) {
  result.attempted += phase.ok + static_cast<std::int64_t>(
                                     phase.failures.size()) +
                      phase.rejected;
  for (const std::string& failure : phase.failures) result.fail(failure);
  for (std::int64_t r = 0; r < phase.rejected; ++r) {
    result.fail(name + ": request rejected by admission control");
  }
  result.note(name + ": " + std::to_string(phase.latency_ms.size()) +
              " responses, " + std::to_string(phase.counters.batches) +
              " batches");
}

/// The phases of every round, merged: what failure accounting reads.
Phase merged(const std::vector<Phase>& rounds) {
  Phase all;
  for (const Phase& round : rounds) all.merge(round);
  return all;
}

/// Median over rounds of `stat` applied to each round.
template <typename F>
double round_median(const std::vector<Phase>& rounds, F&& stat) {
  std::vector<double> values;
  for (const Phase& round : rounds) values.push_back(stat(round));
  return median(std::move(values));
}

}  // namespace

void profile_serve(const Options& o, Tracer& tracer, Result& result) {
  ServeState state = build_serve(o, "serve_probe");
  add_images(state, o);
  account(closed_loop(state, o, kWarmupS, 0, nullptr), "probe warm-up",
          result);
  const Phase phase = closed_loop(state, o, kProbeS, 1, &tracer);
  account(phase, "probe", result);
  const serve::Counters& c = phase.counters;
  const double queue_ms = c.mean_queue_ms();
  double mean_latency = 0.0;
  for (double v : phase.latency_ms) mean_latency += v;
  mean_latency /= static_cast<double>(std::max<std::size_t>(
      phase.latency_ms.size(), 1));
  result.add("serve.queue_ms", queue_ms, "ms", c.dispatched);
  result.add("serve.occupancy", c.batch_occupancy(), "ratio", c.batches);
  result.add("serve.service_ms", mean_latency - queue_ms, "ms",
             phase.latency_ms.size());
  result.add("serve.submit_us", pct(phase.submit_us, 99.0), "us",
             phase.submit_us.size());
}

Result run_serve_tiny(const Options& o, Tracer* tracer) {
  Result result;
  std::optional<ServeState> state;
  std::vector<double> setup_s =
      timed_setup([&] { return build_serve(o, "serve_tiny"); }, state);
  add_images(*state, o);
  account(closed_loop(*state, o, kWarmupS, 0, nullptr), "warm-up", result);

  // The traced run alternates untraced and traced rounds for
  // trace.overhead_pct, in 0.4 of the budget, then profiles the layers
  // of the first model. The untraced run sets up a spare state after
  // every round: the host's speed shifts over tens of seconds, and
  // setup reps spread over the whole run move setup_s less than reps
  // taken only at its start.
  const double round_s =
      o.seconds / kRounds * (tracer != nullptr ? 0.2 : 1.0);
  std::vector<Phase> rounds, traced;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    rounds.push_back(
        open_loop(*state, o, kLightRate, round_s, 2 * r + 1, nullptr));
    if (tracer != nullptr) {
      traced.push_back(
          open_loop(*state, o, kLightRate, round_s, 2 * r + 2, tracer));
    } else {
      std::optional<ServeState> spare;
      const std::vector<double> more = timed_setup(
          [&] { return build_serve(o, "serve_spare"); }, spare,
          kSpareSetupReps, 0.0);
      setup_s.insert(setup_s.end(), more.begin(), more.end());
    }
  }
  const Phase all = merged(rounds);
  account(all, "light", result);
  char line[120];
  std::snprintf(line, sizeof line,
                "load generator p99 lateness %.3f ms (a check on the run, "
                "not a target)",
                pct(all.late_ms, 99.0));
  result.note(line);
  auto p50 = [](const Phase& p) { return median(p.latency_ms); };
  auto p90 = [](const Phase& p) { return pct(p.latency_ms, 90.0); };
  const Engine& engine = state->models.front()->engine();

  if (tracer != nullptr) {
    const Phase all_traced = merged(traced);
    account(all_traced, "light-traced", result);
    add_overhead(all.latency_ms, all_traced.latency_ms, result);
    profile_layers(engine, bkc::bnn::tiny_reactnet_config(kModelSeeds[0]),
                   state->images.front(), state->expected.front(), o,
                   o.seconds * 0.4, *tracer, result);
    return result;
  }
  result.add("op_p50_ms", round_median(rounds, p50), "ms",
             all.latency_ms.size());
  result.add("op_p90_ms", round_median(rounds, p90), "ms",
             all.latency_ms.size());
  add_common_metrics(engine, setup_s, result);
  return result;
}

}  // namespace bkcbench
