#pragma once
// Shared pieces of the benchmark program: run options, the result every
// workload fills in, clocks, sample summaries and the host fingerprint.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace bkcbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock instants.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Results, traces and temporary files.
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "none";
  int threads = 1;  ///< T: the host's hardware concurrency
};

/// What one workload run reports. Every wrong output counts as a failed
/// operation; `correct` turns false on the first one.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< 0 for derived or single-shot values
  };
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  /// Human-readable lines printed before the JSON line and kept in the
  /// results file (the per-op table, sample counts, consistency checks).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Count one operation; `ok` false marks it failed.
  void count(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Linear-interpolated percentile of `samples` (p in [0, 100]).
double pct(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return pct(std::move(samples), 50.0);
}

/// Exact bytewise equality of two score tensors.
bool same_scores(const bkc::Tensor& a, const bkc::Tensor& b);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

/// Run `build` at least `min_reps` times and until `budget_s` has
/// passed; each call constructs the workload's state from scratch (the
/// previous state is destroyed first). Returns the wall time of each
/// call in seconds and keeps the state of the last call in `out`.
/// setup_s is their median: a tiny model sets up in ~0.15 s, where one
/// burst of host interference moves a median of five by a quarter.
inline constexpr std::size_t kMinSetupReps = 5;
inline constexpr double kSetupBudgetS = 2.0;
template <typename T, typename F>
std::vector<double> timed_setup(F&& build, std::optional<T>& out,
                                std::size_t min_reps = kMinSetupReps,
                                double budget_s = kSetupBudgetS) {
  std::vector<double> seconds;
  const Clock::time_point start = Clock::now();
  while (seconds.size() < min_reps ||
         ms_between(start, Clock::now()) < budget_s * 1e3) {
    out.reset();
    const Clock::time_point t0 = Clock::now();
    out.emplace(build());
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return seconds;
}

/// The host fingerprint of this run as (key, value) pairs. Host keys
/// (cpu, nproc, compiler, build type, conv kernel, scalar forcing) must
/// match for two runs to be comparable; the rest identify the run.
std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& options);

}  // namespace bkcbench
