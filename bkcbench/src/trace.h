#pragma once
// Spans of the traced run. They are recorded in the benchmark's own code,
// around calls into the library's public functions; nothing inside the
// library is instrumented, so the untraced run measures unmodified code.
//
// Spans are kept in memory and written out once, when the run ends.
// Recording takes a mutex because the serving workload records from its
// load-generator threads.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace bkcbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;             ///< index of the enclosing span; -1: root
    std::int64_t request = -1;   ///< request or repetition it belongs to
  };

  /// Open a span now; returns its id.
  int begin(std::string name, std::int64_t request, int parent = -1);
  /// Close span `id` now; returns its duration in ms.
  double end(int id);
  /// Record a span whose instants were taken elsewhere.
  int record(std::string name, Clock::time_point start, Clock::time_point end,
             std::int64_t request, int parent = -1);

  /// Run `fn` inside a span; returns the span's duration in ms.
  template <typename F>
  double time(std::string name, std::int64_t request, int parent, F&& fn) {
    const int id = begin(std::move(name), request, parent);
    fn();
    return end(id);
  }

  /// Durations (ms) of every span named `name`, in recording order.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Self time of every span (ms), indexed like the spans: its duration
  /// minus the part of it that its children's intervals cover.
  std::vector<double> self_ms() const;

  /// Write every span plus a per-name summary (count, total and self
  /// ms) as JSON to `path`.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace bkcbench
