#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "util/check.h"
#include "util/json.h"

namespace bkcbench {

int Tracer::begin(std::string name, std::int64_t request, int parent) {
  const Clock::time_point now = Clock::now();
  return record(std::move(name), now, now, request, parent);
}

double Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end = now;
  return ms_between(span.start, span.end);
}

int Tracer::record(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t request, int parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  bkc::check(parent < static_cast<int>(spans_.size()),
             "Tracer: parent span does not exist");
  spans_.push_back({std::move(name), start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(ms_between(span.start, span.end));
  }
  return out;
}

std::vector<double> Tracer::self_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Children may overlap (concurrent requests) or spill past the
    // parent, so subtract the union of their clipped intervals.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      const auto lo = std::max(child.start, span.start);
      const auto hi = std::min(child.end, span.end);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = span.start;
    for (const auto& [lo, hi] : cover) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        covered += ms_between(from, hi);
        reach = hi;
      }
    }
    self[i] = ms_between(span.start, span.end) - covered;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  const std::vector<double> self = self_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;

  struct Summary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summary;

  bkc::json::Writer w;
  w.begin_object();
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double dur = ms_between(span.start, span.end);
    Summary& s = summary[span.name];
    ++s.count;
    s.total_ms += dur;
    s.self_ms += self[i];
    w.begin_object();
    w.key("id").value(static_cast<std::int64_t>(i));
    w.key("name").value(span.name);
    w.key("start_ms").value(ms_between(origin, span.start));
    w.key("end_ms").value(ms_between(origin, span.end));
    w.key("parent").value(span.parent);
    w.key("request").value(span.request);
    w.key("self_ms").value(self[i]);
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  for (const auto& [name, s] : summary) {
    w.key(name).begin_object();
    w.key("count").value(static_cast<std::uint64_t>(s.count));
    w.key("total_ms").value(s.total_ms);
    w.key("self_ms").value(s.self_ms);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::ofstream(path) << w.str() << "\n";
}

}  // namespace bkcbench
