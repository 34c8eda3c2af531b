#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace bkc {

double mean(std::span<const double> values) {
  check(!values.empty(), "mean of empty span");
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  check(!values.empty(), "stddev of empty span");
  const double m = mean(values);
  double accum = 0.0;
  for (double v : values) accum += (v - m) * (v - m);
  return std::sqrt(accum / static_cast<double>(values.size()));
}

double geomean(std::span<const double> values) {
  check(!values.empty(), "geomean of empty span");
  double log_sum = 0.0;
  for (double v : values) {
    check(v > 0.0, "geomean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double percentile(std::span<const double> values, double p) {
  check(!values.empty(), "percentile of empty span");
  check(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  // NaN breaks the strict weak ordering std::sort requires, silently
  // missorting the whole sample (and an infinity poisons the
  // interpolation); latency pipelines feed measured values here, so a
  // non-finite input is always an upstream bug worth naming.
  for (double v : values) {
    check(std::isfinite(v), "percentile requires finite values");
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double entropy_bits(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    check(w >= 0.0, "entropy_bits requires non-negative weights");
    total += w;
  }
  check(total > 0.0, "entropy_bits requires a positive weight sum");
  double h = 0.0;
  for (double w : weights) {
    if (w <= 0.0) continue;
    const double p = w / total;
    h -= p * std::log2(p);
  }
  return h;
}

std::vector<double> normalized(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    check(w >= 0.0, "normalized requires non-negative weights");
    total += w;
  }
  check(total > 0.0, "normalized requires a positive weight sum");
  std::vector<double> out(weights.begin(), weights.end());
  for (double& w : out) w /= total;
  return out;
}

std::vector<std::uint32_t> rank_descending(std::span<const double> values) {
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return values[a] > values[b];
                   });
  return order;
}

double top_k_share(std::span<const double> values, std::size_t k) {
  const double total = std::accumulate(values.begin(), values.end(), 0.0);
  check(total > 0.0, "top_k_share requires a positive sum");
  const auto order = rank_descending(values);
  k = std::min(k, values.size());
  double top = 0.0;
  for (std::size_t i = 0; i < k; ++i) top += values[order[i]];
  return top / total;
}

}  // namespace bkc
