#include "hwsim/cluster.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace bkc::hwsim {

double squared_distance(const std::vector<double>& a,
                        const std::vector<double>& b) {
  check(a.size() == b.size(), "squared_distance: dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

std::size_t closest_member(const std::vector<std::vector<double>>& points,
                           const std::vector<std::size_t>& members,
                           const std::vector<double>& centroid) {
  check(!members.empty(), "closest_member: no members");
  std::size_t best = members.front();
  double best_distance = squared_distance(points[best], centroid);
  for (std::size_t i = 1; i < members.size(); ++i) {
    const double d = squared_distance(points[members[i]], centroid);
    if (d < best_distance) {
      best_distance = d;
      best = members[i];
    }
  }
  return best;
}

namespace {

/// k-means++ seeding: first center uniform, every next center drawn
/// proportionally to squared distance from the nearest chosen center.
/// When every remaining point coincides with a chosen center (all
/// squared distances zero, so the weighted draw has no mass) the next
/// center falls back to the lowest-index point not already chosen —
/// duplicate inputs stay deterministic instead of tripping
/// weighted_pick's positive-sum precondition.
std::vector<std::vector<double>> plus_plus_init(
    const std::vector<std::vector<double>>& points, int k, Rng& rng) {
  const std::size_t n = points.size();
  std::vector<std::size_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k));
  chosen.push_back(static_cast<std::size_t>(rng.below(n)));

  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  while (chosen.size() < static_cast<std::size_t>(k)) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i],
                            squared_distance(points[i], points[chosen.back()]));
      total += nearest[i];
    }
    std::size_t next = n;
    if (total > 0.0) {
      next = rng.weighted_pick(nearest);
      // A zero-weight index can slip through on round-off; fall through
      // to the deterministic backstop if it names a chosen point.
      if (nearest[next] == 0.0) next = n;
    }
    if (next == n) {
      for (std::size_t i = 0; i < n; ++i) {
        if (std::find(chosen.begin(), chosen.end(), i) == chosen.end()) {
          next = i;
          break;
        }
      }
    }
    chosen.push_back(next);
  }

  std::vector<std::vector<double>> centroids;
  centroids.reserve(chosen.size());
  for (const std::size_t index : chosen) centroids.push_back(points[index]);
  return centroids;
}

}  // namespace

KMeansResult kmeans(const std::vector<std::vector<double>>& points,
                    const KMeansConfig& config) {
  check(!points.empty(), "kmeans: no points");
  check(config.k >= 1 &&
            static_cast<std::size_t>(config.k) <= points.size(),
        "kmeans: k must be in [1, points.size()], got ", config.k, " for ",
        points.size(), " points");
  check(config.max_iters >= 1, "kmeans: max_iters must be >= 1");
  const std::size_t dims = points.front().size();
  check(dims >= 1, "kmeans: zero-dimensional points");
  for (const auto& p : points) {
    check(p.size() == dims, "kmeans: mixed point dimensions");
  }

  std::uint64_t state = config.seed;
  Rng rng(splitmix64(state));

  KMeansResult result;
  result.centroids = plus_plus_init(points, config.k, rng);
  result.assignment.assign(points.size(), 0);

  for (int iter = 0; iter < config.max_iters; ++iter) {
    // Assign: nearest centroid, ties to the lowest index (strict <).
    bool changed = iter == 0;  // the first pass always counts
    for (std::size_t i = 0; i < points.size(); ++i) {
      int best = 0;
      double best_distance =
          squared_distance(points[i], result.centroids[0]);
      for (int c = 1; c < config.k; ++c) {
        const double d = squared_distance(
            points[i], result.centroids[static_cast<std::size_t>(c)]);
        if (d < best_distance) {
          best_distance = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    result.iterations = iter + 1;
    if (!changed) break;

    // Update: centroid = mean of members. A cluster left empty (fewer
    // distinct points than k) keeps its old centroid; it can only stay
    // empty — every point strictly prefers a centroid it is closer to —
    // so the result is still deterministic and callers simply see an
    // empty cluster.
    std::vector<std::vector<double>> sums(
        static_cast<std::size_t>(config.k),
        std::vector<double>(dims, 0.0));
    std::vector<std::size_t> counts(static_cast<std::size_t>(config.k), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto c = static_cast<std::size_t>(result.assignment[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) sums[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < static_cast<std::size_t>(config.k); ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        sums[c][d] /= static_cast<double>(counts[c]);
      }
      result.centroids[c] = std::move(sums[c]);
    }
  }
  return result;
}

}  // namespace bkc::hwsim
