#include "bnn/weights.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/check.h"
#include "util/stats.h"

namespace bkc::bnn {

const std::array<BlockFrequencyTarget, 13>& paper_table2_targets() {
  // Table II of the paper, converted from percent to fractions.
  static const std::array<BlockFrequencyTarget, 13> kTargets = {{
      {0.534, 0.906},   // Block 1
      {0.645, 0.951},   // Block 2
      {0.563, 0.8711},  // Block 3
      {0.648, 0.927},   // Block 4
      {0.632, 0.883},   // Block 5
      {0.631, 0.9086},  // Block 6
      {0.624, 0.9164},  // Block 7
      {0.608, 0.9024},  // Block 8
      {0.552, 0.929},   // Block 9
      {0.622, 0.899},   // Block 10
      {0.6797, 0.92},   // Block 11
      {0.753, 0.934},   // Block 12
      {0.583, 0.869},   // Block 13
  }};
  return kTargets;
}

const std::array<SeqId, 16>& figure3_top16() {
  static const std::array<SeqId, 16> kTop16 = {
      0, 511, 256, 255, 4, 510, 1, 507, 508, 64, 3, 504, 447, 7, 448, 63};
  return kTop16;
}

const std::array<SeqId, kNumSequences>&
SequenceDistribution::popularity_order() {
  static const std::array<SeqId, kNumSequences> kOrder = [] {
    std::array<SeqId, kNumSequences> order{};
    std::array<bool, kNumSequences> used{};
    std::size_t next = 0;
    for (SeqId s : figure3_top16()) {
      order[next++] = s;
      used[s] = true;
    }
    // Ranks 16..63: a greedy near-covering set of the 9-cube, added as
    // complement pairs. Rationale: the paper's clustering pass replaces
    // ~95% of the rare sequences with a Hamming-distance-1 member of
    // the common set (its post-clustering node-3 share is 0.6%), which
    // is only possible when the frequent sequences are *spread out*
    // over the hypercube (the minimum 1-covering of Q9 has 62 elements,
    // so a well-spread top-64 covers essentially everything). Trained
    // kernels do spread: different output channels favour different
    // motifs. Complements are kept adjacent so the complement-
    // symmetrisation below preserves the segment masses.
    std::array<bool, kNumSequences> covered{};
    auto cover_ball = [&covered](SeqId s) {
      covered[s] = true;
      for (SeqId n : seq_neighbors1(s)) covered[n] = true;
    };
    auto fresh_coverage = [&covered](SeqId s) {
      int fresh = covered[s] ? 0 : 1;
      for (SeqId n : seq_neighbors1(s)) fresh += covered[n] ? 0 : 1;
      return fresh;
    };
    for (SeqId s : figure3_top16()) cover_ball(s);
    std::vector<SeqId> reps;
    for (int s = 0; s < kNumSequences; ++s) {
      const auto seq = static_cast<SeqId>(s);
      const SeqId comp = seq_complement(seq);
      if (seq < comp && !used[seq] && !used[comp]) reps.push_back(seq);
    }
    for (int round = 0; round < 24; ++round) {
      SeqId best = reps.front();
      int best_gain = -1;
      for (SeqId rep : reps) {
        if (used[rep]) continue;
        const int gain =
            fresh_coverage(rep) + fresh_coverage(seq_complement(rep));
        if (gain > best_gain) {
          best_gain = gain;
          best = rep;
        }
      }
      used[best] = true;
      cover_ball(best);
      cover_ball(seq_complement(best));
      order[next++] = best;
      order[next++] = seq_complement(best);
    }
    // Remaining pairs: ordered by distance of their popcount from the
    // extremes (all -1 / all +1 kernels and their near neighbours are
    // the most common in real BNNs, which is what Fig. 3 shows) plus a
    // deterministic jitter - in a trained network rarity is only
    // *correlated* with popcount.
    auto key = [](SeqId s) {
      const int band = std::min(seq_popcount(s), kSeqBits - seq_popcount(s));
      std::uint64_t h = 0x5eedULL + s;
      const double u =
          static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
      return static_cast<double>(band) + 3.2 * (u - 0.5);
    };
    std::vector<SeqId> rest;
    for (SeqId rep : reps) {
      if (!used[rep]) rest.push_back(rep);
    }
    std::sort(rest.begin(), rest.end(), [&](SeqId a, SeqId b) {
      const double ka = key(a);
      const double kb = key(b);
      if (ka != kb) return ka < kb;
      return a < b;
    });
    for (SeqId rep : rest) {
      order[next++] = rep;
      order[next++] = seq_complement(rep);
    }
    check(next == kNumSequences, "popularity_order: bad construction");
    return order;
  }();
  return kOrder;
}

SequenceDistribution SequenceDistribution::uniform() {
  SequenceDistribution d;
  d.p_.fill(1.0 / kNumSequences);
  return d;
}

SequenceDistribution SequenceDistribution::from_probabilities(
    const std::array<double, kNumSequences>& probabilities) {
  double total = 0.0;
  for (double p : probabilities) {
    check(p >= 0.0, "SequenceDistribution: negative probability");
    total += p;
  }
  check(total > 0.0, "SequenceDistribution: zero mass");
  SequenceDistribution d;
  for (int s = 0; s < kNumSequences; ++s) d.p_[s] = probabilities[s] / total;
  return d;
}

namespace {

/// Average each sequence's probability with its complement's.
void symmetrize(std::array<double, kNumSequences>& p) {
  for (int s = 0; s < kNumSequences; ++s) {
    const auto seq = static_cast<SeqId>(s);
    const SeqId comp = seq_complement(seq);
    if (seq < comp) {
      const double avg = 0.5 * (p[seq] + p[comp]);
      p[seq] = avg;
      p[comp] = avg;
    }
  }
}

}  // namespace

SequenceDistribution SequenceDistribution::zipf_mixture(double exponent,
                                                        double uniform_mix) {
  check(exponent > 0.0, "zipf_mixture: exponent must be positive");
  check(uniform_mix >= 0.0 && uniform_mix <= 1.0,
        "zipf_mixture: uniform_mix must be in [0, 1]");
  const auto& order = popularity_order();
  std::array<double, kNumSequences> zipf{};
  double z = 0.0;
  for (int r = 0; r < kNumSequences; ++r) {
    zipf[r] = std::pow(static_cast<double>(r + 1), -exponent);
    z += zipf[r];
  }
  std::array<double, kNumSequences> p{};
  for (int r = 0; r < kNumSequences; ++r) {
    p[order[r]] = (1.0 - uniform_mix) * zipf[r] / z +
                  uniform_mix / kNumSequences;
  }
  symmetrize(p);
  return from_probabilities(p);
}

namespace {

/// Partial sum of a Zipf curve: sum_{r=1..k} r^-s.
double zipf_partial(double s, int k) {
  double sum = 0.0;
  for (int r = 1; r <= k; ++r) {
    sum += std::pow(static_cast<double>(r), -s);
  }
  return sum;
}

}  // namespace

SequenceDistribution SequenceDistribution::fitted(
    const BlockFrequencyTarget& target) {
  check(target.top64 > 0.0 && target.top64 < 1.0,
        "fitted: top64 must be in (0, 1)");
  check(target.top256 > target.top64 && target.top256 < 1.0,
        "fitted: top256 must be in (top64, 1)");
  const auto& order = popularity_order();

  // Two Zipf segments joined with value-continuity at rank 64:
  //   mass(r) = c  * (r+1)^-s   for ranks 0..63   (head)
  //   mass(r) = c2 * (r+1)^-s2  for ranks 64..255 (body)
  // The head exponent s defaults to 1.08, which lands the Fig. 3
  // interior values (all-zeros/all-ones pair ~12.5% each, top-16 ~46% of
  // a ~64% top-64); c is then pinned by the block's exact top-64 target.
  // The body exponent s2 is bisected so ranks 64..255 carry exactly
  // (top256 - top64); c2 follows from continuity, which keeps the curve
  // monotone so the *observed* ranking of a sampled kernel matches the
  // constructed one up to local noise. Blocks whose body mass is too
  // large for a continuous decaying body (very flat distributions)
  // fall back to a flatter head until the fit is feasible.
  double s = 1.08;
  double c = 0.0;
  double boundary = 0.0;  // mass value at rank 64 (continuity anchor)
  const double body_mass = target.top256 - target.top64;
  for (;;) {
    c = target.top64 / zipf_partial(s, 64);
    boundary = c * std::pow(65.0, -s);
    // Flat body (s2 = 0) is the maximum achievable body mass.
    if (boundary * 192.0 >= body_mass || s < 0.2) break;
    s *= 0.92;
  }
  double lo = 0.0;
  double hi = 6.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double s2 = 0.5 * (lo + hi);
    // Body sum with continuity: c2 * sum_{65..256} r^-s2 where
    // c2 = boundary / 65^-s2.
    const double c2 = boundary / std::pow(65.0, -s2);
    const double sum =
        c2 * (zipf_partial(s2, 256) - zipf_partial(s2, 64));
    (sum > body_mass ? lo : hi) = s2;
  }
  const double s2 = 0.5 * (lo + hi);
  const double c2 = boundary / std::pow(65.0, -s2);

  std::array<double, kNumSequences> rank_mass{};
  for (int r = 0; r < 64; ++r) {
    rank_mass[r] = c * std::pow(static_cast<double>(r + 1), -s);
  }
  for (int r = 64; r < 256; ++r) {
    rank_mass[r] = c2 * std::pow(static_cast<double>(r + 1), -s2);
  }
  // Tail: mild linear decay so the ranking stays strictly ordered.
  double tail_z = 0.0;
  for (int r = 256; r < kNumSequences; ++r) {
    rank_mass[r] = 1.5 - (r - 256.0) / 256.0;  // 1.5 down to ~0.5
    tail_z += rank_mass[r];
  }
  for (int r = 256; r < kNumSequences; ++r) {
    rank_mass[r] *= (1.0 - target.top256) / tail_z;
  }

  std::array<double, kNumSequences> p{};
  for (int r = 0; r < kNumSequences; ++r) p[order[r]] = rank_mass[r];
  symmetrize(p);
  return from_probabilities(p);
}

double SequenceDistribution::probability(SeqId s) const {
  check(s < kNumSequences, "SequenceDistribution: sequence id out of range");
  return p_[s];
}

double SequenceDistribution::top_k_share(std::size_t k) const {
  return bkc::top_k_share(std::span<const double>(p_.data(), p_.size()), k);
}

double SequenceDistribution::entropy_bits() const {
  return bkc::entropy_bits(std::span<const double>(p_.data(), p_.size()));
}

WeightGenerator::WeightGenerator(std::uint64_t seed) : rng_(seed) {}

WeightGenerator WeightGenerator::layout_only() {
  WeightGenerator generator(0);
  generator.layout_only_ = true;
  return generator;
}

PackedKernel WeightGenerator::sample_kernel3x3(
    std::int64_t out_channels, std::int64_t in_channels,
    const SequenceDistribution& dist) {
  check(out_channels > 0 && in_channels > 0,
        "sample_kernel3x3: channels must be positive");
  PackedKernel kernel(
      KernelShape{out_channels, in_channels, kSeqSide, kSeqSide});
  if (layout_only_) return kernel;
  const auto& p = dist.probabilities();
  AliasSampler sampler{std::span<const double>(p.data(), p.size())};
  for (std::int64_t o = 0; o < out_channels; ++o) {
    for (std::int64_t i = 0; i < in_channels; ++i) {
      const auto seq = static_cast<SeqId>(sampler.sample(rng_));
      for (int ky = 0; ky < kSeqSide; ++ky) {
        for (int kx = 0; kx < kSeqSide; ++kx) {
          kernel.set_bit(o, i, ky, kx, seq_bit(seq, ky, kx));
        }
      }
    }
  }
  return kernel;
}

PackedKernel WeightGenerator::sample_kernel(const KernelShape& shape,
                                            double plus_one_density) {
  check(plus_one_density >= 0.0 && plus_one_density <= 1.0,
        "sample_kernel: density must be in [0, 1]");
  PackedKernel kernel(shape);
  if (layout_only_) return kernel;
  for (std::int64_t o = 0; o < shape.out_channels; ++o) {
    for (std::int64_t i = 0; i < shape.in_channels; ++i) {
      for (std::int64_t ky = 0; ky < shape.kernel_h; ++ky) {
        for (std::int64_t kx = 0; kx < shape.kernel_w; ++kx) {
          kernel.set_bit(o, i, ky, kx,
                         rng_.chance(plus_one_density) ? 1 : 0);
        }
      }
    }
  }
  return kernel;
}

WeightTensor WeightGenerator::sample_float_weights(const KernelShape& shape,
                                                   float stddev) {
  WeightTensor weights(shape);
  if (layout_only_) return weights;
  for (float& v : weights.data()) {
    v = static_cast<float>(rng_.normal()) * stddev;
  }
  return weights;
}

std::vector<float> WeightGenerator::sample_floats(std::size_t count,
                                                  float stddev, float mean) {
  std::vector<float> out(count);
  if (layout_only_) return out;
  for (float& v : out) {
    v = mean + static_cast<float>(rng_.normal()) * stddev;
  }
  return out;
}

Tensor WeightGenerator::sample_activation(const FeatureShape& shape) {
  Tensor out(shape);
  constexpr int kWaves = 3;
  for (std::int64_t c = 0; c < shape.channels; ++c) {
    const double bias = rng_.normal() * 0.2;
    double amp[kWaves];
    double fx[kWaves];
    double fy[kWaves];
    double phase[kWaves];
    for (int w = 0; w < kWaves; ++w) {
      amp[w] = 0.3 + 0.7 * rng_.uniform();
      fx[w] = rng_.range(1, 4);
      fy[w] = rng_.range(1, 4);
      phase[w] = rng_.uniform() * 2.0 * std::numbers::pi;
    }
    for (std::int64_t y = 0; y < shape.height; ++y) {
      for (std::int64_t x = 0; x < shape.width; ++x) {
        double v = bias + 0.3 * rng_.normal();
        for (int w = 0; w < kWaves; ++w) {
          const double arg =
              2.0 * std::numbers::pi *
                  (fx[w] * static_cast<double>(x) /
                       static_cast<double>(std::max<std::int64_t>(
                           shape.width, 1)) +
                   fy[w] * static_cast<double>(y) /
                       static_cast<double>(std::max<std::int64_t>(
                           shape.height, 1))) +
              phase[w];
          v += amp[w] * std::sin(arg);
        }
        out.at(c, y, x) = static_cast<float>(v);
      }
    }
  }
  return out;
}

}  // namespace bkc::bnn
