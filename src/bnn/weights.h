#pragma once
// Calibrated synthetic weights.
//
// The paper evaluates on ReActNet weights trained on ImageNet. Trained
// weights are not redistributable, and every result in the paper is a
// function of one statistic: the frequency distribution of the 512
// possible bit sequences in each basic block (Fig. 3, Table II). This
// module therefore *fits* a per-block distribution to the paper's own
// published numbers and samples kernels from it:
//
//  * the popularity ranking starts with the exact top-16 of Fig. 3,
//  * the distribution is complement-symmetric (Fig. 3's top-16 is eight
//    complement pairs, so the real network is too, to first order),
//  * the head (ranks 0..63) carries exactly the block's Table II top-64
//    share, ranks 64..255 carry (top256 - top64), and the tail carries
//    the rest - so the Table II statistics are matched *by construction*
//    and Fig. 3 / Table V emerge from the same mechanism as the paper.

#include <array>
#include <cstdint>

#include "bnn/bitpack.h"
#include "bnn/bitseq.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bkc::bnn {

/// Per-block frequency targets, as fractions (Table II is in percent).
struct BlockFrequencyTarget {
  double top64 = 0.6;
  double top256 = 0.9;
};

/// The 13 rows of Table II of the paper.
const std::array<BlockFrequencyTarget, 13>& paper_table2_targets();

/// The top-16 bit sequences of Fig. 3, in the paper's order:
/// 0, 511, 256, 255, 4, 510, 1, 507, 508, 64, 3, 504, 447, 7, 448, 63.
const std::array<SeqId, 16>& figure3_top16();

/// A probability distribution over the 512 bit sequences.
class SequenceDistribution {
 public:
  /// Uniform over all 512 sequences (the incompressible worst case).
  static SequenceDistribution uniform();

  /// Explicit probabilities (normalised internally).
  /// Precondition: 512 non-negative values with positive sum.
  static SequenceDistribution from_probabilities(
      const std::array<double, kNumSequences>& probabilities);

  /// Zipf(exponent) over the popularity ranking mixed with a uniform
  /// floor: p(rank r) = (1-mix) * (r+1)^-exponent / Z + mix / 512,
  /// then complement-symmetrised.
  static SequenceDistribution zipf_mixture(double exponent,
                                           double uniform_mix);

  /// Per-block Zipf fit hitting the block targets exactly: top-64 mass
  /// == target.top64 and top-256 mass == target.top256 (the exponent is
  /// bisected so one monotone curve satisfies both). The fitted curves
  /// also land the Fig. 3 interior values (all-zeros/all-ones pair near
  /// 12.5% each, top-16 near 44-47%) without further tuning.
  static SequenceDistribution fitted(const BlockFrequencyTarget& target);

  /// The canonical popularity ranking: Fig. 3's sixteen, then all other
  /// sequences in complement-adjacent pairs ordered by how far their
  /// popcount is from uniform (0 or 9 first).
  static const std::array<SeqId, kNumSequences>& popularity_order();

  const std::array<double, kNumSequences>& probabilities() const {
    return p_;
  }
  double probability(SeqId s) const;

  /// Probability mass of the k most probable sequences (Table II metric).
  double top_k_share(std::size_t k) const;

  /// Shannon entropy in bits (lower bound for any prefix code).
  double entropy_bits() const;

 private:
  SequenceDistribution() = default;
  std::array<double, kNumSequences> p_{};
};

/// Deterministic generator for kernels, float weights and activations.
class WeightGenerator {
 public:
  explicit WeightGenerator(std::uint64_t seed = 1);

  /// A generator whose kernel/weight samplers return zero-filled
  /// tensors of the requested shape without consuming randomness.
  /// For standing a model up when only its *structure* matters (op
  /// records and storage accounting depend on shapes, never on weight
  /// values — bnn::op_records_for builds on this); a layout-only model
  /// is not meant to be run. sample_activation is unaffected.
  static WeightGenerator layout_only();

  /// Sample a 3x3 packed kernel whose channel bit sequences are i.i.d.
  /// draws from `dist`.
  PackedKernel sample_kernel3x3(std::int64_t out_channels,
                                std::int64_t in_channels,
                                const SequenceDistribution& dist);

  /// Sample a kernel of any shape with i.i.d. bits
  /// (P(bit=1) = plus_one_density).
  PackedKernel sample_kernel(const KernelShape& shape,
                             double plus_one_density = 0.5);

  /// Gaussian float weights (for the int8 stem / classifier).
  WeightTensor sample_float_weights(const KernelShape& shape,
                                    float stddev = 1.0f);
  std::vector<float> sample_floats(std::size_t count, float stddev = 1.0f,
                                   float mean = 0.0f);

  /// Smooth, natural-image-like activation map: per-channel bias plus a
  /// few random low-frequency waves plus white noise. Roughly centred so
  /// sign() produces balanced bits.
  Tensor sample_activation(const FeatureShape& shape);

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  bool layout_only_ = false;
};

}  // namespace bkc::bnn
