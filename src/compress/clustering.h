#pragma once
// Removing less frequent bit sequences by clustering (Sec III-C).
//
// The paper observes that a rarely used sequence s_a can be replaced by
// a frequently used one s_b "without negatively affecting the model
// accuracy", provided hamming(s_a, s_b) == 1 (a single flipped weight).
// The algorithm: build the set st of the M most common sequences and the
// set su of the N least common ones; for every s_a in su pick the
// highest-frequency s_b in st at Hamming distance 1 (if any) and replace
// every occurrence of s_a with s_b. Replaced sequences vanish from the
// alphabet, concentrating mass in the short-code nodes and improving the
// compression ratio (Table V's "Clustering" column).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bnn/bitseq.h"
#include "compress/frequency.h"

namespace bkc::compress {

/// Parameters of the clustering pass. The defaults reproduce the paper:
/// "the 256 most uncommon are removed" (N = 256) against the common set
/// of all remaining sequences (M = 256); the paper reports empirically
/// searching M/N combinations, and the M=N=256 split is the one whose
/// post-clustering node shares match its Sec VI numbers. `max_distance`
/// generalizes the Hamming constraint for the ablation bench; the paper
/// uses 1.
struct ClusteringConfig {
  std::size_t most_common = 64;    ///< M: size of the common set st
  std::size_t least_common = 352;  ///< N: size of the rare set su
  int max_distance = 1;
};

/// One substitution performed by the pass.
struct Replacement {
  SeqId from = 0;
  SeqId to = 0;
  std::uint64_t occurrences = 0;  ///< how many kernel channels changed
  int distance = 0;               ///< hamming(from, to)
};

/// Outcome of the clustering pass: a remap over the alphabet plus
/// accounting of how much the kernels were perturbed (the accuracy
/// proxy measured by the ablation bench and examples).
class ClusteringResult {
 public:
  ClusteringResult();

  /// Rebuild a result from its replacement list (the serialized form,
  /// compress/serialize.h). The remap and the replaced/flipped counters
  /// are derived from the replacements, so a restored result cannot be
  /// internally inconsistent. CheckError on out-of-range sequence ids,
  /// a stored distance that is not the pair's actual Hamming distance,
  /// self-replacements, a sequence replaced twice, replacement chains
  /// (a target that is itself replaced), or occurrence counts that
  /// exceed the total (checked per replacement, overflow-proof).
  static ClusteringResult from_replacements(
      std::vector<Replacement> replacements,
      std::uint64_t total_occurrences);

  /// Where sequence `s` now maps (itself if kept).
  SeqId remap(SeqId s) const;

  const std::vector<Replacement>& replacements() const {
    return replacements_;
  }

  /// Occurrences rewritten across the analyzed kernels.
  std::uint64_t replaced_occurrences() const { return replaced_occurrences_; }
  /// Individual +/-1 weights flipped (= occurrences, at distance 1).
  std::uint64_t flipped_weight_bits() const { return flipped_weight_bits_; }
  std::uint64_t total_occurrences() const { return total_occurrences_; }

  /// Fraction of all kernel weight bits flipped by the pass.
  double flipped_bit_fraction() const;

  /// Frequency table after applying the remap.
  FrequencyTable apply(const FrequencyTable& table) const;

  /// Rewrite a sequence list through the remap.
  std::vector<SeqId> apply(std::span<const SeqId> sequences) const;

 private:
  friend ClusteringResult cluster_sequences(const FrequencyTable&,
                                            const ClusteringConfig&);
  std::array<SeqId, bnn::kNumSequences> remap_{};
  std::vector<Replacement> replacements_;
  std::uint64_t replaced_occurrences_ = 0;
  std::uint64_t flipped_weight_bits_ = 0;
  std::uint64_t total_occurrences_ = 0;
};

/// Run the Sec III-C algorithm over a frequency table.
ClusteringResult cluster_sequences(const FrequencyTable& table,
                                   const ClusteringConfig& config = {});

}  // namespace bkc::compress
