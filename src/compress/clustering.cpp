#include "compress/clustering.h"

#include <algorithm>
#include <limits>

#include "compress/instrumentation.h"
#include "util/check.h"

namespace bkc::compress {

ClusteringResult::ClusteringResult() {
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    remap_[s] = static_cast<SeqId>(s);
  }
}

ClusteringResult ClusteringResult::from_replacements(
    std::vector<Replacement> replacements, std::uint64_t total_occurrences) {
  // `total_occurrences` is a sequence count; bounding it keeps every
  // accumulation below (occurrences * 9 fits) even on hostile input.
  check(total_occurrences <= std::numeric_limits<std::uint64_t>::max() /
                                 bnn::kSeqBits,
        "ClusteringResult: implausible total occurrence count");
  ClusteringResult result;
  result.total_occurrences_ = total_occurrences;
  for (const Replacement& r : replacements) {
    check(r.from < bnn::kNumSequences && r.to < bnn::kNumSequences,
          "ClusteringResult: replacement sequence id out of range");
    check(r.from != r.to, "ClusteringResult: self-replacement");
    // The stored distance is redundant with the pair itself; requiring
    // the exact value (not just [1, 9]) keeps flipped-bit accounting
    // honest on hostile input.
    check(r.distance == bnn::hamming_distance(r.from, r.to),
          "ClusteringResult: replacement distance does not match the "
          "sequence pair");
    check(result.remap_[r.from] == r.from,
          "ClusteringResult: sequence replaced twice");
    // Checked before each accumulation (not once at the end) so the sum
    // can never wrap past the total and slip through.
    check(r.occurrences <= total_occurrences - result.replaced_occurrences_,
          "ClusteringResult: replaced occurrences exceed the total");
    result.remap_[r.from] = r.to;
    result.replaced_occurrences_ += r.occurrences;
    result.flipped_weight_bits_ +=
        r.occurrences * static_cast<std::uint64_t>(r.distance);
  }
  // No chains: a replacement target must itself be an unreplaced
  // sequence (st and su are disjoint in cluster_sequences), otherwise
  // remap() would disagree with transitive application.
  for (const Replacement& r : replacements) {
    check(result.remap_[r.to] == r.to,
          "ClusteringResult: replacement target is itself replaced");
  }
  result.replacements_ = std::move(replacements);
  return result;
}

SeqId ClusteringResult::remap(SeqId s) const {
  check(s < bnn::kNumSequences, "ClusteringResult: id out of range");
  return remap_[s];
}

double ClusteringResult::flipped_bit_fraction() const {
  if (total_occurrences_ == 0) return 0.0;
  return static_cast<double>(flipped_weight_bits_) /
         (static_cast<double>(total_occurrences_) * bnn::kSeqBits);
}

FrequencyTable ClusteringResult::apply(const FrequencyTable& table) const {
  FrequencyTable out;
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    const std::uint64_t c = table.count(static_cast<SeqId>(s));
    if (c > 0) out.add(remap_[s], c);
  }
  return out;
}

std::vector<SeqId> ClusteringResult::apply(
    std::span<const SeqId> sequences) const {
  std::vector<SeqId> out;
  out.reserve(sequences.size());
  for (SeqId s : sequences) out.push_back(remap(s));
  return out;
}

ClusteringResult cluster_sequences(const FrequencyTable& table,
                                   const ClusteringConfig& config) {
  internal::count_cluster_sequences();
  check(config.max_distance >= 1 && config.max_distance <= bnn::kSeqBits,
        "ClusteringConfig: max_distance must be in [1, 9]");
  ClusteringResult result;
  result.total_occurrences_ = table.total();
  if (table.total() == 0) return result;

  // st: the M most common sequences that actually occur.
  // su: the N least common sequences that actually occur, rarest first.
  const auto ranked = table.ranked();
  std::vector<SeqId> occurring;
  for (SeqId s : ranked) {
    if (table.count(s) > 0) occurring.push_back(s);
  }
  const std::size_t m = std::min(config.most_common, occurring.size());
  std::vector<SeqId> st(occurring.begin(),
                        occurring.begin() + static_cast<std::ptrdiff_t>(m));
  // su starts after st so the sets never overlap even when M + N exceeds
  // the number of occurring sequences.
  const std::size_t available = occurring.size() - m;
  const std::size_t n = std::min(config.least_common, available);
  std::vector<SeqId> su(occurring.end() - static_cast<std::ptrdiff_t>(n),
                        occurring.end());
  std::reverse(su.begin(), su.end());  // rarest first

  for (SeqId sa : su) {
    // Best candidate: minimal Hamming distance, then highest frequency
    // ("we employ the bit sequence with the highest frequency").
    int best_distance = config.max_distance + 1;
    std::uint64_t best_count = 0;
    SeqId best = sa;
    bool found = false;
    for (SeqId sb : st) {
      const int d = bnn::hamming_distance(sa, sb);
      if (d == 0 || d > config.max_distance) continue;
      const std::uint64_t c = table.count(sb);
      if (d < best_distance || (d == best_distance && c > best_count)) {
        best_distance = d;
        best_count = c;
        best = sb;
        found = true;
      }
    }
    if (!found) continue;  // keep s_a: no similar common sequence
    const std::uint64_t occurrences = table.count(sa);
    result.remap_[sa] = best;
    result.replacements_.push_back({.from = sa,
                                    .to = best,
                                    .occurrences = occurrences,
                                    .distance = best_distance});
    result.replaced_occurrences_ += occurrences;
    result.flipped_weight_bits_ +=
        occurrences * static_cast<std::uint64_t>(best_distance);
  }
  return result;
}

}  // namespace bkc::compress
