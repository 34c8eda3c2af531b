#pragma once
// Small statistics helpers shared by the frequency analysis, the weight
// distribution fitter and the benchmark harnesses.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bkc {

/// Arithmetic mean. Precondition: non-empty.
double mean(std::span<const double> values);

/// Population standard deviation. Precondition: non-empty.
double stddev(std::span<const double> values);

/// Geometric mean. Precondition: non-empty, all values > 0.
/// Used to aggregate per-layer speedups the way architecture papers do.
double geomean(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 100]. Precondition:
/// non-empty, all values finite (a NaN would break the sort's strict
/// weak ordering and silently missort the sample; CheckError instead).
double percentile(std::span<const double> values, double p);

/// Shannon entropy in bits of a (not necessarily normalised) histogram.
/// Zero-weight bins contribute nothing. Precondition: sum > 0.
/// This is the lower bound on average code length any prefix code
/// (including the paper's grouped Huffman tree) can reach.
double entropy_bits(std::span<const double> weights);

/// Normalise a histogram to probabilities summing to 1.
/// Precondition: all >= 0, sum > 0.
std::vector<double> normalized(std::span<const double> weights);

/// Indices of `values` sorted by descending value (ties by ascending
/// index, so rankings are deterministic).
std::vector<std::uint32_t> rank_descending(std::span<const double> values);

/// Sum of the `k` largest values divided by the total sum (in [0, 1]).
/// This is exactly the paper's "top-64 / top-256 share" metric (Table II).
/// Precondition: sum > 0; k is clamped to values.size().
double top_k_share(std::span<const double> values, std::size_t k);

}  // namespace bkc
