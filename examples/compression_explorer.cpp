// Explore the clustering design space on a single block's kernel.
//
// The paper (Sec III-C) "empirically searched for some combinations of
// M and N". This example reruns that search on one calibrated 3x3
// kernel: for each (M, N, max Hamming distance), report the compression
// ratio, the number of sequences removed and the fraction of weight
// bits flipped (the accuracy proxy), so the trade-off the authors
// navigated is visible end to end.
//
//   ./examples/compression_explorer [channels=256]

#include <iostream>

#include "core/bkc.h"

int main(int argc, char** argv) try {
  using namespace bkc;
  check_known_flags(argc, argv, {});
  const std::int64_t channels =
      argc > 1 ? parse_integer<std::int64_t>("channels", argv[1]) : 256;

  bnn::WeightGenerator gen(2024);
  const auto dist =
      bnn::SequenceDistribution::fitted(bnn::paper_table2_targets()[4]);
  const bnn::PackedKernel kernel =
      gen.sample_kernel3x3(channels, channels, dist);
  const auto table = compress::FrequencyTable::from_kernel(kernel);

  std::cout << "Kernel: " << channels << "x" << channels
            << "x3x3, " << table.total() << " bit sequences, "
            << table.distinct() << " distinct, entropy "
            << table.entropy_bits() << " bits/sequence\n";

  const compress::GroupedHuffmanCodec plain(table);
  std::cout << "Encoding-only ratio: "
            << ratio_str(plain.compression_ratio(table)) << "\n";

  Table sweep({"M", "N", "dist", "removed", "ratio", "flipped bits"});
  for (const std::size_t m : {32u, 64u, 128u, 256u}) {
    for (const std::size_t n : {128u, 256u, 352u, 448u}) {
      for (const int d : {1, 2}) {
        const compress::ClusteringConfig config{
            .most_common = m, .least_common = n, .max_distance = d};
        const auto result = compress::cluster_sequences(table, config);
        const auto clustered = result.apply(table);
        const compress::GroupedHuffmanCodec codec(clustered);
        sweep.row()
            .add(static_cast<std::uint64_t>(m))
            .add(static_cast<std::uint64_t>(n))
            .add(d)
            .add(result.replacements().size())
            .add(ratio_str(codec.compression_ratio(clustered)))
            .add(percent_str(result.flipped_bit_fraction(), 2));
      }
    }
  }
  sweep.print("Clustering design space (paper default: M=64, N=352, d=1)");

  std::cout << "\nReading guide: larger N removes more rare sequences and "
               "compresses harder;\nlarger d finds more substitutions but "
               "flips more weights per substitution;\nthe paper constrains "
               "d=1 to keep the introduced error low.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "compression_explorer: " << e.what() << "\n";
  return 1;
}
