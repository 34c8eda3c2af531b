#include "compress/block_codec.h"

#include <utility>

#include "bnn/kernel_sequences.h"
#include "compress/huffman.h"
#include "compress/serialize.h"
#include "util/check.h"

namespace bkc::compress {

std::int64_t read_channel_count(ByteReader& reader, const char* what) {
  const std::int64_t value = reader.read_i64();
  check(value >= 1 && value <= kMaxChannels,
        reader.context(), ": implausible ", what, " (", value, ")");
  return value;
}

namespace {

/// Recover the per-codeword lengths of a parsed stream, re-contexted so
/// a corrupt-behind-valid-crc stream still names the section at fault.
std::vector<std::uint8_t> scan_lengths_checked(
    const ByteReader& reader, const CompressedKernel& kernel,
    const GroupedTreeConfig& config) {
  try {
    return scan_code_lengths(kernel.stream, kernel.stream_bits,
                             kernel.num_sequences(), config);
  } catch (const CheckError& e) {
    throw CheckError(reader.context() + ": " + e.what());
  }
}

/// Encode a sequence list (out_channels * in_channels entries in the
/// canonical output-channel-major order) with `codec`.
CompressedKernel compress_sequences(std::span<const SeqId> sequences,
                                    std::int64_t out_channels,
                                    std::int64_t in_channels,
                                    const GroupedHuffmanCodec& codec) {
  check(sequences.size() ==
            static_cast<std::size_t>(out_channels * in_channels),
        "compress_sequences: sequence count does not match the shape");
  CompressedKernel out;
  out.out_channels = out_channels;
  out.in_channels = in_channels;
  out.stream = codec.encode(sequences, out.stream_bits);
  return out;
}

/// Codeword bit lengths of `sequences` under `codec`, in stream order —
/// the `KernelCompression::code_lengths` artifact.
std::vector<std::uint8_t> code_lengths_for(std::span<const SeqId> sequences,
                                           const GroupedHuffmanCodec& codec) {
  std::vector<std::uint8_t> lengths;
  lengths.reserve(sequences.size());
  for (const SeqId s : sequences) {
    lengths.push_back(static_cast<std::uint8_t>(codec.code_length(s)));
  }
  return lengths;
}

}  // namespace

BlockCodec::BlockCodec(GroupedTreeConfig tree, ClusteringConfig clustering)
    : tree_(std::move(tree)), clustering_(clustering) {
  tree_.validate();
}

CompressedBlock BlockCodec::compress_block(
    const std::string& name, const bnn::PackedKernel& kernel) const {
  BlockReport report;
  report.block_name = name;

  // The one sequence extraction and one frequency count of the pass;
  // everything below — clustering, kernel remap, both stream encodes —
  // feeds off this list instead of re-walking the packed kernel.
  const std::vector<SeqId> sequences = bnn::extract_sequences(kernel);
  FrequencyTable table = FrequencyTable::from_sequences(sequences);
  report.num_sequences = table.total();
  report.distinct_sequences = table.distinct();
  report.top16_share = table.top_k_share(16);
  report.top64_share = table.top_k_share(64);
  report.top256_share = table.top_k_share(256);
  report.entropy_bits = table.entropy_bits();
  report.uncompressed_bits = table.total() * bnn::kSeqBits;

  // Encoding column: grouped tree straight from the observed counts.
  GroupedHuffmanCodec plain_codec(table, tree_);
  report.encoding_bits = plain_codec.encoded_bits(table);
  report.encoding_ratio = plain_codec.compression_ratio(table);
  for (int n = 0; n < tree_.num_nodes(); ++n) {
    report.node_shares_encoding.push_back(plain_codec.node_share(n, table));
  }

  // Clustering column: the one clustering search, applied to the
  // counts (remapping the table is count-identical to re-counting the
  // remapped sequences), the sequence list and the kernel.
  ClusteringResult clustering = cluster_sequences(table, clustering_);
  const std::vector<SeqId> remapped =
      clustering.apply(std::span<const SeqId>(sequences));
  bnn::PackedKernel clustered_kernel = bnn::kernel_from_sequences(
      kernel.shape().out_channels, kernel.shape().in_channels, remapped);
  FrequencyTable clustered_table = clustering.apply(table);
  GroupedHuffmanCodec clustered_codec(clustered_table, tree_);
  report.clustering_bits = clustered_codec.encoded_bits(clustered_table);
  report.clustering_ratio = clustered_codec.compression_ratio(clustered_table);
  for (int n = 0; n < tree_.num_nodes(); ++n) {
    report.node_shares_clustering.push_back(
        clustered_codec.node_share(n, clustered_table));
  }
  report.flipped_bit_fraction = clustering.flipped_bit_fraction();
  report.replaced_sequences = clustering.replacements().size();
  report.decode_table_bits = clustered_codec.table_bits();

  // Full-Huffman bound on the clustered alphabet.
  const HuffmanCodec huffman = HuffmanCodec::build(clustered_table);
  report.huffman_ratio = huffman.compression_ratio(clustered_table);

  // Both stream artifacts, from the codecs and sequence lists already
  // built (no re-extraction from the packed kernels). The code-length
  // vectors are part of the artifact: hwsim's StreamInfo borrows them
  // instead of re-walking the kernel per simulation.
  CompressedKernel plain_stream =
      compress_sequences(sequences, kernel.shape().out_channels,
                         kernel.shape().in_channels, plain_codec);
  CompressedKernel clustered_stream =
      compress_sequences(remapped, kernel.shape().out_channels,
                         kernel.shape().in_channels, clustered_codec);
  std::vector<std::uint8_t> plain_lengths =
      code_lengths_for(sequences, plain_codec);
  std::vector<std::uint8_t> clustered_lengths =
      code_lengths_for(remapped, clustered_codec);

  return CompressedBlock{
      .encoding =
          KernelCompression{
              .frequencies = table,
              .clustering = ClusteringResult{},  // identity
              .coded_frequencies = table,
              .codec = std::move(plain_codec),
              .compressed = std::move(plain_stream),
              .code_lengths = std::move(plain_lengths)},
      .clustered =
          KernelCompression{
              .frequencies = std::move(table),
              .clustering = std::move(clustering),
              .coded_frequencies = std::move(clustered_table),
              .codec = std::move(clustered_codec),
              .compressed = std::move(clustered_stream),
              .code_lengths = std::move(clustered_lengths)},
      .clustered_kernel = std::move(clustered_kernel),
      .report = std::move(report)};
}

bnn::PackedKernel decode_block(const KernelCompression& stream) {
  const CompressedKernel& compressed = stream.compressed;
  const std::vector<SeqId> sequences = stream.codec.decode(
      compressed.stream, compressed.stream_bits, compressed.num_sequences());
  return bnn::kernel_from_sequences(compressed.out_channels,
                                    compressed.in_channels, sequences);
}

void write_block(ByteWriter& writer, const KernelCompression& stream) {
  write_frequency_table(writer, stream.frequencies);
  write_clustering_result(writer, stream.clustering);
  write_frequency_table(writer, stream.coded_frequencies);
  write_codec(writer, stream.codec);
  write_compressed_kernel(writer, stream.compressed);
}

KernelCompression read_block(ByteReader& reader) {
  KernelCompression artifact;
  artifact.frequencies = read_frequency_table(reader);
  artifact.clustering = read_clustering_result(reader);
  artifact.coded_frequencies = read_frequency_table(reader);
  artifact.codec = read_codec(reader);
  artifact.compressed = read_compressed_kernel(reader);
  artifact.code_lengths = scan_lengths_checked(reader, artifact.compressed,
                                               artifact.codec.config());
  return artifact;
}

void verify_artifact(const KernelCompression& stream, std::size_t index) {
  // The original weights are not stored, so verification means
  // cross-checking the artifact's INDEPENDENT pieces against each
  // other (not decode-vs-what-decode-installed, which is circular):
  //   1. the decoded stream's sequence counts must reproduce the
  //      stored coded_frequencies table,
  //   2. the stored remap applied to the stored pre-clustering
  //      frequencies must also yield coded_frequencies.
  const std::vector<SeqId> decoded = stream.codec.decode(
      stream.compressed.stream, stream.compressed.stream_bits,
      stream.compressed.num_sequences());
  const auto observed = FrequencyTable::from_sequences(decoded);
  check(observed.counts() == stream.coded_frequencies.counts(),
        "verify: block ", index,
        ": decoded stream does not reproduce the stored frequency table "
        "(tampered stream?)");
  const auto remapped = stream.clustering.apply(stream.frequencies);
  check(remapped.counts() == stream.coded_frequencies.counts(),
        "verify: block ", index,
        ": stored remap and frequency tables are inconsistent");
}

std::unique_ptr<const BlockCodec> make_block_codec(
    std::uint32_t id, GroupedTreeConfig tree, ClusteringConfig clustering) {
  check(id == kCodecGroupedHuffman, "unregistered codec id ", id,
        " (registered: ", kCodecGroupedHuffman, " grouped-huffman)");
  return std::make_unique<const BlockCodec>(std::move(tree), clustering);
}

}  // namespace bkc::compress
