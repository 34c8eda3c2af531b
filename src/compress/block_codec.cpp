#include "compress/block_codec.h"

#include <algorithm>
#include <limits>
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

CompressedKernelRef read_compressed_kernel_ref(ByteReader& reader) {
  CompressedKernelRef kernel;
  kernel.out_channels = read_channel_count(reader, "stream out_channels");
  kernel.in_channels = read_channel_count(reader, "stream in_channels");
  check(kernel.out_channels * kernel.in_channels <= kMaxModelUnits,
        reader.context(), ": implausible stream kernel size");
  const std::uint64_t stream_bits = reader.read_varint();
  check(stream_bits <= std::numeric_limits<std::size_t>::max() - 7,
        reader.context(), ": implausible stream bit count");
  kernel.stream_bits = static_cast<std::size_t>(stream_bits);
  kernel.stream = reader.read_span((kernel.stream_bits + 7) / 8);
  return kernel;
}

namespace {

/// Recover the per-codeword lengths of a parsed stream, re-contexted so
/// a corrupt-behind-valid-crc stream still names the section at fault.
std::vector<std::uint8_t> scan_lengths_checked(
    const ByteReader& reader, const CompressedKernelRef& kernel,
    const GroupedTreeConfig& config) {
  try {
    return scan_code_lengths(
        kernel.stream, kernel.stream_bits,
        static_cast<std::size_t>(kernel.out_channels * kernel.in_channels),
        config);
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

// ---- grouped-huffman (id 1): the paper's scheme ----

class GroupedBlockCodec final : public BlockCodec {
 public:
  GroupedBlockCodec(GroupedTreeConfig tree, ClusteringConfig clustering)
      : tree_(std::move(tree)), clustering_(clustering) {
    tree_.validate();
  }

  std::uint32_t id() const override { return kCodecGroupedHuffman; }
  std::string_view name() const override { return "grouped-huffman"; }

  CompressedBlock compress_block(
      const std::string& name,
      const bnn::PackedKernel& kernel) const override {
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
    report.clustering_ratio =
        clustered_codec.compression_ratio(clustered_table);
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

  bnn::PackedKernel decode(const KernelCompression& stream) const override {
    const CompressedKernel& compressed = stream.compressed;
    const std::vector<SeqId> sequences = stream.codec.decode(
        compressed.stream, compressed.stream_bits,
        compressed.num_sequences());
    return bnn::kernel_from_sequences(compressed.out_channels,
                                      compressed.in_channels, sequences);
  }

  void write_block(ByteWriter& writer,
                   const KernelCompression& stream) const override {
    check(stream.codec_id == kCodecGroupedHuffman,
          "grouped-huffman write_block: artifact belongs to another codec");
    // The v1 per-block layout, verbatim — a v2 grouped block is the v1
    // payload behind its codec-id word.
    write_kernel_compression(writer, stream);
  }

  ParsedBlock read_block(ByteReader& reader) const override {
    ParsedBlock parsed;
    KernelCompression& artifact = parsed.artifact;
    artifact.codec_id = kCodecGroupedHuffman;
    artifact.frequencies = read_frequency_table(reader);
    artifact.clustering = read_clustering_result(reader);
    artifact.coded_frequencies = read_frequency_table(reader);
    artifact.codec = read_codec(reader);
    const CompressedKernelRef ref = read_compressed_kernel_ref(reader);
    artifact.compressed.out_channels = ref.out_channels;
    artifact.compressed.in_channels = ref.in_channels;
    artifact.compressed.stream_bits = ref.stream_bits;
    artifact.code_lengths =
        scan_lengths_checked(reader, ref, artifact.codec.config());
    parsed.stream = ref.stream;
    return parsed;
  }

  void verify_artifact(const KernelCompression& stream,
                       std::size_t index) const override {
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

 private:
  GroupedTreeConfig tree_;
  ClusteringConfig clustering_;
};

// ---- mst-delta (id 2): MST-compression kernel deltas ----

void write_mst_dictionary(ByteWriter& writer, const MstDictionary& dict) {
  writer.write_varint(dict.size());
  writer.write_varint(dict.root());
  for (const MstEdge& edge : dict.edges()) {
    writer.write_varint(edge.parent);
    writer.write_varint(edge.delta);
  }
}

MstDictionary read_mst_dictionary(ByteReader& reader) {
  const std::uint64_t size = reader.read_varint();
  check(size >= 1 && size <= bnn::kNumSequences,
        reader.context(), ": implausible MST dictionary size (", size, ")");
  const std::uint64_t root = reader.read_varint();
  check(root < bnn::kNumSequences,
        reader.context(), ": MST dictionary root out of range");
  std::vector<MstEdge> edges;
  edges.reserve(static_cast<std::size_t>(size) - 1);
  for (std::uint64_t i = 1; i < size; ++i) {
    const std::uint64_t parent = reader.read_varint();
    check(parent < i,
          reader.context(), ": MST edge parent is not an earlier entry");
    const std::uint64_t delta = reader.read_varint();
    check(delta >= 1 && delta < bnn::kNumSequences,
          reader.context(), ": MST edge delta out of range");
    edges.push_back(MstEdge{.parent = static_cast<std::uint16_t>(parent),
                            .delta = static_cast<std::uint16_t>(delta)});
  }
  try {
    return MstDictionary::from_edges(static_cast<SeqId>(root),
                                     std::move(edges));
  } catch (const CheckError& e) {
    throw CheckError(reader.context() + ": " + e.what());
  }
}

class MstBlockCodec final : public BlockCodec {
 public:
  std::uint32_t id() const override { return kCodecMstDelta; }
  std::string_view name() const override { return "mst-delta"; }

  CompressedBlock compress_block(
      const std::string& name,
      const bnn::PackedKernel& kernel) const override {
    BlockReport report;
    report.block_name = name;

    const std::vector<SeqId> sequences = bnn::extract_sequences(kernel);
    const FrequencyTable table = FrequencyTable::from_sequences(sequences);
    report.num_sequences = table.total();
    report.distinct_sequences = table.distinct();
    report.top16_share = table.top_k_share(16);
    report.top64_share = table.top_k_share(64);
    report.top256_share = table.top_k_share(256);
    report.entropy_bits = table.entropy_bits();
    report.uncompressed_bits = table.total() * bnn::kSeqBits;

    const MstDictionary dictionary = MstDictionary::build(table);
    const unsigned width = dictionary.index_width();
    std::size_t bit_count = 0;
    std::vector<std::uint8_t> stream_bytes =
        mst_encode(sequences, dictionary, bit_count);

    // The codec is lossless and has no clustering pass, so both Table V
    // columns describe the same stream and the accuracy proxy is zero.
    report.encoding_bits = bit_count;
    report.clustering_bits = bit_count;
    const double ratio = static_cast<double>(report.uncompressed_bits) /
                         static_cast<double>(bit_count);
    report.encoding_ratio = ratio;
    report.clustering_ratio = ratio;
    report.flipped_bit_fraction = 0.0;
    report.replaced_sequences = 0;
    report.decode_table_bits = dictionary.table_bits();

    // Full-Huffman bound on the (unmodified) alphabet.
    const HuffmanCodec huffman = HuffmanCodec::build(table);
    report.huffman_ratio = huffman.compression_ratio(table);

    CompressedKernel compressed;
    compressed.out_channels = kernel.shape().out_channels;
    compressed.in_channels = kernel.shape().in_channels;
    compressed.stream = std::move(stream_bytes);
    compressed.stream_bits = bit_count;

    KernelCompression artifact{
        .codec_id = kCodecMstDelta,
        .frequencies = table,
        .coded_frequencies = table,  // no remap: identical tables
        .mst = dictionary,
        .compressed = std::move(compressed),
        .code_lengths = std::vector<std::uint8_t>(
            sequences.size(), static_cast<std::uint8_t>(width))};

    CompressedBlock block;
    block.encoding = artifact;
    block.clustered = std::move(artifact);
    block.clustered_kernel = kernel;  // lossless: the stream encodes it
    block.report = std::move(report);
    return block;
  }

  bnn::PackedKernel decode(const KernelCompression& stream) const override {
    const std::vector<SeqId> sequences = mst_decode(
        stream.compressed.stream, stream.compressed.stream_bits,
        stream.compressed.num_sequences(), stream.mst);
    return bnn::kernel_from_sequences(stream.compressed.out_channels,
                                      stream.compressed.in_channels,
                                      sequences);
  }

  void write_block(ByteWriter& writer,
                   const KernelCompression& stream) const override {
    check(stream.codec_id == kCodecMstDelta,
          "mst-delta write_block: artifact belongs to another codec");
    write_frequency_table(writer, stream.coded_frequencies);
    write_mst_dictionary(writer, stream.mst);
    write_compressed_kernel(writer, stream.compressed);
  }

  ParsedBlock read_block(ByteReader& reader) const override {
    ParsedBlock parsed;
    KernelCompression& artifact = parsed.artifact;
    artifact.codec_id = kCodecMstDelta;
    artifact.coded_frequencies = read_frequency_table(reader);
    check(artifact.coded_frequencies.total() > 0,
          reader.context(), ": MST block has an empty frequency table");
    artifact.frequencies = artifact.coded_frequencies;
    artifact.mst = read_mst_dictionary(reader);

    // The dictionary must describe exactly the observed alphabet — a
    // missing sequence could not have been encoded, an extra one pads
    // the index width for nothing (non-canonical).
    check(artifact.mst.size() == artifact.coded_frequencies.distinct(),
          reader.context(),
          ": MST dictionary size does not match the distinct sequence count");
    for (int s = 0; s < bnn::kNumSequences; ++s) {
      if (artifact.coded_frequencies.count(static_cast<SeqId>(s)) == 0) {
        continue;
      }
      check(artifact.mst.contains(static_cast<SeqId>(s)),
            reader.context(),
            ": frequency-table sequence missing from the MST dictionary");
    }

    const CompressedKernelRef ref = read_compressed_kernel_ref(reader);
    const auto count =
        static_cast<std::size_t>(ref.out_channels * ref.in_channels);
    check(artifact.coded_frequencies.total() == count,
          reader.context(),
          ": frequency total does not match the stream's sequence count");
    const unsigned width = artifact.mst.index_width();
    check(ref.stream_bits == count * width,
          reader.context(),
          ": stream bit count does not match the dictionary index width");
    artifact.compressed.out_channels = ref.out_channels;
    artifact.compressed.in_channels = ref.in_channels;
    artifact.compressed.stream_bits = ref.stream_bits;
    artifact.code_lengths.assign(count, static_cast<std::uint8_t>(width));
    parsed.stream = ref.stream;
    return parsed;
  }

  void verify_artifact(const KernelCompression& stream,
                       std::size_t index) const override {
    const std::vector<SeqId> decoded = mst_decode(
        stream.compressed.stream, stream.compressed.stream_bits,
        stream.compressed.num_sequences(), stream.mst);
    const auto observed = FrequencyTable::from_sequences(decoded);
    check(observed.counts() == stream.coded_frequencies.counts(),
          "verify: block ", index,
          ": decoded stream does not reproduce the stored frequency table "
          "(tampered stream?)");
    check(stream.frequencies.counts() == stream.coded_frequencies.counts(),
          "verify: block ", index,
          ": MST artifact tables differ (the codec never remaps)");
    check(stream.clustering.replacements().empty(),
          "verify: block ", index,
          ": MST artifact carries a non-identity remap");
  }
};

// ---- registry ----

const GroupedBlockCodec& grouped_default() {
  static const GroupedBlockCodec codec{GroupedTreeConfig::paper(),
                                       ClusteringConfig{}};
  return codec;
}

const MstBlockCodec& mst_default() {
  static const MstBlockCodec codec;
  return codec;
}

constexpr std::uint32_t kRegisteredIds[] = {kCodecGroupedHuffman,
                                            kCodecMstDelta};

}  // namespace

bool block_codec_registered(std::uint32_t id) {
  return id == kCodecGroupedHuffman || id == kCodecMstDelta;
}

const BlockCodec& codec_for(std::uint32_t id) {
  switch (id) {
    case kCodecGroupedHuffman:
      return grouped_default();
    case kCodecMstDelta:
      return mst_default();
    default:
      break;
  }
  std::string names;
  for (const std::uint32_t known : kRegisteredIds) {
    if (!names.empty()) names += ", ";
    names += std::to_string(known) + " " +
             std::string(codec_for(known).name());
  }
  throw CheckError("unregistered codec id " + std::to_string(id) +
                   " (registered: " + names + ")");
}

std::span<const std::uint32_t> registered_block_codecs() {
  return kRegisteredIds;
}

std::uint32_t block_codec_id(std::string_view name) {
  for (const std::uint32_t id : kRegisteredIds) {
    if (codec_for(id).name() == name) return id;
  }
  std::string names;
  for (const std::uint32_t id : kRegisteredIds) {
    if (!names.empty()) names += ", ";
    names += codec_for(id).name();
  }
  throw CheckError("unknown codec '" + std::string(name) +
                   "' (registered: " + names + ")");
}

std::shared_ptr<const BlockCodec> make_block_codec(
    std::uint32_t id, GroupedTreeConfig tree, ClusteringConfig clustering) {
  switch (id) {
    case kCodecGroupedHuffman:
      return std::make_shared<GroupedBlockCodec>(std::move(tree), clustering);
    case kCodecMstDelta:
      return std::make_shared<MstBlockCodec>();
    default:
      codec_for(id);  // throws the canonical unregistered-codec error
      unreachable("make_block_codec: codec_for accepted an id the factory "
                  "does not");
  }
}

bnn::PackedKernel decode_block(const KernelCompression& stream) {
  return codec_for(stream.codec_id).decode(stream);
}

}  // namespace bkc::compress
