#include "compress/serialize.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "compress/block_codec.h"
#include "util/check.h"

namespace bkc::compress {

namespace {

/// The 'CDCS' directory name of kCodecGroupedHuffman.
constexpr std::string_view kCodecGroupedHuffmanName = "grouped-huffman";

/// A fourcc as error messages render it ("CONF", or hex for garbage);
/// passed to check() as an object so it is rendered only on failure.
struct FourCC {
  std::uint32_t id = 0;

  std::string to_string() const {
    std::string name;
    for (int shift = 0; shift < 32; shift += 8) {
      const char c = static_cast<char>((id >> shift) & 0xff);
      if (c < 0x20 || c > 0x7e) {
        char hex[16];
        std::snprintf(hex, sizeof(hex), "0x%08x", id);
        return hex;
      }
      name.push_back(c);
    }
    return name;
  }
};

}  // namespace

void write_tree_config(ByteWriter& writer, const GroupedTreeConfig& config) {
  writer.write_varint(static_cast<std::uint64_t>(config.index_bits.size()));
  for (int bits : config.index_bits) {
    writer.write_varint(static_cast<std::uint64_t>(bits));
  }
}

GroupedTreeConfig read_tree_config(ByteReader& reader) {
  const std::uint64_t count = reader.read_varint();
  check(count >= 1 && count <= 14,
        reader.context(), ": tree config needs 1..14 nodes, found ", count);
  GroupedTreeConfig config;
  config.index_bits.clear();
  for (std::uint64_t n = 0; n < count; ++n) {
    const std::uint64_t bits = reader.read_varint();
    check(bits <= 16,
          reader.context(), ": tree index width must be in [0, 16], found ",
          bits);
    config.index_bits.push_back(static_cast<int>(bits));
  }
  config.validate();
  return config;
}

void write_clustering_config(ByteWriter& writer,
                             const ClusteringConfig& config) {
  writer.write_varint(config.most_common);
  writer.write_varint(config.least_common);
  writer.write_varint(static_cast<std::uint64_t>(config.max_distance));
}

ClusteringConfig read_clustering_config(ByteReader& reader) {
  ClusteringConfig config;
  config.most_common = static_cast<std::size_t>(reader.read_varint());
  config.least_common = static_cast<std::size_t>(reader.read_varint());
  const std::uint64_t distance = reader.read_varint();
  check(distance >= 1 && distance <= bnn::kSeqBits,
        reader.context(), ": clustering max_distance must be in [1, 9], found ",
        distance);
  config.max_distance = static_cast<int>(distance);
  return config;
}

void write_block_config(ByteWriter& writer, const bnn::BlockConfig& config) {
  writer.write_i64(config.in_channels);
  writer.write_i64(config.out_channels);
  writer.write_i64(config.stride);
}

bnn::BlockConfig read_block_config(ByteReader& reader) {
  bnn::BlockConfig config;
  config.in_channels = read_channel_count(reader, "block in_channels");
  config.out_channels = read_channel_count(reader, "block out_channels");
  config.stride = reader.read_i64();
  check(config.stride == 1 || config.stride == 2,
        reader.context(), ": block stride must be 1 or 2, found ",
        config.stride);
  return config;
}

void write_reactnet_config(ByteWriter& writer,
                           const bnn::ReActNetConfig& config) {
  writer.write_i64(config.input_channels);
  writer.write_i64(config.input_size);
  writer.write_i64(config.stem_channels);
  writer.write_i64(config.stem_stride);
  writer.write_i64(config.num_classes);
  writer.write_varint(static_cast<std::uint64_t>(config.blocks.size()));
  for (const bnn::BlockConfig& block : config.blocks) {
    write_block_config(writer, block);
  }
  writer.write_u64(config.seed);
  writer.write_u8(config.calibrated_weights ? 1 : 0);
}

bnn::ReActNetConfig read_reactnet_config(ByteReader& reader) {
  bnn::ReActNetConfig config;
  // Every count is bounded, not just checked for sign: a CRC-valid but
  // hostile file must not be able to drive huge allocations (or signed
  // overflow in derived products) while the model is rebuilt.
  config.input_channels = read_channel_count(reader, "input_channels");
  config.input_size = reader.read_i64();
  check(config.input_size >= 1 && config.input_size <= 4096,
        reader.context(), ": implausible input_size (", config.input_size, ")");
  config.stem_channels = read_channel_count(reader, "stem_channels");
  check(config.stem_channels * config.input_channels * 9 <= kMaxModelUnits,
        reader.context(), ": implausible stem weight size");
  config.stem_stride = reader.read_i64();
  check(config.stem_stride >= 1 && config.stem_stride <= 16,
        reader.context(), ": implausible stem_stride (", config.stem_stride,
        ")");
  config.num_classes = reader.read_i64();
  check(config.num_classes >= 1 && config.num_classes <= (1 << 14),
        reader.context(), ": implausible num_classes (", config.num_classes,
        ")");
  const std::uint64_t num_blocks = reader.read_varint();
  check(num_blocks >= 1 && num_blocks <= 4096,
        reader.context(), ": implausible block count (", num_blocks, ")");
  config.blocks.clear();
  std::int64_t total_units = 0;
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    config.blocks.push_back(read_block_config(reader));
    // Channel counts are individually capped, so these products and the
    // running sum stay far below the int64 overflow line.
    const bnn::BlockConfig& block = config.blocks.back();
    total_units += block.in_channels *
                   std::max(block.in_channels, block.out_channels);
    check(total_units <= kMaxModelUnits,
          reader.context(), ": implausible total model size (blocks)");
  }
  check(config.num_classes * config.blocks.back().out_channels <=
            kMaxModelUnits,
        reader.context(), ": implausible classifier size");
  config.seed = reader.read_u64();
  const std::uint8_t calibrated = reader.read_u8();
  check(calibrated <= 1,
        reader.context(), ": calibrated_weights must be 0 or 1");
  config.calibrated_weights = calibrated == 1;
  return config;
}

void write_frequency_table(ByteWriter& writer, const FrequencyTable& table) {
  writer.write_varint(static_cast<std::uint64_t>(table.distinct()));
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    const std::uint64_t count = table.count(static_cast<SeqId>(s));
    if (count == 0) continue;
    writer.write_varint(static_cast<std::uint64_t>(s));
    writer.write_varint(count);
  }
}

FrequencyTable read_frequency_table(ByteReader& reader) {
  const std::uint64_t distinct = reader.read_varint();
  check(distinct <= bnn::kNumSequences,
        reader.context(), ": frequency table has ", distinct,
        " entries, the alphabet only ", bnn::kNumSequences);
  FrequencyTable table;
  std::int64_t previous = -1;
  // Cap the running total so hostile counts can neither wrap the
  // table's uint64 accumulator nor overflow downstream products
  // (count * code_length; code lengths are < 64 bits).
  constexpr std::uint64_t kMaxTotal =
      std::numeric_limits<std::uint64_t>::max() / 64;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < distinct; ++i) {
    const std::uint64_t id = reader.read_varint();
    check(id < bnn::kNumSequences,
          reader.context(), ": frequency entry id out of range");
    check(static_cast<std::int64_t>(id) > previous,
          reader.context(),
          ": frequency entries must be strictly ascending (non-canonical "
          "encoding)");
    previous = static_cast<std::int64_t>(id);
    const std::uint64_t count = reader.read_varint();
    check(count > 0, reader.context(), ": zero count in frequency table");
    check(count <= kMaxTotal - total,
          reader.context(),
          ": implausible frequency counts (the total would overflow)");
    total += count;
    table.add(static_cast<SeqId>(id), count);
  }
  return table;
}

void write_clustering_result(ByteWriter& writer,
                             const ClusteringResult& result) {
  writer.write_varint(
      static_cast<std::uint64_t>(result.replacements().size()));
  for (const Replacement& r : result.replacements()) {
    writer.write_varint(static_cast<std::uint64_t>(r.from));
    writer.write_varint(static_cast<std::uint64_t>(r.to));
    writer.write_varint(r.occurrences);
    writer.write_varint(static_cast<std::uint64_t>(r.distance));
  }
  writer.write_varint(result.total_occurrences());
}

ClusteringResult read_clustering_result(ByteReader& reader) {
  const std::uint64_t count = reader.read_varint();
  check(count <= bnn::kNumSequences,
        reader.context(), ": more replacements than sequences");
  std::vector<Replacement> replacements;
  replacements.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Replacement r;
    const std::uint64_t from = reader.read_varint();
    const std::uint64_t to = reader.read_varint();
    check(from < bnn::kNumSequences && to < bnn::kNumSequences,
          reader.context(), ": replacement sequence id out of range");
    r.from = static_cast<SeqId>(from);
    r.to = static_cast<SeqId>(to);
    r.occurrences = reader.read_varint();
    const std::uint64_t distance = reader.read_varint();
    check(distance >= 1 && distance <= bnn::kSeqBits,
          reader.context(), ": replacement distance must be in [1, 9]");
    r.distance = static_cast<int>(distance);
    replacements.push_back(r);
  }
  const std::uint64_t total = reader.read_varint();
  try {
    return ClusteringResult::from_replacements(std::move(replacements),
                                               total);
  } catch (const CheckError& e) {
    throw CheckError(reader.context() + ": " + e.what());
  }
}

void write_codec(ByteWriter& writer, const GroupedHuffmanCodec& codec) {
  write_tree_config(writer, codec.config());
  for (int n = 0; n < codec.config().num_nodes(); ++n) {
    const std::span<const SeqId> table = codec.uncompressed_table(n);
    writer.write_varint(static_cast<std::uint64_t>(table.size()));
    for (SeqId s : table) {
      writer.write_varint(static_cast<std::uint64_t>(s));
    }
  }
}

GroupedHuffmanCodec read_codec(ByteReader& reader) {
  GroupedTreeConfig config = read_tree_config(reader);
  std::vector<std::vector<SeqId>> tables;
  tables.reserve(static_cast<std::size_t>(config.num_nodes()));
  for (int n = 0; n < config.num_nodes(); ++n) {
    const std::uint64_t occupancy = reader.read_varint();
    check(occupancy <= config.capacity(n),
          reader.context(), ": decode table overflows node ", n, " (occupancy ",
          occupancy, ", capacity ", config.capacity(n), ")");
    std::vector<SeqId> table;
    table.reserve(static_cast<std::size_t>(occupancy));
    for (std::uint64_t i = 0; i < occupancy; ++i) {
      const std::uint64_t id = reader.read_varint();
      check(id < bnn::kNumSequences,
            reader.context(), ": decode-table sequence id out of range");
      table.push_back(static_cast<SeqId>(id));
    }
    tables.push_back(std::move(table));
  }
  try {
    return GroupedHuffmanCodec(std::move(config), std::move(tables));
  } catch (const CheckError& e) {
    throw CheckError(reader.context() + ": " + e.what());
  }
}

void write_compressed_kernel(ByteWriter& writer,
                             const CompressedKernel& kernel) {
  check(kernel.stream.size() == (kernel.stream_bits + 7) / 8,
        "write_compressed_kernel: stream byte count does not match "
        "stream_bits");
  writer.write_i64(kernel.out_channels);
  writer.write_i64(kernel.in_channels);
  writer.write_varint(kernel.stream_bits);
  writer.write_bytes(kernel.stream);
}

CompressedKernel read_compressed_kernel(ByteReader& reader) {
  CompressedKernel kernel;
  kernel.out_channels = read_channel_count(reader, "stream out_channels");
  kernel.in_channels = read_channel_count(reader, "stream in_channels");
  check(kernel.out_channels * kernel.in_channels <= kMaxModelUnits,
        reader.context(), ": implausible stream kernel size");
  const std::uint64_t stream_bits = reader.read_varint();
  check(stream_bits <= std::numeric_limits<std::size_t>::max() - 7,
        reader.context(), ": implausible stream bit count");
  kernel.stream_bits = static_cast<std::size_t>(stream_bits);
  kernel.stream = reader.read_bytes((kernel.stream_bits + 7) / 8);
  return kernel;
}

void write_block_report(ByteWriter& writer, const BlockReport& report) {
  writer.write_string(report.block_name);
  writer.write_varint(report.num_sequences);
  writer.write_varint(report.distinct_sequences);
  writer.write_f64(report.top16_share);
  writer.write_f64(report.top64_share);
  writer.write_f64(report.top256_share);
  writer.write_f64(report.entropy_bits);
  writer.write_varint(report.uncompressed_bits);
  writer.write_varint(report.encoding_bits);
  writer.write_varint(report.clustering_bits);
  writer.write_f64(report.encoding_ratio);
  writer.write_f64(report.clustering_ratio);
  writer.write_f64(report.huffman_ratio);
  writer.write_varint(report.node_shares_encoding.size());
  for (double share : report.node_shares_encoding) writer.write_f64(share);
  writer.write_varint(report.node_shares_clustering.size());
  for (double share : report.node_shares_clustering) writer.write_f64(share);
  writer.write_f64(report.flipped_bit_fraction);
  writer.write_varint(report.replaced_sequences);
  writer.write_varint(report.decode_table_bits);
}

namespace {

std::vector<double> read_node_shares(ByteReader& reader) {
  const std::uint64_t count = reader.read_varint();
  check(count <= 14, reader.context(), ": implausible node-share count");
  std::vector<double> shares;
  shares.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    shares.push_back(reader.read_f64());
  }
  return shares;
}

}  // namespace

BlockReport read_block_report(ByteReader& reader) {
  BlockReport report;
  report.block_name = reader.read_string(/*max_length=*/256);
  report.num_sequences = reader.read_varint();
  report.distinct_sequences =
      static_cast<std::size_t>(reader.read_varint());
  report.top16_share = reader.read_f64();
  report.top64_share = reader.read_f64();
  report.top256_share = reader.read_f64();
  report.entropy_bits = reader.read_f64();
  report.uncompressed_bits = reader.read_varint();
  report.encoding_bits = reader.read_varint();
  report.clustering_bits = reader.read_varint();
  report.encoding_ratio = reader.read_f64();
  report.clustering_ratio = reader.read_f64();
  report.huffman_ratio = reader.read_f64();
  report.node_shares_encoding = read_node_shares(reader);
  report.node_shares_clustering = read_node_shares(reader);
  report.flipped_bit_fraction = reader.read_f64();
  report.replaced_sequences =
      static_cast<std::size_t>(reader.read_varint());
  report.decode_table_bits = reader.read_varint();
  return report;
}

void write_model_report(ByteWriter& writer, const ModelReport& report) {
  writer.write_varint(report.blocks.size());
  for (const BlockReport& block : report.blocks) {
    write_block_report(writer, block);
  }
  writer.write_varint(report.model_bits);
  writer.write_varint(report.conv3x3_bits);
  writer.write_varint(report.conv3x3_encoding_bits);
  writer.write_varint(report.conv3x3_clustering_bits);
  writer.write_varint(report.decode_table_bits);
  writer.write_f64(report.mean_encoding_ratio);
  writer.write_f64(report.mean_clustering_ratio);
  writer.write_f64(report.model_ratio);
  writer.write_f64(report.model_ratio_with_tables);
}

ModelReport read_model_report(ByteReader& reader) {
  const std::uint64_t num_blocks = reader.read_varint();
  check(num_blocks >= 1 && num_blocks <= 4096,
        reader.context(), ": implausible report block count (", num_blocks,
        ")");
  ModelReport report;
  report.blocks.reserve(static_cast<std::size_t>(num_blocks));
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    report.blocks.push_back(read_block_report(reader));
  }
  report.model_bits = reader.read_varint();
  report.conv3x3_bits = reader.read_varint();
  report.conv3x3_encoding_bits = reader.read_varint();
  report.conv3x3_clustering_bits = reader.read_varint();
  report.decode_table_bits = reader.read_varint();
  report.mean_encoding_ratio = reader.read_f64();
  report.mean_clustering_ratio = reader.read_f64();
  report.model_ratio = reader.read_f64();
  report.model_ratio_with_tables = reader.read_f64();
  return report;
}

namespace {

constexpr std::size_t kHeaderFixedBytes = 16;   // magic/version/flags/count
constexpr std::size_t kSectionRowBytes = 24;    // id/offset/length/crc
/// The mandatory leading sections of every version.
constexpr int kNumCoreSections = 3;
/// Plausibility cap on a v2 section count: 3 core + up to 13 optional
/// sections is far beyond anything defined today, and it bounds the
/// header walk a hostile count can request.
constexpr std::uint32_t kMaxSections = 16;

const std::uint32_t kSectionOrder[kNumCoreSections] = {
    kBkcmSectionConfig, kBkcmSectionReport, kBkcmSectionBlocks};

}  // namespace

std::vector<std::uint8_t> write_bkcm(
    bool clustering, const GroupedTreeConfig& tree,
    const ClusteringConfig& clustering_config,
    const bnn::ReActNetConfig& model_config, const ModelReport& report,
    const std::vector<KernelCompression>& streams) {
  check(!streams.empty(), "write_bkcm: no compressed streams");
  check(streams.size() == model_config.blocks.size(),
        "write_bkcm: stream count does not match the model's block count");
  check(report.blocks.size() == streams.size(),
        "write_bkcm: report block count does not match the stream count");

  ByteWriter conf;
  // The clustering flag is the one semantic field of the fixed header,
  // which no checksum covers (magic/version/count/ids are constants and
  // offsets/lengths must tile the file exactly, so any other header
  // flip is caught structurally). Mirroring it here puts it under the
  // CONF CRC; MappedBkcm::open rejects a mismatch.
  conf.write_u8(clustering ? 1 : 0);
  write_tree_config(conf, tree);
  write_clustering_config(conf, clustering_config);
  write_reactnet_config(conf, model_config);

  ByteWriter rept;
  write_model_report(rept, report);

  // BLKS, v2: each block payload behind its codec-id word.
  ByteWriter blks;
  blks.write_varint(streams.size());
  for (const KernelCompression& stream : streams) {
    blks.write_u32(kCodecGroupedHuffman);
    write_block(blks, stream);
  }

  // CDCS: the codec directory, the one codec every block names.
  ByteWriter cdcs;
  cdcs.write_varint(1);
  cdcs.write_u32(kCodecGroupedHuffman);
  cdcs.write_string(kCodecGroupedHuffmanName);

  constexpr int kNumWritten = kNumCoreSections + 1;
  const ByteWriter* payloads[kNumWritten] = {&conf, &rept, &blks, &cdcs};
  const std::uint32_t ids[kNumWritten] = {
      kBkcmSectionConfig, kBkcmSectionReport, kBkcmSectionBlocks,
      kBkcmSectionCodecs};

  ByteWriter file;
  file.write_u32(kBkcmMagic);
  file.write_u32(kBkcmVersion);
  file.write_u32(clustering ? kBkcmFlagClustering : 0);
  file.write_u32(kNumWritten);
  std::uint64_t offset = kHeaderFixedBytes + kNumWritten * kSectionRowBytes;
  for (int s = 0; s < kNumWritten; ++s) {
    file.write_u32(ids[s]);
    file.write_u64(offset);
    file.write_u64(payloads[s]->size());
    file.write_u32(crc32(payloads[s]->bytes()));
    offset += payloads[s]->size();
  }
  for (const ByteWriter* payload : payloads) {
    file.write_bytes(payload->bytes());
  }
  return file.take();
}

BkcmInfo inspect_bkcm(std::span<const std::uint8_t> file) {
  ByteReader header(file, "BKCM header");
  const std::uint32_t magic = header.read_u32();
  check(magic == kBkcmMagic,
        "BKCM header: bad magic ", FourCC{magic}, " (not a BKCM file)");
  BkcmInfo info;
  info.file_size = file.size();
  info.version = header.read_u32();
  check(info.version >= kBkcmMinVersion && info.version <= kBkcmVersion,
        "BKCM header: unsupported version ", info.version,
        " (this build reads versions ", kBkcmMinVersion, "..", kBkcmVersion,
        ")");
  info.flags = header.read_u32();
  check((info.flags & ~kBkcmFlagClustering) == 0,
        "BKCM header: unknown flag bits set");
  const std::uint32_t section_count = header.read_u32();
  if (info.version == 1) {
    // v1 is strict: exactly the three core sections.
    check(section_count == kNumCoreSections,
          "BKCM header: expected ", kNumCoreSections, " sections, found ",
          section_count);
  } else {
    // v2: the three core sections plus bounded optional sections.
    check(section_count >= kNumCoreSections && section_count <= kMaxSections,
          "BKCM header: implausible section count ", section_count,
          " (expected ", kNumCoreSections, "..", kMaxSections, " sections)");
  }

  std::vector<std::uint32_t> seen_ids;
  std::uint64_t expected_offset =
      kHeaderFixedBytes +
      static_cast<std::uint64_t>(section_count) * kSectionRowBytes;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    BkcmSection section;
    const std::uint32_t id = header.read_u32();
    if (s < kNumCoreSections) {
      check(id == kSectionOrder[s],
            "BKCM header: section ", s, " must be '",
            FourCC{kSectionOrder[s]}, "', found '", FourCC{id}, "'");
    } else {
      // Optional sections: any id that is not a core section and does
      // not repeat. Unknown ids are structurally validated (range,
      // checksum, contiguity) and skipped by the parsers.
      for (const std::uint32_t core : kSectionOrder) {
        check(id != core,
              "BKCM header: optional section duplicates core section '",
              FourCC{core}, "'");
      }
      check(std::find(seen_ids.begin(), seen_ids.end(), id) ==
                seen_ids.end(),
            "BKCM header: duplicate optional section '", FourCC{id}, "'");
      seen_ids.push_back(id);
    }
    section.name = FourCC{id}.to_string();
    section.offset = header.read_u64();
    section.length = header.read_u64();
    section.crc = header.read_u32();
    check(section.offset == expected_offset,
          "BKCM section '", section.name, "': offset ", section.offset,
          " does not follow the previous section (expected ", expected_offset,
          ")");
    check(section.offset <= file.size() &&
              section.length <= file.size() - section.offset,
          "BKCM section '", section.name,
          "': extends past the end of the file (truncated or oversized "
          "length)");
    const std::uint32_t actual_crc = crc32(file.subspan(
        static_cast<std::size_t>(section.offset),
        static_cast<std::size_t>(section.length)));
    check(actual_crc == section.crc,
          "BKCM section '", section.name, "': checksum mismatch (file corrupt)");
    expected_offset += section.length;
    info.sections.push_back(std::move(section));
  }
  check(expected_offset == file.size(),
        "BKCM: file size ", file.size(),
        " does not match the section table (expected ", expected_offset, ")");
  return info;
}

namespace {

ByteReader bkcm_section_reader(const ByteReader& whole, const BkcmInfo& info,
                               std::size_t index) {
  const BkcmSection& section = info.sections[index];
  return whole.sub(static_cast<std::size_t>(section.offset),
                   static_cast<std::size_t>(section.length),
                   "BKCM section '" + section.name + "'");
}

/// Validate one 'CDCS' codec-directory payload: every v2 block names
/// the one codec, so the directory is exactly {1, "grouped-huffman"}.
void validate_codecs_section(ByteReader cdcs) {
  const std::uint64_t count = cdcs.read_varint();
  check(count == 1,
        cdcs.context(), ": directory lists ", count,
        " codecs, 'BLKS' uses 1");
  const std::uint32_t id = cdcs.read_u32();
  check(id == kCodecGroupedHuffman,
        cdcs.context(),
        ": directory does not match the codecs used by 'BLKS'");
  const std::string name = cdcs.read_string(/*max_length=*/64);
  check(name == kCodecGroupedHuffmanName,
        cdcs.context(), ": codec ", id, " name '", name,
        "' does not match the registered codec");
  cdcs.expect_exhausted();
}

}  // namespace

MappedBkcm MappedBkcm::open(const std::string& path) {
  MappedBkcm out;
  // Every parsed piece is copied out of `file`, which is dropped on
  // return: the result owns its artifacts and holds no file buffer.
  const std::vector<std::uint8_t> file = read_file_bytes(path);
  out.info_ = inspect_bkcm(file);
  const BkcmInfo& info = out.info_;
  const ByteReader whole(file, "BKCM");

  ByteReader conf = bkcm_section_reader(whole, info, 0);
  const std::uint8_t clustering_mirror = conf.read_u8();
  check(clustering_mirror <= 1,
        conf.context(), ": clustering flag must be 0 or 1");
  out.clustering_ = clustering_mirror == 1;
  check(out.clustering_ == ((info.flags & kBkcmFlagClustering) != 0),
        conf.context(),
        ": clustering flag does not match the header flags word (corrupt "
        "header)");
  out.tree_ = read_tree_config(conf);
  out.clustering_config_ = read_clustering_config(conf);
  out.model_config_ = read_reactnet_config(conf);
  conf.expect_exhausted();

  ByteReader rept = bkcm_section_reader(whole, info, 1);
  out.report_ = read_model_report(rept);
  rept.expect_exhausted();

  // BLKS: every block becomes a complete artifact (stream bytes copied
  // out, code lengths recovered by one prefix-only scan). No kernel
  // decode.
  ByteReader blks = bkcm_section_reader(whole, info, 2);
  const std::uint64_t num_streams = blks.read_varint();
  check(num_streams == out.model_config_.blocks.size(),
        blks.context(), ": stream count ", num_streams,
        " does not match the model's ", out.model_config_.blocks.size(),
        " blocks");
  out.blocks_.reserve(static_cast<std::size_t>(num_streams));
  for (std::uint64_t b = 0; b < num_streams; ++b) {
    // v2 prefixes every block payload with its codec id; v1 blocks
    // carry none. This gate keeps a CRC-valid hostile container from
    // selecting a codec that does not exist.
    if (info.version >= 2) {
      const std::uint32_t codec_id = blks.read_u32();
      check(codec_id == kCodecGroupedHuffman,
            blks.context(), ": stream ", b, " selects unregistered codec id ",
            codec_id);
    }
    KernelCompression artifact = read_block(blks);
    // Every stream codec must use the container's tree config (the
    // writer always emits them identical); a mismatch means CONF and
    // BLKS describe different formats — same standard as the mirrored
    // clustering flag.
    check(artifact.codec.config().index_bits == out.tree_.index_bits,
          blks.context(), ": stream ", b,
          " codec tree config does not match the 'CONF' section");
    Block& block = out.blocks_.emplace_back(std::move(artifact));
    block.stream = block.artifact.compressed.stream;
  }
  blks.expect_exhausted();

  check(out.report_.blocks.size() == out.blocks_.size(),
        "BKCM section 'REPT': report covers ", out.report_.blocks.size(),
        " blocks, the container holds ", out.blocks_.size(), " streams");

  // Optional sections: 'CDCS' is validated, unknown ids are skipped
  // (their structure and checksum were already checked by
  // inspect_bkcm).
  for (std::size_t s = kNumCoreSections; s < info.sections.size(); ++s) {
    if (info.sections[s].name == "CDCS") {
      validate_codecs_section(bkcm_section_reader(whole, info, s));
    }
  }
  return out;
}

CompressedModelView MappedBkcm::view(std::vector<bnn::OpRecord> ops) const {
  std::vector<std::reference_wrapper<const KernelCompression>> artifacts;
  artifacts.reserve(blocks_.size());
  for (const Block& block : blocks_) artifacts.emplace_back(block.artifact);
  return view_of(std::move(ops), std::move(artifacts));
}

std::vector<KernelCompression> MappedBkcm::take_artifacts() {
  std::vector<KernelCompression> artifacts;
  artifacts.reserve(blocks_.size());
  for (Block& block : blocks_) artifacts.push_back(std::move(block.artifact));
  blocks_.clear();
  return artifacts;
}

}  // namespace bkc::compress
