#include "compress/grouped_huffman.h"

#include "compress/instrumentation.h"
#include "util/check.h"

namespace bkc::compress {

int GroupedTreeConfig::prefix_length(int node) const {
  check(node >= 0 && node < num_nodes(), "GroupedTreeConfig: bad node");
  // Unary prefixes 0, 10, 110, ...; the last node reuses the all-ones
  // prefix without a terminating zero.
  return node == num_nodes() - 1 ? num_nodes() - 1 : node + 1;
}

int GroupedTreeConfig::code_length(int node) const {
  return prefix_length(node) +
         index_bits[static_cast<std::size_t>(node)];
}

std::uint64_t GroupedTreeConfig::capacity(int node) const {
  check(node >= 0 && node < num_nodes(), "GroupedTreeConfig: bad node");
  return 1ULL << index_bits[static_cast<std::size_t>(node)];
}

std::uint64_t GroupedTreeConfig::total_capacity() const {
  std::uint64_t total = 0;
  for (int n = 0; n < num_nodes(); ++n) total += capacity(n);
  return total;
}

void GroupedTreeConfig::validate() const {
  check(num_nodes() >= 1 && num_nodes() <= 14,
        "GroupedTreeConfig: need 1..14 nodes");
  for (int bits : index_bits) {
    check(bits >= 0 && bits <= 16,
          "GroupedTreeConfig: index width must be in [0, 16]");
  }
}

GroupedTreeConfig GroupedTreeConfig::paper() { return {}; }

GroupedTreeConfig GroupedTreeConfig::fixed9() {
  return {.index_bits = {bnn::kSeqBits}};
}

GroupedHuffmanCodec::GroupedHuffmanCodec() {
  node_.fill(-1);
  tables_.resize(static_cast<std::size_t>(config_.num_nodes()));
}

GroupedHuffmanCodec::GroupedHuffmanCodec(const FrequencyTable& table,
                                         GroupedTreeConfig config)
    : config_(std::move(config)) {
  internal::count_grouped_codec_build();
  config_.validate();
  node_.fill(-1);
  tables_.resize(static_cast<std::size_t>(config_.num_nodes()));
  for (int n = 0; n < config_.num_nodes(); ++n) {
    tables_[static_cast<std::size_t>(n)].reserve(
        static_cast<std::size_t>(config_.capacity(n)));
  }

  // Fill nodes in rank order: most frequent sequences get the shortest
  // codes (node 0), exactly like assigning them to the shallowest
  // Huffman tree node in Fig. 4.
  int node = 0;
  for (SeqId s : table.ranked()) {
    while (node < config_.num_nodes() &&
           tables_[static_cast<std::size_t>(node)].size() ==
               config_.capacity(node)) {
      ++node;
    }
    if (node == config_.num_nodes()) {
      check(table.count(s) == 0,
            "GroupedHuffmanCodec: tree capacity too small for the "
            "observed alphabet");
      break;  // remaining sequences all have zero count
    }
    node_[s] = static_cast<std::int8_t>(node);
    index_[s] = static_cast<std::uint16_t>(
        tables_[static_cast<std::size_t>(node)].size());
    tables_[static_cast<std::size_t>(node)].push_back(s);
  }
}

GroupedHuffmanCodec::GroupedHuffmanCodec(GroupedTreeConfig config,
                                         std::vector<std::vector<SeqId>> tables)
    : config_(std::move(config)), tables_(std::move(tables)) {
  config_.validate();
  check(tables_.size() == static_cast<std::size_t>(config_.num_nodes()),
        "GroupedHuffmanCodec: decode-table count does not match the tree "
        "config");
  node_.fill(-1);
  for (int n = 0; n < config_.num_nodes(); ++n) {
    const auto& table = tables_[static_cast<std::size_t>(n)];
    check(table.size() <= config_.capacity(n),
          "GroupedHuffmanCodec: decode table overflows its node capacity");
    for (std::size_t i = 0; i < table.size(); ++i) {
      const SeqId s = table[i];
      check(s < bnn::kNumSequences,
            "GroupedHuffmanCodec: decode-table sequence id out of range");
      check(node_[s] < 0,
            "GroupedHuffmanCodec: sequence assigned to two codewords");
      node_[s] = static_cast<std::int8_t>(n);
      index_[s] = static_cast<std::uint16_t>(i);
    }
  }
}

bool GroupedHuffmanCodec::has_code(SeqId s) const {
  check(s < bnn::kNumSequences, "GroupedHuffmanCodec: id out of range");
  return node_[s] >= 0;
}

int GroupedHuffmanCodec::node_of(SeqId s) const {
  check(has_code(s), "GroupedHuffmanCodec: sequence has no codeword");
  return node_[s];
}

unsigned GroupedHuffmanCodec::index_of(SeqId s) const {
  check(has_code(s), "GroupedHuffmanCodec: sequence has no codeword");
  return index_[s];
}

unsigned GroupedHuffmanCodec::code_length(SeqId s) const {
  return static_cast<unsigned>(config_.code_length(node_of(s)));
}

void GroupedHuffmanCodec::encode_one(BitWriter& writer, SeqId s) const {
  const int node = node_of(s);
  const int prefix_len = config_.prefix_length(node);
  if (prefix_len > 0) {
    // `node` ones, then a zero unless this is the all-ones prefix.
    const bool last = node == config_.num_nodes() - 1;
    const std::uint64_t ones = (1ULL << prefix_len) - 1;
    const std::uint64_t prefix = last ? ones : (ones - 1);
    writer.write_bits(prefix, static_cast<unsigned>(prefix_len));
  }
  writer.write_bits(index_[s],
                    static_cast<unsigned>(
                        config_.index_bits[static_cast<std::size_t>(node)]));
}

SeqId GroupedHuffmanCodec::decode_one(BitReader& reader) const {
  // Count leading ones to find the node (the stream parser of Fig. 6).
  int node = 0;
  while (node < config_.num_nodes() - 1 && reader.read_bit()) ++node;
  const auto width = static_cast<unsigned>(
      config_.index_bits[static_cast<std::size_t>(node)]);
  const auto index = static_cast<std::size_t>(reader.read_bits(width));
  const auto& table = tables_[static_cast<std::size_t>(node)];
  check(index < table.size(),
        "GroupedHuffmanCodec: corrupt stream (index beyond table)");
  return table[index];
}

std::vector<std::uint8_t> GroupedHuffmanCodec::encode(
    std::span<const SeqId> sequences, std::size_t& bit_count) const {
  BitWriter writer;
  for (SeqId s : sequences) encode_one(writer, s);
  bit_count = writer.bit_size();
  return writer.take();
}

std::vector<SeqId> GroupedHuffmanCodec::decode(
    std::span<const std::uint8_t> stream, std::size_t bit_count,
    std::size_t count) const {
  BitReader reader(stream, bit_count);
  std::vector<SeqId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(decode_one(reader));
  return out;
}

std::span<const SeqId> GroupedHuffmanCodec::uncompressed_table(
    int node) const {
  check(node >= 0 && node < config_.num_nodes(),
        "GroupedHuffmanCodec: bad node");
  return tables_[static_cast<std::size_t>(node)];
}

std::size_t GroupedHuffmanCodec::node_occupancy(int node) const {
  return uncompressed_table(node).size();
}

double GroupedHuffmanCodec::node_share(int node,
                                       const FrequencyTable& table) const {
  check(table.total() > 0, "GroupedHuffmanCodec: empty table");
  std::uint64_t sum = 0;
  for (SeqId s : uncompressed_table(node)) sum += table.count(s);
  return static_cast<double>(sum) / static_cast<double>(table.total());
}

std::uint64_t GroupedHuffmanCodec::encoded_bits(
    const FrequencyTable& table) const {
  std::uint64_t bits = 0;
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    const std::uint64_t c = table.count(static_cast<SeqId>(s));
    if (c > 0) bits += c * code_length(static_cast<SeqId>(s));
  }
  return bits;
}

double GroupedHuffmanCodec::compression_ratio(
    const FrequencyTable& table) const {
  const std::uint64_t plain =
      table.total() * static_cast<std::uint64_t>(bnn::kSeqBits);
  const std::uint64_t coded = encoded_bits(table);
  check(coded > 0, "GroupedHuffmanCodec: empty stream");
  return static_cast<double>(plain) / static_cast<double>(coded);
}

std::uint64_t GroupedHuffmanCodec::table_bits() const {
  std::uint64_t bits = 0;
  for (const auto& table : tables_) {
    bits += static_cast<std::uint64_t>(table.size()) * bnn::kSeqBits;
  }
  // Length table: one 4-bit width per node.
  bits += static_cast<std::uint64_t>(config_.num_nodes()) * 4;
  return bits;
}

std::vector<std::uint8_t> scan_code_lengths(
    std::span<const std::uint8_t> stream, std::size_t bit_count,
    std::size_t count, const GroupedTreeConfig& config) {
  config.validate();
  check(bit_count <= stream.size() * 8,
        "scan_code_lengths: bit count exceeds the stream buffer");
  BitReader reader(stream, bit_count);
  std::vector<std::uint8_t> lengths;
  lengths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // The node prefix alone fixes the codeword length; the index bits
    // carry no length information and are skipped unread.
    int node = 0;
    while (node < config.num_nodes() - 1) {
      check(reader.remaining() >= 1,
            "scan_code_lengths: stream ends mid-codeword (sequence ", i, " of ",
            count, ")");
      if (!reader.read_bit()) break;
      ++node;
    }
    const auto index_bits = static_cast<std::size_t>(
        config.index_bits[static_cast<std::size_t>(node)]);
    check(reader.remaining() >= index_bits,
          "scan_code_lengths: stream ends mid-codeword (sequence ", i, " of ",
          count, ")");
    reader.skip_bits(index_bits);
    lengths.push_back(static_cast<std::uint8_t>(config.code_length(node)));
  }
  check(reader.remaining() == 0,
        "scan_code_lengths: ", count, " codewords consumed ", reader.position(),
        " bits, the stream declares ", bit_count);
  return lengths;
}

}  // namespace bkc::compress
