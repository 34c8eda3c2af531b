#pragma once
// BKCM ("BNN Kernel-Compressed Model") — the on-disk container for a
// compressed model, v2 (v1 containers still load). This is the
// deployment artifact: the model ships as the per-block codec payloads
// (decode tables plus the compressed kernel streams —
// exactly what the Sec IV hardware decoder consumes), the clustering
// remap and frequency statistics, the model configuration needed to
// rebuild the uncompressed layers, and the compression report. The 3x3
// kernels themselves are NOT stored — the loader reconstructs them by
// decoding the streams (core/engine.h, Engine::load_compressed).
//
// File layout (everything little-endian, util/binary_io.h):
//
//   +--------------------------------------------------------------+
//   | magic "BKCM" | version u32 | flags u32 | section_count u32   |
//   +--------------------------------------------------------------+
//   | section table: id u32 | offset u64 | length u64 | crc32 u32  |
//   |   (one row per section, offsets absolute from file start)    |
//   +--------------------------------------------------------------+
//   | 'CONF' tree + clustering config, ReActNet model config       |
//   | 'REPT' ModelReport (doubles stored as IEEE-754 bit patterns) |
//   | 'BLKS' per-block payloads; v2 prefixes each with its codec id|
//   | 'CDCS' (v2) codec directory: {1, "grouped-huffman"}          |
//   +--------------------------------------------------------------+
//
// Version negotiation: a v1 container is strict — exactly the three
// core sections, in order, 'BLKS' implicitly grouped-huffman. A v2
// container starts with the same three core sections (each 'BLKS'
// block prefixed by the u32 codec id 1, the only id a reader accepts;
// compress/block_codec.h) and may append optional sections;
// a reader validates structure + CRC of every section but skips
// optional ids it does not know, so future minor additions stay
// readable. Both versions reject bad magic, an unknown flag bit, an
// unregistered codec id, a section range outside the file, a checksum
// mismatch, and trailing bytes — always with CheckError naming the
// offending section, never undefined behaviour
// (tests/test_bkcm_robustness.cpp). Any breaking layout change bumps
// kBkcmVersion; README.md ("On-disk format") states the compat policy.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bnn/reactnet.h"
#include "compress/block_codec.h"
#include "compress/kernel_codec.h"
#include "compress/model_view.h"
#include "compress/pipeline.h"
#include "util/binary_io.h"

namespace bkc::compress {

/// Four-character section/file tag packed little-endian (the first
/// character is the file's first byte).
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

inline constexpr std::uint32_t kBkcmMagic = fourcc('B', 'K', 'C', 'M');
/// The version this build writes. Readers accept [kBkcmMinVersion,
/// kBkcmVersion]; see the version-negotiation policy above.
inline constexpr std::uint32_t kBkcmVersion = 2;
inline constexpr std::uint32_t kBkcmMinVersion = 1;
/// flags bit 0: the engine that wrote the file ran the clustering pass
/// (the streams encode the clustered kernels).
inline constexpr std::uint32_t kBkcmFlagClustering = 1u << 0;

inline constexpr std::uint32_t kBkcmSectionConfig = fourcc('C', 'O', 'N', 'F');
inline constexpr std::uint32_t kBkcmSectionReport = fourcc('R', 'E', 'P', 'T');
inline constexpr std::uint32_t kBkcmSectionBlocks = fourcc('B', 'L', 'K', 'S');
/// v2 optional section: the codec directory — the (id, name) of the
/// codec every 'BLKS' block names, always {1, "grouped-huffman"}.
/// Redundant with the per-block ids by design: a reader checks it
/// against that one entry.
inline constexpr std::uint32_t kBkcmSectionCodecs = fourcc('C', 'D', 'C', 'S');

// ---- Per-struct serializers ----
// Each write_x/read_x pair is an exact inverse (locked down field by
// field in tests/test_serialize.cpp); readers validate every invariant
// they can check locally and fail with CheckError carrying the
// reader's context.

void write_tree_config(ByteWriter& writer, const GroupedTreeConfig& config);
GroupedTreeConfig read_tree_config(ByteReader& reader);

void write_clustering_config(ByteWriter& writer,
                             const ClusteringConfig& config);
ClusteringConfig read_clustering_config(ByteReader& reader);

void write_block_config(ByteWriter& writer, const bnn::BlockConfig& config);
bnn::BlockConfig read_block_config(ByteReader& reader);

void write_reactnet_config(ByteWriter& writer,
                           const bnn::ReActNetConfig& config);
bnn::ReActNetConfig read_reactnet_config(ByteReader& reader);

/// Sparse form: (id, count) pairs for the non-zero entries, ids
/// strictly ascending (the canonical order — a reader rejects anything
/// else, so every table has exactly one valid encoding).
void write_frequency_table(ByteWriter& writer, const FrequencyTable& table);
FrequencyTable read_frequency_table(ByteReader& reader);

/// The replacement list plus the total; the remap and the derived
/// counters are rebuilt via ClusteringResult::from_replacements.
void write_clustering_result(ByteWriter& writer,
                             const ClusteringResult& result);
ClusteringResult read_clustering_result(ByteReader& reader);

/// Tree config plus the per-node decode tables (the hardware scratchpad
/// banks); the codeword assignment is derived from the table positions.
void write_codec(ByteWriter& writer, const GroupedHuffmanCodec& codec);
GroupedHuffmanCodec read_codec(ByteReader& reader);

/// The stream header and bytes. The whole per-block payload is
/// write_block / read_block (compress/block_codec.h).
void write_compressed_kernel(ByteWriter& writer,
                             const CompressedKernel& kernel);
CompressedKernel read_compressed_kernel(ByteReader& reader);

void write_block_report(ByteWriter& writer, const BlockReport& report);
BlockReport read_block_report(ByteReader& reader);

void write_model_report(ByteWriter& writer, const ModelReport& report);
ModelReport read_model_report(ByteReader& reader);

// ---- Container ----

/// Serialize to a complete BKCM file image (header, section table,
/// checksummed sections). `streams` carries one KernelCompression per
/// basic block in model order; the kernels are not stored (the loader
/// rebuilds each one with decode_block).
/// Deterministic: the same parts always produce the same bytes (the
/// golden-file test pins this).
std::vector<std::uint8_t> write_bkcm(
    bool clustering, const GroupedTreeConfig& tree,
    const ClusteringConfig& clustering_config,
    const bnn::ReActNetConfig& model_config, const ModelReport& report,
    const std::vector<KernelCompression>& streams);

/// One validated row of the section table.
struct BkcmSection {
  std::string name;  ///< fourcc as text, e.g. "CONF"
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

/// Header summary for tooling (`bkcm_tool info`). Validates the header,
/// section table and checksums, but does not parse section payloads.
struct BkcmInfo {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t file_size = 0;
  std::vector<BkcmSection> sections;
};

BkcmInfo inspect_bkcm(std::span<const std::uint8_t> file);

// ---- Container parser ----

/// A parsed BKCM container. open() reads the file once, validates the
/// header, section table and CRCs, and parses every section into owned
/// storage: 'CONF', 'REPT' and one complete KernelCompression per
/// 'BLKS' block (stream bytes included, each stream checked by a
/// prefix-only scan). No kernel is decoded and no file buffer outlives
/// open(). `bkcm_tool speedup` runs the full CPU/decoder comparison
/// from these artifacts alone, and Engine::load_compressed decodes
/// them into a model.
///
/// Nothing is mapped: the name MappedBkcm and Block::stream stay only
/// because the benchmark harness (bkcbench/) uses both; they go in the
/// next change to the benchmark (ROADMAP item 6).
class MappedBkcm {
 public:
  /// One parsed 'BLKS' block. `stream` spans
  /// `artifact.compressed.stream` (see the class comment).
  struct Block {
    KernelCompression artifact;
    std::span<const std::uint8_t> stream;
  };

  /// Read `path` and parse it as described above — the one parser of
  /// container bytes. CheckError (naming the path, header or section at
  /// fault) on any I/O, structural, checksum or payload failure.
  static MappedBkcm open(const std::string& path);

  /// Move-only: a copied Block's `stream` would still span the source.
  MappedBkcm(MappedBkcm&&) = default;
  MappedBkcm& operator=(MappedBkcm&&) = default;
  MappedBkcm(const MappedBkcm&) = delete;
  MappedBkcm& operator=(const MappedBkcm&) = delete;

  const BkcmInfo& info() const { return info_; }
  bool clustering() const { return clustering_; }
  const GroupedTreeConfig& tree() const { return tree_; }
  const ClusteringConfig& clustering_config() const {
    return clustering_config_;
  }
  const bnn::ReActNetConfig& model_config() const { return model_config_; }
  const ModelReport& report() const { return report_; }
  const std::vector<Block>& blocks() const { return blocks_; }
  /// Move every block's artifact out, in block order, and leave
  /// blocks() empty (Engine::load_compressed keeps the artifacts
  /// without copying them).
  std::vector<KernelCompression> take_artifacts();

  /// The artifact view over the parsed blocks, paired with `ops` — the
  /// op-record layout of a model built from model_config() (op records
  /// depend only on the configuration, never on kernel contents, so any
  /// such model yields the same layout). The view borrows this object.
  CompressedModelView view(std::vector<bnn::OpRecord> ops) const;

 private:
  MappedBkcm() = default;

  BkcmInfo info_;
  bool clustering_ = true;
  GroupedTreeConfig tree_;
  ClusteringConfig clustering_config_;
  bnn::ReActNetConfig model_config_;
  ModelReport report_;
  std::vector<Block> blocks_;
};

}  // namespace bkc::compress
