#pragma once
// The block codec: the paper's per-block compression scheme (Sec III),
// a simplified Huffman tree over the block's 9-bit sequences after the
// Hamming-1 clustering pass. It owns the whole per-block story: the
// encode pass that turns a 3x3 binary kernel into stream + tables +
// report (ModelCompressor runs it once per block), the decode back to
// the packed kernel, the per-block container payload (the v1 block
// layout; BKCM v2 stores it behind codec id 1, kCodecGroupedHuffman,
// and MappedBkcm::open parses it back), and the artifact cross-checks
// behind `bkcm_tool verify`.
//
// The encode pass is the single-pass body: the instrumentation
// counters pin one frequency count, one clustering search and two
// codec builds per block.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bnn/bitpack.h"
#include "compress/kernel_codec.h"
#include "util/binary_io.h"

namespace bkc::compress {

/// Channel counts beyond this are a corrupt file, not a model (the
/// paper's largest block is 1024 channels). Shared plausibility bound
/// of every container read path.
inline constexpr std::int64_t kMaxChannels = 1 << 13;

/// Bound on every weight-tensor element count derivable from a
/// container (per 3x3 kernel and summed across blocks, stem,
/// classifier). ~6x above the paper model's total; rebuilding a loaded
/// model allocates at most this many weights per tensor class, so a
/// CRC-valid hostile file cannot drive multi-GB allocations during
/// Engine::load_compressed.
inline constexpr std::int64_t kMaxModelUnits = 1 << 25;

/// Read an int64 channel count and reject implausible values.
std::int64_t read_channel_count(ByteReader& reader, const char* what);

/// Everything measured about one basic block's 3x3 kernel. Every field
/// is derived from the block's CompressedBlock artifacts.
struct BlockReport {
  std::string block_name;
  std::uint64_t num_sequences = 0;     ///< channel count (O*I)
  std::size_t distinct_sequences = 0;  ///< unique bit sequences observed
  double top16_share = 0.0;            ///< Fig. 3 aggregate
  double top64_share = 0.0;            ///< Table II column 1
  double top256_share = 0.0;           ///< Table II column 2
  double entropy_bits = 0.0;           ///< optimal bits/sequence bound

  std::uint64_t uncompressed_bits = 0;
  std::uint64_t encoding_bits = 0;   ///< grouped tree, no clustering
  std::uint64_t clustering_bits = 0; ///< grouped tree after clustering
  double encoding_ratio = 0.0;       ///< Table V column "Encoding"
  double clustering_ratio = 0.0;     ///< Table V column "Clustering"
  double huffman_ratio = 0.0;        ///< full-Huffman upper bound

  /// Frequency share landing on each tree node (the paper quotes
  /// 46/24/23/5% before and 65/25/8/0.6% after clustering).
  std::vector<double> node_shares_encoding;
  std::vector<double> node_shares_clustering;

  /// Accuracy proxy: fraction of kernel weight bits flipped.
  double flipped_bit_fraction = 0.0;
  std::size_t replaced_sequences = 0;  ///< distinct sequences removed

  /// Decode-table storage of the clustered codec for this block.
  std::uint64_t decode_table_bits = 0;
};

/// One basic block's complete pass outcome: both stream artifacts
/// (Table V's two columns), the one kernel the pass builds, plus the
/// report derived from them. Carrying both columns costs one extra
/// codec/stream copy per block at peak versus a single-artifact
/// layout — accepted so that every consumer (report, deploy, verify,
/// hwsim) reads from the same pass.
struct CompressedBlock {
  KernelCompression encoding;   ///< stream over the original kernel
  KernelCompression clustered;  ///< stream over `clustered_kernel`
  /// The kernel the clustered stream encodes — what Engine::compress
  /// installs when clustering is on. decode_block(clustered) equals it
  /// bit-exactly.
  bnn::PackedKernel clustered_kernel;
  BlockReport report;  ///< derived from the two artifacts
};

/// The per-block encoder under one tree and clustering configuration.
/// Stateless beyond that configuration, so one instance can serve
/// concurrent blocks.
class BlockCodec {
 public:
  explicit BlockCodec(GroupedTreeConfig tree = GroupedTreeConfig::paper(),
                      ClusteringConfig clustering = {});

  /// The full per-block encode pass, and the library's only kernel
  /// encoder: sequences -> stream + tables + report, plus the clustered
  /// kernel the `clustered` stream encodes. Derives every report field
  /// from the emitted artifacts (the no-drift contract of the
  /// single-pass pipeline).
  CompressedBlock compress_block(const std::string& name,
                                 const bnn::PackedKernel& kernel) const;

  const GroupedTreeConfig& tree() const { return tree_; }
  const ClusteringConfig& clustering() const { return clustering_; }

 private:
  GroupedTreeConfig tree_;
  ClusteringConfig clustering_;
};

/// Decode the artifact's stream back to the channel-packed kernel it
/// encodes — the only way from a stream back to a kernel. Lossless
/// inverse of the stream emitted by compress_block (for the
/// `clustered` column, CompressedBlock::clustered_kernel).
bnn::PackedKernel decode_block(const KernelCompression& stream);

/// Serialize the per-block container payload (the v1 block layout,
/// and the v2 payload behind its codec-id word).
void write_block(ByteWriter& writer, const KernelCompression& stream);

/// Parse one per-block payload, validating every locally checkable
/// invariant (including a prefix scan that the stream holds exactly
/// its codewords); CheckError (carrying the reader's context)
/// otherwise. The returned artifact is complete: it owns its stream
/// bytes, exactly the KernelCompression compress_block emitted.
KernelCompression read_block(ByteReader& reader);

/// Deep artifact cross-checks for `bkcm_tool verify`: decode the
/// stream and confirm it reproduces the stored statistics. CheckError
/// (naming block `index`) on any mismatch.
void verify_artifact(const KernelCompression& stream, std::size_t index);

/// The codec for `id` under `tree` and `clustering`; CheckError for
/// any id but kCodecGroupedHuffman. Kept only because the benchmark
/// harness (bkcbench/) calls it; it goes, together with
/// EngineOptions::codec_id, in the next change to the benchmark
/// (ROADMAP item 6). Everything else constructs BlockCodec directly.
std::unique_ptr<const BlockCodec> make_block_codec(
    std::uint32_t id, GroupedTreeConfig tree, ClusteringConfig clustering);

}  // namespace bkc::compress
