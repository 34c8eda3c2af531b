#pragma once
// The pluggable block-codec interface. A *block codec* owns the whole
// per-block compression story: the encode pass that turns a 3x3 binary
// kernel into stream + tables + report (ModelCompressor delegates its
// per-block work here), the decode back to the packed kernel, the
// per-block container payload (BKCM v2 stores a codec id per block and
// dispatches the payload bytes to the owning codec; MappedBkcm::open
// parses them in place), and the artifact
// cross-checks behind `bkcm_tool verify`.
//
// Two backends are registered:
//   id 1 "grouped-huffman" — the paper's scheme (simplified Huffman
//       tree + Hamming-1 clustering), the default. Byte-identical to
//       the pre-interface pipeline: its per-block payload IS the v1
//       layout, and its compress pass is the original single-pass body
//       (the instrumentation counters still pin one frequency count,
//       one clustering search and two codec builds per block).
//   id 2 "mst-delta" — MST-compression kernel deltas (arXiv
//       2308.13735, adapted): the block's distinct sequences become a
//       dictionary laid out as a minimum spanning tree over Hamming
//       distance, and the stream is fixed-width dictionary indices.
//
// Registering a new backend: claim the next id in
// compress/kernel_codec.h, implement BlockCodec, and add the instance
// to the registry table in block_codec.cpp. Everything downstream —
// serialization, engine load/save, hwsim, serving, tooling, the codec
// shoot-out bench — picks it up through the registry.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compress/pipeline.h"
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

/// Parsed CompressedKernel fields with the stream still borrowed from
/// the reader's buffer — the per-stream front end of every read_block.
struct CompressedKernelRef {
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::size_t stream_bits = 0;
  std::span<const std::uint8_t> stream;
};

CompressedKernelRef read_compressed_kernel_ref(ByteReader& reader);

/// One block artifact parsed from a container section (also
/// MappedBkcm::Block): the same KernelCompression fields
/// compress_block emits, since the artifact holds exactly what the
/// container stores. Everything except the stream bytes is owned;
/// `artifact.compressed.stream` is left EMPTY and the bytes stay
/// borrowed in `stream`, so parsing never copies a bitstream
/// (Engine::load_compressed copies them in when it takes ownership).
struct ParsedBlock {
  KernelCompression artifact;
  std::span<const std::uint8_t> stream;  ///< borrowed from the reader
};

/// The block-codec interface (see the file comment). Implementations
/// are stateless beyond their compression configuration, so one
/// instance can serve concurrent blocks.
class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  /// The on-disk codec id (compress/kernel_codec.h).
  virtual std::uint32_t id() const = 0;
  /// Stable human-readable name ("grouped-huffman", "mst-delta") —
  /// shown by `bkcm_tool info`, accepted by `bkcm_tool compress
  /// --codec`, stored in the v2 codec-directory section.
  virtual std::string_view name() const = 0;

  /// The full per-block encode pass, and the library's only kernel
  /// encoder: sequences -> stream + tables + report, plus the clustered
  /// kernel the `clustered` stream encodes. Must derive every report
  /// field from the emitted artifacts (the no-drift contract of the
  /// single-pass pipeline).
  virtual CompressedBlock compress_block(
      const std::string& name, const bnn::PackedKernel& kernel) const = 0;

  /// Decode the artifact's stream back to the channel-packed kernel it
  /// encodes — the only way from a stream back to a kernel. Lossless
  /// inverse of the stream emitted by compress_block (for the
  /// `clustered` column, CompressedBlock::clustered_kernel).
  virtual bnn::PackedKernel decode(const KernelCompression& stream) const = 0;

  /// Serialize the per-block container payload. The code lengths are
  /// not written: read_block recovers them from the stream.
  virtual void write_block(ByteWriter& writer,
                           const KernelCompression& stream) const = 0;

  /// Parse one per-block payload, validating every locally checkable
  /// invariant; CheckError (carrying the reader's context) otherwise.
  /// The returned artifact carries recovered code lengths; the stream
  /// bytes stay borrowed (see ParsedBlock).
  virtual ParsedBlock read_block(ByteReader& reader) const = 0;

  /// Deep artifact cross-checks for `bkcm_tool verify`: decode the
  /// stream and confirm it reproduces the stored statistics. CheckError
  /// (naming block `index`) on any mismatch.
  virtual void verify_artifact(const KernelCompression& stream,
                               std::size_t index) const = 0;
};

// ---- Registry ----

/// True when `id` names a registered codec.
bool block_codec_registered(std::uint32_t id);

/// The process-wide default-configuration instance for `id` — the
/// dispatch target of every decode/read/write/verify path (those are
/// independent of the compression configuration). CheckError on an
/// unregistered id: this is the gate that keeps a CRC-valid hostile v2
/// container from selecting a codec that does not exist.
const BlockCodec& codec_for(std::uint32_t id);

/// Registered codec ids, ascending. codec_for(id).name() gives the
/// display name.
std::span<const std::uint32_t> registered_block_codecs();

/// Codec id for a registry name (`bkcm_tool compress --codec`).
/// CheckError listing the registered names when `name` is unknown.
std::uint32_t block_codec_id(std::string_view name);

/// A codec instance carrying a specific compression configuration, for
/// ModelCompressor. (grouped-huffman uses both configs; mst-delta has
/// no tuning and ignores them.) CheckError on an unregistered id.
std::shared_ptr<const BlockCodec> make_block_codec(
    std::uint32_t id, GroupedTreeConfig tree, ClusteringConfig clustering);

/// Decode `stream` with the codec that produced it (dispatch on
/// `stream.codec_id` through the registry).
bnn::PackedKernel decode_block(const KernelCompression& stream);

}  // namespace bkc::compress
