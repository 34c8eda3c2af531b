#pragma once
// Bounds-checked byte-level I/O for on-disk artifacts (the BKCM model
// container, compress/serialize.h).
//
// Everything is explicit little-endian regardless of host byte order, so
// a container written on one machine loads on any other. ByteWriter is
// an append-only in-memory sink (sections are staged in memory and
// assembled into the final file image, which is how the section table
// learns its offsets before anything touches the filesystem). ByteReader
// walks a borrowed buffer with every read bounds-checked: a truncated or
// corrupt file fails with CheckError carrying the reader's context
// string (e.g. the section name) and the offending offset — never
// undefined behaviour.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace bkc {

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;

  void write_u8(std::uint8_t value);
  void write_u16(std::uint16_t value);
  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  /// Two's-complement via the u64 bit pattern.
  void write_i64(std::int64_t value);
  /// IEEE-754 bit pattern via u64 — doubles round-trip bit-exactly.
  void write_f64(double value);
  /// LEB128 (7 bits per byte, high bit = continue). 1 byte for values
  /// < 128; frequency counts and sizes are almost always small.
  void write_varint(std::uint64_t value);
  void write_bytes(std::span<const std::uint8_t> bytes);
  /// varint length + raw bytes.
  void write_string(std::string_view text);

  std::size_t size() const { return buffer_.size(); }
  std::span<const std::uint8_t> bytes() const { return buffer_; }
  /// Finish and take the buffer; the writer is left empty.
  std::vector<std::uint8_t> take();

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Forward-only bounds-checked little-endian reader over a borrowed
/// buffer (which must outlive the reader). Every read validates against
/// the buffer end first and fails with CheckError("<context>: ...");
/// `context` names what is being parsed so corruption reports point at
/// the right part of the file.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, std::string context);

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  /// LEB128; rejects encodings longer than 10 bytes or overflowing 64
  /// bits.
  std::uint64_t read_varint();
  /// Copy out `count` raw bytes.
  std::vector<std::uint8_t> read_bytes(std::size_t count);
  /// Borrow `count` raw bytes without copying: a subspan of the SAME
  /// underlying buffer, which must outlive every use of the result.
  /// This is the zero-copy path for bulk payloads (kernel bitstreams)
  /// when the buffer is a memory-mapped file (util/mmap_file.h).
  std::span<const std::uint8_t> read_span(std::size_t count);
  /// varint length + raw bytes. `max_length` guards against a corrupt
  /// length field requesting an absurd allocation.
  std::string read_string(std::size_t max_length = 4096);

  /// A reader over bytes [offset, offset + length) of the SAME buffer,
  /// with its own context; used to parse one section of a container.
  /// Bounds-checked against this reader's full buffer.
  ByteReader sub(std::size_t offset, std::size_t length,
                 std::string context) const;

  std::size_t position() const { return position_; }
  std::size_t remaining() const { return bytes_.size() - position_; }
  const std::string& context() const { return context_; }

  /// Fail unless every byte was consumed — trailing garbage in a
  /// section is corruption, not padding.
  void expect_exhausted() const;

 private:
  /// Fail unless `count` more bytes are available.
  void require(std::size_t count) const;

  std::span<const std::uint8_t> bytes_;
  std::string context_;
  std::size_t position_ = 0;
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) — the per-section checksum
/// of the BKCM container.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Read a whole file into memory. CheckError (naming the path) when the
/// file cannot be opened or read.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// Write a buffer to a file, replacing any existing content atomically
/// with respect to process failures: the bytes are staged into a
/// uniquely named sibling temp file and renamed over the target, so a
/// crash or disk-full mid-write never destroys an existing good file
/// and concurrent saves never interleave. (Power-loss durability —
/// fsync before rename — is deliberately out of scope.) CheckError
/// (naming the path) when the file cannot be created, written or moved
/// into place.
void write_file_bytes(const std::string& path,
                      std::span<const std::uint8_t> bytes);

}  // namespace bkc
