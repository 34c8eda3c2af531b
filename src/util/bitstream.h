#pragma once
// Variable-length bit I/O.
//
// The compressed kernel format of the paper stores Huffman codewords
// back-to-back in memory "as a sequence of encoded words" (Sec IV-B).
// BitWriter/BitReader implement that stream: MSB-first within each byte,
// matching the way a hardware stream parser would shift bits out of its
// input buffer (Fig. 6). MSB-first order is required for prefix codes so
// that the first bits read are the top of the Huffman tree.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bkc {

/// Append-only bit sink. Bits are packed MSB-first: the first bit written
/// becomes the most significant bit of the first byte.
class BitWriter {
 public:
  BitWriter() = default;

  /// Append the `count` least-significant bits of `value`, most
  /// significant of those bits first. Preconditions: count <= 64, and all
  /// bits of `value` above `count` are zero.
  void write_bits(std::uint64_t value, unsigned count);

  /// Append a single bit (0 or 1).
  void write_bit(bool bit);

  /// Total number of bits written so far.
  std::size_t bit_size() const { return bit_size_; }

  /// Bytes needed to hold the stream (last byte zero-padded).
  std::size_t byte_size() const { return (bit_size_ + 7) / 8; }

  /// Finish and take the underlying buffer. The writer is left empty.
  std::vector<std::uint8_t> take();

  /// Read-only view of the bytes written so far.
  std::span<const std::uint8_t> bytes() const { return buffer_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t bit_size_ = 0;
};

/// Forward-only bit source over a borrowed byte buffer (MSB-first).
/// The buffer must outlive the reader.
class BitReader {
 public:
  /// View `bit_count` bits of `bytes`. Precondition:
  /// bit_count <= bytes.size() * 8.
  BitReader(std::span<const std::uint8_t> bytes, std::size_t bit_count);

  /// Convenience: read every bit of `bytes`.
  explicit BitReader(std::span<const std::uint8_t> bytes);

  /// Read `count` bits (MSB-first) into the low bits of the result.
  /// Precondition: count <= 64 and count <= remaining().
  std::uint64_t read_bits(unsigned count);

  /// Read one bit. Precondition: remaining() >= 1.
  bool read_bit();

  /// Skip `count` bits. Precondition: count <= remaining().
  void skip_bits(std::size_t count);

  /// Bits not yet consumed.
  std::size_t remaining() const { return bit_count_ - position_; }

  /// Absolute bit position from the start of the stream.
  std::size_t position() const { return position_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
  std::size_t position_ = 0;
};

}  // namespace bkc
