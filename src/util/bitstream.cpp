#include "util/bitstream.h"

#include "util/check.h"

namespace bkc {

void BitWriter::write_bits(std::uint64_t value, unsigned count) {
  check(count <= 64, "write_bits: count must be <= 64");
  if (count < 64) {
    check((value >> count) == 0,
          "write_bits: value has bits set above `count`");
  }
  // Emit MSB-first, filling partial bytes from the high end.
  for (unsigned emitted = 0; emitted < count;) {
    const unsigned bit_in_byte = bit_size_ % 8;
    if (bit_in_byte == 0) buffer_.push_back(0);
    const unsigned room = 8 - bit_in_byte;
    const unsigned todo = count - emitted;
    const unsigned chunk = room < todo ? room : todo;
    // The next `chunk` bits of `value`, counting from its MSB side.
    const std::uint64_t shifted = value >> (todo - chunk);
    const auto bits =
        static_cast<std::uint8_t>(shifted & ((1ULL << chunk) - 1));
    buffer_.back() |= static_cast<std::uint8_t>(bits << (room - chunk));
    bit_size_ += chunk;
    emitted += chunk;
  }
}

void BitWriter::write_bit(bool bit) { write_bits(bit ? 1 : 0, 1); }

std::vector<std::uint8_t> BitWriter::take() {
  bit_size_ = 0;
  return std::move(buffer_);
}

BitReader::BitReader(std::span<const std::uint8_t> bytes,
                     std::size_t bit_count)
    : bytes_(bytes), bit_count_(bit_count) {
  check(bit_count <= bytes.size() * 8,
        "BitReader: bit_count exceeds the buffer");
}

BitReader::BitReader(std::span<const std::uint8_t> bytes)
    : BitReader(bytes, bytes.size() * 8) {}

std::uint64_t BitReader::read_bits(unsigned count) {
  check(count <= 64, "read_bits: count must be <= 64");
  check(count <= remaining(), "read_bits: past end of stream");
  std::uint64_t result = 0;
  unsigned taken = 0;
  while (taken < count) {
    const std::size_t byte_index = position_ / 8;
    const unsigned bit_in_byte = position_ % 8;
    const unsigned avail = 8 - bit_in_byte;
    const unsigned todo = count - taken;
    const unsigned chunk = avail < todo ? avail : todo;
    const std::uint8_t byte = bytes_[byte_index];
    const std::uint8_t bits = static_cast<std::uint8_t>(
        (byte >> (avail - chunk)) & ((1u << chunk) - 1));
    result = (result << chunk) | bits;
    position_ += chunk;
    taken += chunk;
  }
  return result;
}

bool BitReader::read_bit() { return read_bits(1) != 0; }

void BitReader::skip_bits(std::size_t count) {
  check(count <= remaining(), "skip_bits: past end of stream");
  position_ += count;
}

}  // namespace bkc
