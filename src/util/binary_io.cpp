#include "util/binary_io.h"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace bkc {

void ByteWriter::write_u8(std::uint8_t value) { buffer_.push_back(value); }

void ByteWriter::write_u16(std::uint16_t value) {
  write_u8(static_cast<std::uint8_t>(value & 0xff));
  write_u8(static_cast<std::uint8_t>(value >> 8));
}

void ByteWriter::write_u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    write_u8(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void ByteWriter::write_u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    write_u8(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void ByteWriter::write_i64(std::int64_t value) {
  write_u64(static_cast<std::uint64_t>(value));
}

void ByteWriter::write_f64(double value) {
  std::uint64_t pattern = 0;
  static_assert(sizeof(pattern) == sizeof(value));
  std::memcpy(&pattern, &value, sizeof(pattern));
  write_u64(pattern);
}

void ByteWriter::write_varint(std::uint64_t value) {
  while (value >= 0x80) {
    write_u8(static_cast<std::uint8_t>(value & 0x7f) | 0x80);
    value >>= 7;
  }
  write_u8(static_cast<std::uint8_t>(value));
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::write_string(std::string_view text) {
  write_varint(text.size());
  write_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::vector<std::uint8_t> ByteWriter::take() {
  std::vector<std::uint8_t> out = std::move(buffer_);
  buffer_.clear();
  return out;
}

ByteReader::ByteReader(std::span<const std::uint8_t> bytes,
                       std::string context)
    : bytes_(bytes), context_(std::move(context)) {}

void ByteReader::require(std::size_t count) const {
  check(count <= remaining(),
        context_, ": truncated: need ", count, " byte(s) at offset ", position_,
        ", have ", remaining());
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return bytes_[position_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  std::uint16_t value = 0;
  for (int i = 0; i < 2; ++i) {
    value = static_cast<std::uint16_t>(
        value | static_cast<std::uint16_t>(bytes_[position_++]) << (8 * i));
  }
  return value;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(bytes_[position_++]) << (8 * i);
  }
  return value;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(bytes_[position_++]) << (8 * i);
  }
  return value;
}

std::int64_t ByteReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double ByteReader::read_f64() {
  const std::uint64_t pattern = read_u64();
  double value = 0.0;
  std::memcpy(&value, &pattern, sizeof(value));
  return value;
}

std::uint64_t ByteReader::read_varint() {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = read_u8();
    const auto payload = static_cast<std::uint64_t>(byte & 0x7f);
    // The 10th byte (shift 63) may only contribute the last bit.
    check(shift < 63 || payload <= 1,
          context_, ": malformed varint (overflows 64 bits) ending at offset ",
          position_);
    value |= payload << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-minimal encodings (a terminating zero byte after a
      // continuation, e.g. 0x85 0x00 for 5): every value has exactly
      // one accepted byte form, which the canonical-encoding guarantees
      // of the BKCM readers rely on.
      check(byte != 0 || shift == 0,
            context_, ": non-minimal varint ending at offset ", position_);
      return value;
    }
  }
  throw CheckError(context_ + ": malformed varint (longer than 10 bytes) at "
                              "offset " +
                   std::to_string(position_));
}

std::vector<std::uint8_t> ByteReader::read_bytes(std::size_t count) {
  require(count);
  std::vector<std::uint8_t> out(bytes_.begin() +
                                    static_cast<std::ptrdiff_t>(position_),
                                bytes_.begin() +
                                    static_cast<std::ptrdiff_t>(position_ +
                                                                count));
  position_ += count;
  return out;
}

std::span<const std::uint8_t> ByteReader::read_span(std::size_t count) {
  require(count);
  const std::span<const std::uint8_t> out =
      bytes_.subspan(position_, count);
  position_ += count;
  return out;
}

std::string ByteReader::read_string(std::size_t max_length) {
  const std::uint64_t length = read_varint();
  check(length <= max_length,
        context_, ": string length ", length, " exceeds the limit of ",
        max_length);
  const std::vector<std::uint8_t> raw =
      read_bytes(static_cast<std::size_t>(length));
  return std::string(raw.begin(), raw.end());
}

ByteReader ByteReader::sub(std::size_t offset, std::size_t length,
                           std::string context) const {
  check(offset <= bytes_.size() && length <= bytes_.size() - offset,
        context, ": section range [", offset, ", ", offset, " + ", length,
        ") exceeds the file size of ", bytes_.size());
  return ByteReader(bytes_.subspan(offset, length), std::move(context));
}

void ByteReader::expect_exhausted() const {
  check(remaining() == 0,
        context_, ": ", remaining(), " trailing byte(s) after the last field");
}

namespace {

std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1) ? 0xedb88320u : 0u);
    }
    table[i] = value;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc32_table();
  std::uint32_t crc = 0xffffffffu;
  for (std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check(in.good(), "cannot open file for reading: ", path);
  // A directory opens like a file here, and its end offset sized the
  // buffer below (std::bad_alloc instead of a CheckError).
  std::error_code ec;
  check(std::filesystem::is_regular_file(path, ec),
        "not a regular file: ", path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  check(size >= 0, "cannot determine file size: ", path);
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
  }
  check(in.good(), "cannot read file: ", path);
  return bytes;
}

void write_file_bytes(const std::string& path,
                      std::span<const std::uint8_t> bytes) {
  // Stage into a sibling temp file and rename over the target, so a
  // process crash or failed write (disk full) cannot destroy an
  // existing good artifact at `path`. The temp name is unique per
  // process and call so concurrent saves to the same target never
  // interleave into one staging file. (No fsync: power-loss durability
  // is out of scope — the guarantee covers process-level failures.)
  static std::atomic<std::uint64_t> counter{0};
  const std::string temp_path =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    check(out.good(), "cannot open file for writing: ", temp_path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(temp_path.c_str());
      throw CheckError("cannot write file: " + temp_path);
    }
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    throw CheckError("cannot move written file into place: " + path);
  }
}

}  // namespace bkc
