// Unit tests for util/binary_io.h — the bounds-checked little-endian
// reader/writer underneath the BKCM container. Every reader failure
// must be a CheckError carrying the reader's context string (that is
// what turns a truncated model file into a diagnosable message instead
// of UB).

#include "util/binary_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace bkc {
namespace {

TEST(BinaryIo, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.write_u8(0xab);
  writer.write_u16(0x1234);
  writer.write_u32(0xdeadbeef);
  writer.write_u64(0x0123456789abcdefULL);
  writer.write_i64(-42);
  writer.write_f64(3.14159);
  const auto bytes = writer.take();

  ByteReader reader(bytes, "test");
  EXPECT_EQ(reader.read_u8(), 0xab);
  EXPECT_EQ(reader.read_u16(), 0x1234);
  EXPECT_EQ(reader.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_EQ(reader.read_f64(), 3.14159);
  reader.expect_exhausted();
}

TEST(BinaryIo, LittleEndianLayout) {
  ByteWriter writer;
  writer.write_u32(0x04030201);
  const auto bytes = writer.take();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x02);
  EXPECT_EQ(bytes[2], 0x03);
  EXPECT_EQ(bytes[3], 0x04);
}

TEST(BinaryIo, DoublesRoundTripBitExactly) {
  // Including values that naive text round trips mangle.
  for (double value :
       {0.0, -0.0, 1.0 / 3.0, 1e-300, 1e300,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min()}) {
    ByteWriter writer;
    writer.write_f64(value);
    const auto bytes = writer.take();
    ByteReader reader(bytes, "test");
    const double read = reader.read_f64();
    EXPECT_EQ(std::memcmp(&read, &value, sizeof(double)), 0) << value;
  }
}

TEST(BinaryIo, VarintRoundTripAndWidth) {
  const std::uint64_t values[] = {
      0, 1, 127, 128, 16383, 16384, 0xffffffffULL,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t value : values) {
    ByteWriter writer;
    writer.write_varint(value);
    const auto bytes = writer.take();
    if (value < 128) {
      EXPECT_EQ(bytes.size(), 1u) << value;
    }
    ByteReader reader(bytes, "test");
    EXPECT_EQ(reader.read_varint(), value);
    reader.expect_exhausted();
  }
}

TEST(BinaryIo, VarintRejectsOverlongAndOverflowingEncodings) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  ByteReader long_reader(overlong, "test");
  EXPECT_THROW(long_reader.read_varint(), CheckError);
  // 10 bytes whose last payload overflows bit 63.
  std::vector<std::uint8_t> overflow(10, 0x80);
  overflow[9] = 0x7f;
  ByteReader overflow_reader(overflow, "test");
  EXPECT_THROW(overflow_reader.read_varint(), CheckError);
}

TEST(BinaryIo, VarintRejectsNonMinimalEncodings) {
  // 0x85 0x00 decodes to 5 but the canonical form is 0x05; only one
  // byte form per value is accepted (the BKCM canonical-encoding
  // guarantee rests on this).
  const std::vector<std::uint8_t> padded = {0x85, 0x00};
  ByteReader padded_reader(padded, "test");
  EXPECT_THROW(padded_reader.read_varint(), CheckError);
  // A single 0x00 byte IS the canonical encoding of zero.
  const std::vector<std::uint8_t> zero = {0x00};
  ByteReader zero_reader(zero, "test");
  EXPECT_EQ(zero_reader.read_varint(), 0u);
}

TEST(BinaryIo, StringRoundTripAndLengthGuard) {
  ByteWriter writer;
  writer.write_string("block_03");
  writer.write_string("");
  const auto bytes = writer.take();
  ByteReader reader(bytes, "test");
  EXPECT_EQ(reader.read_string(), "block_03");
  EXPECT_EQ(reader.read_string(), "");
  reader.expect_exhausted();

  ByteWriter long_writer;
  long_writer.write_string("abcdef");
  const auto long_bytes = long_writer.take();
  ByteReader limited(long_bytes, "test");
  EXPECT_THROW(limited.read_string(/*max_length=*/3), CheckError);
}

TEST(BinaryIo, TruncationErrorsNameContextAndOffset) {
  ByteWriter writer;
  writer.write_u16(7);
  const auto bytes = writer.take();
  ByteReader reader(bytes, "BKCM section 'CONF'");
  reader.read_u8();
  try {
    reader.read_u32();
    FAIL() << "reading past the end must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("BKCM section 'CONF'"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
}

TEST(BinaryIo, ExpectExhaustedRejectsTrailingBytes) {
  ByteWriter writer;
  writer.write_u16(7);
  const auto bytes = writer.take();
  ByteReader reader(bytes, "test");
  reader.read_u8();
  EXPECT_THROW(reader.expect_exhausted(), CheckError);
}

TEST(BinaryIo, SubReaderIsBoundsCheckedAndCarriesItsOwnContext) {
  ByteWriter writer;
  writer.write_u32(0xaabbccdd);
  const auto bytes = writer.take();
  const ByteReader whole(bytes, "file");
  ByteReader sub = whole.sub(1, 2, "section");
  EXPECT_EQ(sub.read_u8(), 0xcc);
  EXPECT_EQ(sub.remaining(), 1u);
  EXPECT_THROW(whole.sub(2, 3, "section"), CheckError);
  EXPECT_THROW(whole.sub(5, 0, "section"), CheckError);
  // Offset + length overflow must not wrap around.
  EXPECT_THROW(
      whole.sub(1, std::numeric_limits<std::size_t>::max(), "section"),
      CheckError);
}

TEST(BinaryIo, Crc32MatchesTheIeeeReferenceVector) {
  // The canonical check value of the IEEE 802.3 / zlib polynomial.
  const std::string data = "123456789";
  const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(crc, 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(BinaryIo, FileRoundTripAndMissingFileError) {
  const std::string path =
      ::testing::TempDir() + "/bkc_binary_io_roundtrip.bin";
  const std::vector<std::uint8_t> payload = {0x00, 0xff, 0x42, 0x10};
  write_file_bytes(path, payload);
  EXPECT_EQ(read_file_bytes(path), payload);
  // An empty file reads as an empty buffer, not an error.
  write_file_bytes(path, std::vector<std::uint8_t>{});
  EXPECT_TRUE(read_file_bytes(path).empty());
  std::remove(path.c_str());
  try {
    read_file_bytes(path);
    FAIL() << "missing file must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(BinaryIo, ReadingADirectoryIsACheckErrorNamingThePath) {
  // A directory opens like a file; its size must not size the buffer.
  const std::string dir = ::testing::TempDir();
  try {
    read_file_bytes(dir);
    FAIL() << "reading a directory must throw";
  } catch (const CheckError& e) {
    EXPECT_TRUE(std::string(e.what()).ends_with(": not a regular file: " + dir))
        << e.what();
  }
}

}  // namespace
}  // namespace bkc
