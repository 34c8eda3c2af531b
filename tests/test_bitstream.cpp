// Unit and property tests for the MSB-first variable-length bit stream.

#include "util/bitstream.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/support.h"
#include "util/check.h"
#include "util/rng.h"

namespace bkc {
namespace {

TEST(BitWriter, EmptyStream) {
  BitWriter writer;
  EXPECT_EQ(writer.bit_size(), 0u);
  EXPECT_EQ(writer.byte_size(), 0u);
  EXPECT_TRUE(writer.take().empty());
}

TEST(BitWriter, SingleBitsPackMsbFirst) {
  BitWriter writer;
  writer.write_bit(true);
  writer.write_bit(false);
  writer.write_bit(true);
  EXPECT_EQ(writer.bit_size(), 3u);
  EXPECT_EQ(writer.byte_size(), 1u);
  const auto bytes = writer.take();
  // 101 in the top bits: 1010'0000.
  EXPECT_EQ(bytes[0], 0xA0);
}

TEST(BitWriter, MultiBitValueSpansBytes) {
  BitWriter writer;
  writer.write_bits(0x1FF, 9);  // nine ones
  writer.write_bits(0, 7);
  const auto bytes = writer.take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0x80);
}

TEST(BitWriter, RejectsValueWiderThanCount) {
  BitWriter writer;
  EXPECT_THROW(writer.write_bits(0x4, 2), CheckError);
}

TEST(BitWriter, RejectsCountOver64) {
  BitWriter writer;
  EXPECT_THROW(writer.write_bits(0, 65), CheckError);
}

TEST(BitWriter, Write64BitValue) {
  BitWriter writer;
  writer.write_bits(0xDEADBEEFCAFEBABEULL, 64);
  BitReader reader(writer.bytes());
  EXPECT_EQ(reader.read_bits(64), 0xDEADBEEFCAFEBABEULL);
}

TEST(BitReader, ReadPastEndThrows) {
  const std::vector<std::uint8_t> bytes{0xFF};
  BitReader reader(bytes, 3);
  reader.read_bits(3);
  EXPECT_THROW(reader.read_bit(), CheckError);
}

TEST(BitReader, BitCountBeyondBufferThrows) {
  const std::vector<std::uint8_t> bytes{0xFF};
  EXPECT_THROW(BitReader(bytes, 9), CheckError);
}

TEST(BitReader, SkipAdvances) {
  const std::vector<std::uint8_t> bytes{0x0F, 0xF0};
  BitReader reader(bytes);
  reader.skip_bits(4);
  EXPECT_EQ(reader.read_bits(8), 0xFFu);
  EXPECT_EQ(reader.remaining(), 4u);
}

// Property: any sequence of (value, width) writes reads back identically.
class BitstreamRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitstreamRoundtrip, RandomFieldsRoundtrip) {
  Rng rng(GetParam());
  const int count = 200 + static_cast<int>(rng.below(200));
  const auto fields = test::random_bit_fields(rng, count);
  test::expect_bits_roundtrip(fields);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitstreamRoundtrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bkc
