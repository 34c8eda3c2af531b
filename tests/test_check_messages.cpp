// Exact error texts of the library's hostile-input and bad-argument
// checks. Robustness suites, the CLI and users' logs match on these
// strings, so each message family is pinned byte for byte here: one
// failing input per family, compared against the full `what()` text
// after the leading "<file>:<line>: " source-location prefix (the line
// moves whenever the code above it does; the text must not).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/bitpack.h"
#include "bnn/kernel_sequences.h"
#include "bnn/layers.h"
#include "bnn/memory_plan.h"
#include "compress/block_codec.h"
#include "compress/grouped_huffman.h"
#include "compress/model_view.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/cli.h"

namespace bkc {
namespace {

/// The `what()` text of the CheckError `fn` throws, minus its
/// "<file>:<line>: " prefix. Fails the test when nothing is thrown or
/// the prefix is missing.
std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    const std::string what = e.what();
    std::smatch match;
    static const std::regex prefix(R"(^[^:]+:[0-9]+: ([\s\S]*)$)");
    if (!std::regex_match(what, match, prefix)) {
      ADD_FAILURE() << "no file:line prefix in: " << what;
      return what;
    }
    return match[1].str();
  }
  ADD_FAILURE() << "expected a CheckError";
  return {};
}

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// ---- ByteReader ----

TEST(CheckMessages, ByteReaderTruncation) {
  const auto bytes = bytes_of({1, 2});
  EXPECT_EQ(message_of([&] {
              ByteReader reader(bytes, "pin");
              reader.read_u32();
            }),
            "pin: truncated: need 4 byte(s) at offset 0, have 2");
}

TEST(CheckMessages, ByteReaderVarintOverflow) {
  const auto bytes = bytes_of(
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02});
  EXPECT_EQ(message_of([&] {
              ByteReader reader(bytes, "pin");
              reader.read_varint();
            }),
            "pin: malformed varint (overflows 64 bits) ending at offset 10");
}

TEST(CheckMessages, ByteReaderNonMinimalVarint) {
  const auto bytes = bytes_of({0x85, 0x00});
  EXPECT_EQ(message_of([&] {
              ByteReader reader(bytes, "pin");
              reader.read_varint();
            }),
            "pin: non-minimal varint ending at offset 2");
}

TEST(CheckMessages, ByteReaderStringLimit) {
  ByteWriter writer;
  writer.write_string("hello");
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_EQ(message_of([&] {
              ByteReader reader(bytes, "pin");
              reader.read_string(3);
            }),
            "pin: string length 5 exceeds the limit of 3");
}

TEST(CheckMessages, ByteReaderSubRange) {
  const auto bytes = bytes_of({1, 2, 3, 4});
  EXPECT_EQ(message_of([&] {
              const ByteReader reader(bytes, "pin");
              reader.sub(2, 5, "SECT");
            }),
            "SECT: section range [2, 2 + 5) exceeds the file size of 4");
}

TEST(CheckMessages, ByteReaderTrailingBytes) {
  const auto bytes = bytes_of({1, 2, 3, 4});
  EXPECT_EQ(message_of([&] {
              ByteReader reader(bytes, "pin");
              reader.read_u8();
              reader.expect_exhausted();
            }),
            "pin: 3 trailing byte(s) after the last field");
}

// ---- compressed streams and containers ----

TEST(CheckMessages, ScanCodeLengthsMidCodeword) {
  // One 6-bit node-0 codeword, then nothing for the second.
  const auto stream = bytes_of({0x00});
  EXPECT_EQ(message_of([&] {
              compress::scan_code_lengths(
                  stream, 6, 2, compress::GroupedTreeConfig::paper());
            }),
            "scan_code_lengths: stream ends mid-codeword (sequence 1 of 2)");
  // Ending inside the index bits reports the same way.
  EXPECT_EQ(message_of([&] {
              compress::scan_code_lengths(
                  stream, 3, 1, compress::GroupedTreeConfig::paper());
            }),
            "scan_code_lengths: stream ends mid-codeword (sequence 0 of 1)");
}

TEST(CheckMessages, ScanCodeLengthsBitCountMismatch) {
  const auto stream = bytes_of({0x00, 0x00});
  EXPECT_EQ(message_of([&] {
              compress::scan_code_lengths(
                  stream, 12, 1, compress::GroupedTreeConfig::paper());
            }),
            "scan_code_lengths: 1 codewords consumed 6 bits, the stream "
            "declares 12");
}

TEST(CheckMessages, ReadChannelCount) {
  ByteWriter writer;
  writer.write_i64(0);
  writer.write_i64(-3);
  const std::vector<std::uint8_t> bytes = writer.take();
  ByteReader reader(bytes, "pin");
  EXPECT_EQ(message_of([&] {
              compress::read_channel_count(reader, "stream out_channels");
            }),
            "pin: implausible stream out_channels (0)");
  EXPECT_EQ(message_of([&] {
              compress::read_channel_count(reader, "block in_channels");
            }),
            "pin: implausible block in_channels (-3)");
}

TEST(CheckMessages, CompressedModelViewBlockCountMismatch) {
  EXPECT_EQ(message_of([] {
              compress::view_of({},
                                std::vector<compress::KernelCompression>(2));
            }),
            "CompressedModelView: 2 blocks for 0 3x3 binary convs in the op "
            "layout");
}

// ---- kernels and convolution ----

TEST(CheckMessages, SequenceAtNon3x3Kernel) {
  const bnn::PackedKernel kernel(KernelShape{2, 3, 1, 1});
  EXPECT_EQ(message_of([&] { bnn::sequence_at(kernel, 0, 0); }),
            "bit sequences are defined for 3x3 kernels, got 2x3x1x1");
}

TEST(CheckMessages, BinaryConvChannelMismatch) {
  const bnn::PackedFeature input(FeatureShape{3, 4, 4});
  const bnn::PackedKernel kernel(KernelShape{2, 5, 3, 3});
  EXPECT_EQ(message_of([&] {
              bnn::binary_conv2d(input, kernel, ConvGeometry{});
            }),
            "binary_conv2d: channel mismatch (3x4x4 vs 2x5x3x3)");
}

// ---- int8 head ----

TEST(CheckMessages, Int8NonFiniteValues) {
  // A NaN passes a plain max (std::max drops it) and an inf makes the
  // scale inf; either would reach the float-to-int8 cast as NaN, so
  // quantization names the first non-finite element instead.
  const KernelShape shape{1, 1, 1, 1};
  const bnn::Int8Conv2d conv("stem", WeightTensor(shape, {0.5f}), {0.0f},
                             ConvGeometry{});
  Tensor image(FeatureShape{1, 2, 4});
  image.data()[5] = std::numeric_limits<float>::quiet_NaN();
  bnn::Workspace workspace(bnn::MemoryPlan{.scratch_bytes = 4096});
  Tensor out(FeatureShape{1, 2, 4});
  EXPECT_EQ(message_of([&] { conv.forward_into(image, out, workspace); }),
            "Int8Conv2d input: int8 quantization needs finite values; "
            "element 5 is not finite");
  EXPECT_EQ(message_of([&] {
              bnn::Int8Conv2d(
                  "stem",
                  WeightTensor(shape,
                               {std::numeric_limits<float>::infinity()}),
                  {0.0f}, ConvGeometry{});
            }),
            "Int8Conv2d weights: int8 quantization needs finite values; "
            "element 0 is not finite");
  const bnn::Int8Linear fc("fc", 2, 1, {0.5f, 0.5f}, {0.0f});
  Tensor features(FeatureShape{2, 1, 1});
  features.data()[1] = -std::numeric_limits<float>::infinity();
  Tensor score(FeatureShape{1, 1, 1});
  EXPECT_EQ(message_of([&] { fc.forward_into(features, score, workspace); }),
            "Int8Linear input: int8 quantization needs finite values; "
            "element 1 is not finite");
  EXPECT_EQ(message_of([&] {
              bnn::Int8Linear("fc", 2, 1,
                              {0.5f, std::numeric_limits<float>::quiet_NaN()},
                              {0.0f});
            }),
            "Int8Linear weights: int8 quantization needs finite values; "
            "element 1 is not finite");
}

TEST(CheckMessages, Int8AccumulatorBound) {
  // taps * 127^2 must fit the kernels' int32 accumulators.
  EXPECT_EQ(message_of([] {
              bnn::Int8Conv2d("stem", WeightTensor(KernelShape{1, 14794, 3, 3}),
                              {0.0f}, ConvGeometry{});
            }),
            "Int8Conv2d: 133146 taps per output overflow int32 accumulation "
            "(max 133144)");
  EXPECT_EQ(message_of([] {
              bnn::Int8Linear("fc", 133145, 1,
                              std::vector<float>(133145, 0.0f), {0.0f});
            }),
            "Int8Linear: 133145 taps per output overflow int32 accumulation "
            "(max 133144)");
}

// ---- command-line flags ----

/// Runs `fn` over a mutable argv built from `args` (argv[0] included).
template <typename Fn>
void with_argv(std::vector<std::string> args, Fn fn) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  fn(static_cast<int>(argv.size()), argv.data());
}

std::string flag_message(std::vector<std::string> args) {
  std::string message;
  with_argv(std::move(args), [&](int argc, char** argv) {
    message = message_of([&] { flag_value(argc, argv, "--threads", 1); });
  });
  return message;
}

TEST(CheckMessages, CliFlagErrors) {
  EXPECT_EQ(flag_message({"prog", "--threads"}),
            "--threads requires a value");
  EXPECT_EQ(flag_message({"prog", "--threads="}),
            "--threads requires a value (got '--threads=')");
  EXPECT_EQ(flag_message({"prog", "--threads", "99999999999"}),
            "--threads: value '99999999999' is out of range");
  EXPECT_EQ(flag_message({"prog", "--threads=4abc"}),
            "--threads: malformed integer '4abc'");
  with_argv({"prog", "--out", "--tiny"}, [](int argc, char** argv) {
    EXPECT_EQ(message_of([&] {
                flag_string_value(argc, argv, "--out", "model.bkcm");
              }),
              "--out requires a value, got flag-like '--tiny'");
  });
  with_argv({"prog", "--threads", "-2"}, [](int argc, char** argv) {
    EXPECT_EQ(message_of([&] {
                positive_flag_value(argc, argv, "--threads", 1);
              }),
              "--threads: must be >= 1, got -2");
  });
}

}  // namespace
}  // namespace bkc
