// Corruption and truncation robustness of the BKCM reader,
// MappedBkcm::open (the one parser of container bytes; every
// Engine::load_compressed goes through it). Each case writes its image
// to a temp file and opens that.
//
// The contract under test: ANY structurally broken container — cut off
// at a section boundary or mid-field, flipped magic/version/flag/crc
// bytes, oversized section lengths, payload corruption — fails with
// CheckError whose message names the header or section at fault. Never
// a crash, never UB (the ASan/UBSan and TSan CI jobs run this suite).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "compress/serialize.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace bkc::compress {
namespace {

/// The engine behind the suite's valid container, compressed once.
const Engine& source_engine() {
  static const Engine engine = [] {
    Engine fresh(test::tiny_config(/*seed=*/37));
    fresh.compress();
    return fresh;
  }();
  return engine;
}

/// One valid tiny container, built once for the whole suite.
const std::vector<std::uint8_t>& valid_file() {
  static const std::vector<std::uint8_t> file = [] {
    const Engine& engine = source_engine();
    return write_bkcm(engine.options().clustering, engine.options().tree,
                      engine.options().clustering_config,
                      engine.model().config(), engine.report(),
                      engine.block_streams());
  }();
  return file;
}

const BkcmInfo& valid_info() {
  static const BkcmInfo info = inspect_bkcm(valid_file());
  return info;
}

/// MappedBkcm::open over a temp file holding `file`. The temp file is
/// removed before returning (or throwing); the parse owns its data.
MappedBkcm open_image(const std::vector<std::uint8_t>& file) {
  const std::string path = ::testing::TempDir() + "/bkc_robustness.bkcm";
  write_file_bytes(path, file);
  try {
    MappedBkcm mapped = MappedBkcm::open(path);
    std::remove(path.c_str());
    return mapped;
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
}

/// Opening `file` must throw CheckError whose message contains `needle`
/// (case-sensitive).
void expect_read_fails(const std::vector<std::uint8_t>& file,
                       const std::string& needle,
                       const std::string& what_case) {
  try {
    open_image(file);
    FAIL() << what_case << ": expected CheckError containing '" << needle
           << "', but the open succeeded";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << what_case << ": error was: " << e.what();
  }
}

std::vector<std::uint8_t> truncated(std::size_t size) {
  const auto& file = valid_file();
  return {file.begin(), file.begin() + static_cast<std::ptrdiff_t>(size)};
}

/// Recompute and patch the stored CRC of section `index` (for tests
/// that corrupt a payload and need the corruption to get PAST the
/// checksum, proving the parser itself is also hardened).
void fix_crc(std::vector<std::uint8_t>& file, std::size_t index) {
  const BkcmSection& section = valid_info().sections[index];
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(file).subspan(
          static_cast<std::size_t>(section.offset),
          static_cast<std::size_t>(section.length)));
  const std::size_t crc_offset = 16 + index * 24 + 20;
  for (int i = 0; i < 4; ++i) {
    file[crc_offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff);
  }
}

TEST(BkcmRobustness, ValidFileLoads) {
  const MappedBkcm mapped = open_image(valid_file());
  const std::vector<KernelCompression>& streams =
      source_engine().block_streams();
  ASSERT_EQ(mapped.blocks().size(), 13u);
  ASSERT_EQ(streams.size(), 13u);
  // The parser restores exactly the streams the encoder emitted.
  for (std::size_t b = 0; b < streams.size(); ++b) {
    const CompressedKernel& parsed = mapped.blocks()[b].artifact.compressed;
    EXPECT_EQ(parsed.stream_bits, streams[b].compressed.stream_bits)
        << "block " << b;
    EXPECT_EQ(parsed.stream, streams[b].compressed.stream) << "block " << b;
  }
}

TEST(BkcmRobustness, TruncationAtEverySectionBoundary) {
  // Boundaries: empty file, mid-fixed-header, end of fixed header,
  // end of section table / start of CONF, then each section start.
  std::vector<std::size_t> boundaries = {0, 10, 16};
  for (const BkcmSection& section : valid_info().sections) {
    boundaries.push_back(static_cast<std::size_t>(section.offset));
  }
  for (std::size_t boundary : boundaries) {
    expect_read_fails(truncated(boundary), "BKCM",
                      "truncated at " + std::to_string(boundary));
  }
}

TEST(BkcmRobustness, TruncationAtByteOffsetsNamesTheLostSection) {
  const auto& sections = valid_info().sections;
  // A byte into the section table.
  expect_read_fails(truncated(16 + 5), "BKCM header", "mid section table");
  // Mid-CONF: the CONF range no longer fits the file.
  expect_read_fails(
      truncated(static_cast<std::size_t>(sections[0].offset) + 7),
      "BKCM section 'CONF'", "mid CONF");
  // Mid-REPT and one byte short of the full file: the damaged section
  // is the one named.
  expect_read_fails(
      truncated(static_cast<std::size_t>(sections[1].offset +
                                         sections[1].length / 2)),
      "BKCM section 'REPT'", "mid REPT");
  // One byte short of the full file: the damaged section is the LAST
  // one — in v2 that is the 'CDCS' codec directory.
  expect_read_fails(truncated(valid_file().size() - 1),
                    "BKCM section 'CDCS'", "one byte short");
}

TEST(BkcmRobustness, BadMagicIsRejected) {
  auto file = valid_file();
  file[0] ^= 0xff;
  expect_read_fails(file, "bad magic", "flipped magic byte");
  expect_read_fails({}, "BKCM header", "empty file");
}

TEST(BkcmRobustness, UnsupportedVersionIsRejected) {
  auto file = valid_file();
  file[4] = 99;  // version field (this build reads 1..2)
  expect_read_fails(file, "unsupported version", "future version");
  file[4] = 0;  // below the supported range
  expect_read_fails(file, "unsupported version", "version zero");
}

TEST(BkcmRobustness, UnknownFlagBitsAreRejected) {
  auto file = valid_file();
  file[8] |= 0x80;  // flags field
  expect_read_fails(file, "unknown flag", "unknown flag bit");
}

TEST(BkcmRobustness, FlippedKnownFlagBitIsRejected) {
  // The clustering bit is a KNOWN flag, so it passes the unknown-bits
  // check — but it is mirrored inside the CRC-covered CONF section and
  // the cross-check catches the flip (the header itself has no
  // checksum; this closes the one semantic field that check leaves).
  auto file = valid_file();
  file[8] ^= 0x01;  // kBkcmFlagClustering
  expect_read_fails(file, "clustering flag does not match the header",
                    "flipped clustering flag bit");
}

TEST(BkcmRobustness, WrongSectionCountIsRejected) {
  // v2 allows optional sections, so the plausibility window is 3..16 —
  // below and above must both fail before any row is parsed.
  auto file = valid_file();
  file[12] = 2;  // section_count field
  expect_read_fails(file, "sections", "section count 2");
  file[12] = 200;
  expect_read_fails(file, "sections", "section count 200");
}

TEST(BkcmRobustness, V1ContainerRequiresExactlyThreeSections) {
  // A v1 header claiming a fourth section is structurally invalid even
  // though the same count is fine for v2.
  auto file = valid_file();
  file[4] = 1;  // version field
  file[12] = 4;
  expect_read_fails(file, "sections", "v1 with four sections");
}

TEST(BkcmRobustness, WrongSectionIdIsRejected) {
  auto file = valid_file();
  file[16] ^= 0x20;  // first byte of the CONF fourcc
  expect_read_fails(file, "section 0 must be 'CONF'", "renamed section");
}

TEST(BkcmRobustness, FlippedPayloadByteFailsTheNamedChecksum) {
  // One flip at the last payload byte and one mid-payload, per section.
  for (std::size_t s = 0; s < 3; ++s) {
    const BkcmSection& section = valid_info().sections[s];
    using Flip = std::pair<std::uint64_t, std::uint8_t>;
    for (const auto& [at, mask] :
         {Flip{section.offset + section.length - 1, 0x01},
          Flip{section.offset + section.length / 2, 0x10}}) {
      auto file = valid_file();
      file[static_cast<std::size_t>(at)] ^= mask;
      expect_read_fails(file,
                        "BKCM section '" + section.name +
                            "': checksum mismatch",
                        "payload flip at " + std::to_string(at) + " in " +
                            section.name);
    }
  }
}

TEST(BkcmRobustness, FlippedStoredCrcFailsTheNamedChecksum) {
  for (std::size_t s = 0; s < 3; ++s) {
    auto file = valid_file();
    file[16 + s * 24 + 20] ^= 0xff;  // crc field of section row s
    expect_read_fails(
        file,
        "BKCM section '" + valid_info().sections[s].name +
            "': checksum mismatch",
        "crc flip for section " + std::to_string(s));
  }
}

TEST(BkcmRobustness, OversizedSectionLengthIsRejectedByName) {
  for (std::size_t s = 0; s < 3; ++s) {
    auto file = valid_file();
    const std::size_t length_offset = 16 + s * 24 + 12;
    file[length_offset + 3] = 0x7f;  // blow up the u64 length field
    expect_read_fails(file,
                      "BKCM section '" + valid_info().sections[s].name + "'",
                      "oversized length for section " + std::to_string(s));
  }
}

TEST(BkcmRobustness, TrailingBytesAreRejected) {
  auto file = valid_file();
  file.push_back(0x00);
  expect_read_fails(file, "does not match the section table",
                    "one trailing byte");
}

TEST(BkcmRobustness, CorruptPayloadBehindAValidChecksumStillFailsCleanly) {
  // Even when an attacker (or a bug) recomputes the CRC, the parser
  // itself must reject nonsense with the section named.
  {
    auto file = valid_file();  // CONF: tree node count (after the
                               // clustering-mirror byte) -> 0
    file[static_cast<std::size_t>(valid_info().sections[0].offset) + 1] = 0;
    fix_crc(file, 0);
    expect_read_fails(file, "BKCM section 'CONF'", "zero tree nodes");
  }
  {
    auto file = valid_file();  // REPT: block count -> 0
    file[static_cast<std::size_t>(valid_info().sections[1].offset)] = 0;
    fix_crc(file, 1);
    expect_read_fails(file, "BKCM section 'REPT'", "zero report blocks");
  }
  {
    auto file = valid_file();  // BLKS: stream count -> 1 (model has 13)
    file[static_cast<std::size_t>(valid_info().sections[2].offset)] = 1;
    fix_crc(file, 2);
    expect_read_fails(file, "BKCM section 'BLKS'", "wrong stream count");
  }
}

// ---- v2 codec-id robustness ----
// A v2 'BLKS' block starts with a u32 codec id; a CRC-valid hostile
// container must not be able to select any codec but id 1, and the
// 'CDCS' directory must be exactly {1, "grouped-huffman"}.

/// Overwrite the first stream's codec-id word (it sits right after the
/// 1-byte varint stream count) and recompute the BLKS CRC so the
/// corruption gets past every structural gate.
std::vector<std::uint8_t> file_with_codec_id(std::uint32_t codec_id) {
  auto file = valid_file();
  const auto blks_offset =
      static_cast<std::size_t>(valid_info().sections[2].offset);
  for (int i = 0; i < 4; ++i) {
    file[blks_offset + 1 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((codec_id >> (8 * i)) & 0xff);
  }
  fix_crc(file, 2);
  return file;
}

TEST(BkcmRobustness, UnregisteredCodecIdBehindValidCrcIsRejected) {
  for (const std::uint32_t hostile : {0u, 2u, 99u, 0xffffffffu}) {
    expect_read_fails(file_with_codec_id(hostile), "unregistered codec",
                      "codec id " + std::to_string(hostile));
  }
}

TEST(BkcmRobustness, CorruptCodecDirectoryBehindValidCrcIsRejected) {
  // Flip the last byte of 'CDCS' (the tail of the codec name) and
  // recompute its CRC: the directory no longer names the codec.
  const BkcmSection& cdcs = valid_info().sections[3];
  ASSERT_EQ(cdcs.name, "CDCS");
  auto file = valid_file();
  file[static_cast<std::size_t>(cdcs.offset + cdcs.length - 1)] ^= 0x01;
  fix_crc(file, 3);
  expect_read_fails(file, "BKCM section 'CDCS'", "corrupt codec name");
}

TEST(BkcmRobustness, CorruptStreamBehindValidCrcIsRejected) {
  // Flip a bit INSIDE the last stream's payload and recompute the BLKS
  // CRC: the structural gates all pass, so the failure must come from
  // the parser itself — the prefix scan notices the stream no longer
  // consumes its declared bit count. (A flip can also leave the bit
  // budget intact — e.g. inside an index field — which is exactly why
  // classify-grade integrity needs the frequency cross-check of
  // `bkcm_tool verify`; the flip position below is chosen inside a
  // prefix-dense region so the scan does catch it.)
  const auto& blks = valid_info().sections[2];
  bool caught_any = false;
  // Try positions near the section end (stream bytes): a flip confined
  // to one codeword's index field keeps the budget intact, but across
  // 16 byte positions at least one flip lands on prefix bits and
  // derails the accounting.
  for (std::size_t back = 1; back <= 16 && !caught_any; ++back) {
    auto file = valid_file();
    file[static_cast<std::size_t>(blks.offset + blks.length - back)] ^= 0xff;
    fix_crc(file, 2);
    try {
      open_image(file);
    } catch (const CheckError& e) {
      caught_any = true;
      EXPECT_NE(std::string(e.what()).find("BKCM section 'BLKS'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(caught_any)
      << "no stream-byte flip near the section end derailed the scan";
}

TEST(BkcmRobustness, LoadCompressedPropagatesContainerErrors) {
  // The Engine-level entry point surfaces the same precise errors.
  const std::string path =
      ::testing::TempDir() + "/bkc_corrupt_container.bkcm";
  auto file = valid_file();
  file[static_cast<std::size_t>(valid_info().sections[2].offset) + 10] ^=
      0x55;
  write_file_bytes(path, file);
  try {
    Engine::load_compressed(path);
    FAIL() << "corrupt container must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("BKCM section 'BLKS'"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());

  try {
    Engine::load_compressed(::testing::TempDir() +
                            "/bkc_no_such_file.bkcm");
    FAIL() << "missing file must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
        << e.what();
  }
}

/// The what() of the CheckError `fn` throws ("" when none is thrown).
template <typename Fn>
std::string check_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(BkcmRobustness, DirectoryFailsAsTheFileReaderDoes) {
  // There is one file reader: the container parser and the engine load
  // fail on a directory with read_file_bytes' own CheckError.
  const std::string dir = ::testing::TempDir();
  const std::string expected = check_error_of([&] { read_file_bytes(dir); });
  EXPECT_TRUE(expected.ends_with(": not a regular file: " + dir)) << expected;
  EXPECT_EQ(check_error_of([&] { MappedBkcm::open(dir); }), expected);
  EXPECT_EQ(check_error_of([&] { Engine::load_compressed(dir); }), expected);
}

}  // namespace
}  // namespace bkc::compress
