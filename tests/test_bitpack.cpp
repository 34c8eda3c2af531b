// Tests for channel packing (Fig. 5) and the packed containers.

#include "bnn/bitpack.h"

#include <gtest/gtest.h>

#include <cstring>

#include "bnn/kernel_sequences.h"
#include "util/check.h"
#include "util/rng.h"

namespace bkc::bnn {
namespace {

TEST(Packing, WordsPerGroup) {
  EXPECT_EQ(words_per_group(1), 1);
  EXPECT_EQ(words_per_group(64), 1);
  EXPECT_EQ(words_per_group(65), 2);
  EXPECT_EQ(words_per_group(512), 8);
}

TEST(Packing, TailMask) {
  EXPECT_EQ(channel_tail_mask(64), ~0ULL);
  EXPECT_EQ(channel_tail_mask(1), 1ULL);
  EXPECT_EQ(channel_tail_mask(9), 0x1FFULL);
  EXPECT_EQ(channel_tail_mask(65), 1ULL);
}

TEST(PackedFeature, BitsLandInTheRightLane) {
  PackedFeature f(FeatureShape{130, 2, 2});
  f.set_bit(0, 0, 0, 1);
  f.set_bit(64, 0, 0, 1);
  f.set_bit(129, 1, 1, 1);
  const auto w00 = f.at(0, 0);
  ASSERT_EQ(w00.size(), 3u);  // ceil(130/64)
  EXPECT_EQ(w00[0] & 1, 1u);
  EXPECT_EQ(w00[1] & 1, 1u);
  EXPECT_EQ(w00[2], 0u);
  EXPECT_EQ(f.bit(129, 1, 1), 1);
  EXPECT_EQ(f.bit(129, 0, 0), 0);
}

TEST(PackedFeature, RoundtripThroughFloatTensor) {
  Rng rng(3);
  Tensor t(FeatureShape{70, 3, 3});
  for (auto& v : t.data()) {
    v = rng.chance(0.5) ? 1.0f : -1.0f;
  }
  const PackedFeature packed = pack_feature(t);
  const Tensor back = unpack_feature(packed);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < t.data().size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], t.data()[i]);
  }
}

TEST(PackedFeature, BinarizesBySign) {
  Tensor t(FeatureShape{1, 1, 3});
  t.at(0, 0, 0) = 0.0f;   // >= 0 -> +1
  t.at(0, 0, 1) = -0.1f;  // < 0  -> -1
  // IEEE -0.0f >= 0 holds, so -0.0 binarizes to +1 like the paper's
  // x >= 0 rule (Eq. 1).
  t.at(0, 0, 2) = -0.0f;
  const PackedFeature packed = pack_feature(t);
  EXPECT_EQ(packed.bit(0, 0, 0), 1);
  EXPECT_EQ(packed.bit(0, 0, 1), 0);
  EXPECT_EQ(packed.bit(0, 0, 2), 1);
  // The planned path's packer applies the same rule.
  PackedFeature into;
  pack_feature_into(t, into);
  EXPECT_EQ(into.bit(0, 0, 0), 1);
  EXPECT_EQ(into.bit(0, 0, 1), 0);
  EXPECT_EQ(into.bit(0, 0, 2), 1);
}

TEST(PackedKernel, RoundtripThroughFloatWeights) {
  Rng rng(5);
  WeightTensor w(KernelShape{4, 100, 3, 3});
  for (auto& v : w.data()) {
    v = rng.chance(0.5) ? 0.5f : -0.5f;
  }
  const PackedKernel packed = pack_kernel(w);
  const WeightTensor back = unpack_kernel(packed);
  for (std::size_t i = 0; i < w.data().size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], w.data()[i] > 0 ? 1.0f : -1.0f);
  }
}

TEST(PackedKernel, EqualityDetectsSingleBitFlip) {
  PackedKernel a(KernelShape{2, 8, 3, 3});
  PackedKernel b = a;
  EXPECT_TRUE(a == b);
  b.set_bit(1, 3, 2, 2, 1);
  EXPECT_FALSE(a == b);
}

TEST(PackedKernel, OutOfRangeThrows) {
  PackedKernel k(KernelShape{2, 8, 3, 3});
  EXPECT_THROW(k.bit(2, 0, 0, 0), CheckError);
  EXPECT_THROW(k.bit(0, 8, 0, 0), CheckError);
  EXPECT_THROW(k.set_bit(0, 0, 0, 0, 2), CheckError);
}

TEST(KernelSequences, SequenceExtractionMatchesNaturalMapping) {
  PackedKernel k(KernelShape{1, 1, 3, 3});
  // Write Fig. 2's 369 = 101/110/001.
  set_sequence_at(k, 0, 0, 369);
  EXPECT_EQ(k.bit(0, 0, 0, 0), 1);
  EXPECT_EQ(k.bit(0, 0, 0, 1), 0);
  EXPECT_EQ(k.bit(0, 0, 1, 1), 1);
  EXPECT_EQ(k.bit(0, 0, 2, 2), 1);
  EXPECT_EQ(sequence_at(k, 0, 0), 369);
}

TEST(KernelSequences, ExtractRebuildRoundtrip) {
  Rng rng(7);
  std::vector<SeqId> seqs(6 * 70);
  for (auto& s : seqs) s = static_cast<SeqId>(rng.below(kNumSequences));
  const PackedKernel k = kernel_from_sequences(6, 70, seqs);
  EXPECT_EQ(extract_sequences(k), seqs);
}

TEST(KernelSequences, CanonicalOrderIsOutputMajor) {
  std::vector<SeqId> seqs{10, 20, 30, 40};  // 2 out x 2 in
  const PackedKernel k = kernel_from_sequences(2, 2, seqs);
  EXPECT_EQ(sequence_at(k, 0, 0), 10);
  EXPECT_EQ(sequence_at(k, 0, 1), 20);
  EXPECT_EQ(sequence_at(k, 1, 0), 30);
  EXPECT_EQ(sequence_at(k, 1, 1), 40);
}

TEST(KernelSequences, RejectsNon3x3) {
  PackedKernel k(KernelShape{1, 4, 1, 1});
  EXPECT_THROW(extract_sequences(k), CheckError);
}

TEST(KernelSequences, SizeMismatchThrows) {
  std::vector<SeqId> seqs(3);
  EXPECT_THROW(kernel_from_sequences(2, 2, seqs), CheckError);
}

TEST(PackFeatureInto, MatchesPackFeatureOnRandomShapes) {
  // The fast channel-plane packer must agree word-for-word with the
  // slow per-bit reference on every layout class: single word, exact
  // word multiple, and tail-word channels.
  Rng rng(17);
  const FeatureShape shapes[] = {
      {1, 3, 5}, {7, 4, 4}, {64, 2, 3}, {65, 2, 2}, {130, 3, 2}};
  PackedFeature scratch;
  for (const FeatureShape& shape : shapes) {
    Tensor t(shape);
    for (auto& v : t.data()) v = static_cast<float>(rng.uniform() - 0.5);
    const PackedFeature expected = pack_feature(t);
    pack_feature_into(t, scratch);
    ASSERT_EQ(scratch.shape(), shape);
    ASSERT_EQ(scratch.words().size(), expected.words().size());
    EXPECT_EQ(std::memcmp(scratch.words().data(), expected.words().data(),
                          expected.words().size_bytes()),
              0);
  }
}

TEST(PackFeatureInto, MatchesPackFeatureWithARing) {
  // Same agreement when the map sits inside a zero ring: the ring is
  // part of the storage both packers produce.
  Rng rng(29);
  const FeatureShape shapes[] = {{1, 1, 1}, {7, 4, 3}, {64, 2, 2},
                                 {130, 3, 5}};
  PackedFeature scratch;
  for (const FeatureShape& shape : shapes) {
    Tensor t(shape);
    for (auto& v : t.data()) v = static_cast<float>(rng.uniform() - 0.5);
    for (std::int64_t ring : {1, 2}) {
      const PackedFeature expected = pack_feature(t, ring);
      pack_feature_into(t, scratch, ring);
      ASSERT_EQ(scratch.shape(), shape);
      ASSERT_EQ(scratch.padding(), ring);
      ASSERT_EQ(scratch.words().size(),
                static_cast<std::size_t>((shape.height + 2 * ring) *
                                         (shape.width + 2 * ring) *
                                         words_per_group(shape.channels)));
      EXPECT_EQ(std::memcmp(scratch.words().data(), expected.words().data(),
                            expected.words().size_bytes()),
                0)
          << shape.to_string() << " ring " << ring;
    }
  }
}

TEST(PackFeatureInto, ReshapeReusesReservedCapacity) {
  PackedFeature scratch;
  scratch.reserve_words(words_per_group(130) * 3 * 2);
  const std::uint64_t* storage = nullptr;
  Rng rng(19);
  for (const FeatureShape& shape :
       {FeatureShape{130, 3, 2}, FeatureShape{7, 4, 4},
        FeatureShape{64, 2, 3}}) {
    Tensor t(shape);
    for (auto& v : t.data()) v = rng.chance(0.5) ? 1.0f : -1.0f;
    pack_feature_into(t, scratch);
    if (storage == nullptr) storage = scratch.words().data();
    // Smaller reshapes never reallocate: the word storage is stable.
    EXPECT_EQ(scratch.words().data(), storage);
    const PackedFeature expected = pack_feature(t);
    EXPECT_EQ(std::memcmp(scratch.words().data(), expected.words().data(),
                          expected.words().size_bytes()),
              0);
  }
}

TEST(PackFeatureInto, TailWordBitsStayZero) {
  // The layout invariant the mask-free AVX2 kernel relies on: bits
  // above the channel count in the tail word are always zero, even
  // when the scratch previously held a wider feature.
  Rng rng(23);
  PackedFeature scratch;
  Tensor wide(FeatureShape{128, 2, 2});
  for (auto& v : wide.data()) v = 1.0f;  // all bits set
  pack_feature_into(wide, scratch);
  Tensor narrow(FeatureShape{70, 2, 2});
  for (auto& v : narrow.data()) v = rng.chance(0.5) ? 1.0f : -1.0f;
  pack_feature_into(narrow, scratch);
  for (std::int64_t y = 0; y < 2; ++y) {
    for (std::int64_t x = 0; x < 2; ++x) {
      const auto words = scratch.at(y, x);
      ASSERT_EQ(words.size(), 2u);
      EXPECT_EQ(words[1] & ~channel_tail_mask(70), 0u);
    }
  }
}

TEST(PackFeatureInto, RingStaysZeroAfterRepackingIntoDirtyScratch) {
  // The other half of the invariant: repacking a smaller ringed map
  // into scratch that held a larger all-ones map leaves every ring word
  // zero (the fast kernels read padded taps from it).
  PackedFeature scratch;
  Tensor large(FeatureShape{128, 6, 6});
  for (auto& v : large.data()) v = 1.0f;  // all bits set
  pack_feature_into(large, scratch);
  const std::int64_t ring = 1;
  Tensor small(FeatureShape{128, 3, 4});
  for (auto& v : small.data()) v = 1.0f;
  pack_feature_into(small, scratch, ring);
  const std::int64_t wpp = scratch.words_per_pixel();
  const std::int64_t padded_h = 3 + 2 * ring;
  const std::int64_t padded_w = 4 + 2 * ring;
  ASSERT_EQ(scratch.words().size(),
            static_cast<std::size_t>(padded_h * padded_w * wpp));
  for (std::int64_t py = 0; py < padded_h; ++py) {
    for (std::int64_t px = 0; px < padded_w; ++px) {
      const bool in_ring = py < ring || py >= padded_h - ring || px < ring ||
                           px >= padded_w - ring;
      for (std::int64_t t = 0; t < wpp; ++t) {
        const std::uint64_t word = scratch.words()[static_cast<std::size_t>(
            (py * padded_w + px) * wpp + t)];
        EXPECT_EQ(word, in_ring ? 0u : ~0ULL)
            << "storage pixel (" << py << ", " << px << ") word " << t;
      }
    }
  }
}

}  // namespace
}  // namespace bkc::bnn
