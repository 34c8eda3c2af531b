// Tests for the Table I storage breakdown over op records.

#include "bnn/model.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace bkc::bnn {
namespace {

TEST(StorageBreakdown, AggregatesByClass) {
  StorageBreakdown b;
  b.add({.name = "a",
         .op_class = OpClass::kConv3x3,
         .storage_bits = 900,
         .macs = 100});
  b.add({.name = "b",
         .op_class = OpClass::kConv3x3,
         .storage_bits = 100,
         .macs = 100});
  b.add({.name = "c",
         .op_class = OpClass::kOutputLayer,
         .storage_bits = 1000,
         .macs = 200});
  EXPECT_EQ(b.total_bits, 2000u);
  EXPECT_DOUBLE_EQ(b.bits_fraction(OpClass::kConv3x3), 0.5);
  EXPECT_DOUBLE_EQ(b.macs_fraction(OpClass::kOutputLayer), 0.5);
  EXPECT_DOUBLE_EQ(b.bits_fraction(OpClass::kConv1x1), 0.0);
}

TEST(StorageBreakdown, EmptyThrows) {
  StorageBreakdown b;
  EXPECT_THROW(b.bits_fraction(OpClass::kConv3x3), CheckError);
}

}  // namespace
}  // namespace bkc::bnn
