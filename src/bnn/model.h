#pragma once
// Op records and the storage/work accounting behind Table I.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bnn/layers.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

/// One operation instance with resolved shapes - the unit of accounting
/// for Table I and the unit of work for the hwsim timing model.
struct OpRecord {
  std::string name;
  OpClass op_class = OpClass::kOther;
  std::uint64_t storage_bits = 0;
  std::uint64_t macs = 0;
  int precision_bits = 32;
  FeatureShape input_shape;
  FeatureShape output_shape;
  /// Kernel shape for convolution/fc ops; zeros otherwise.
  KernelShape kernel_shape;
  ConvGeometry geometry;
};

/// Aggregated per-class storage and arithmetic (the data behind
/// Table I's storage column; the execution-time column comes from
/// hwsim::perf_model running over the same OpRecords).
struct StorageBreakdown {
  std::map<OpClass, std::uint64_t> bits_by_class;
  std::map<OpClass, std::uint64_t> macs_by_class;
  std::uint64_t total_bits = 0;
  std::uint64_t total_macs = 0;

  void add(const OpRecord& op);
  double bits_fraction(OpClass op) const;
  double macs_fraction(OpClass op) const;
};

StorageBreakdown summarize(const std::vector<OpRecord>& ops);

/// Convert a LayerInfo at a given input shape into an OpRecord.
OpRecord make_record(const LayerInfo& info, const FeatureShape& input_shape,
                     const KernelShape& kernel_shape = {},
                     ConvGeometry geometry = {});

}  // namespace bkc::bnn
