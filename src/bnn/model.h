#pragma once
// Op records and the storage/work accounting behind Table I.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace bkc::bnn {

/// Operation classes used for the Table I storage / execution-time
/// breakdown.
enum class OpClass {
  kInputLayer,   ///< 8-bit quantized stem convolution
  kOutputLayer,  ///< 8-bit quantized fully-connected classifier
  kConv1x1,      ///< 1-bit 1x1 convolutions
  kConv3x3,      ///< 1-bit 3x3 convolutions (the compression target)
  kOther,        ///< activation / normalization layers etc.
};

/// Printable name matching the paper's Table I rows.
std::string op_class_name(OpClass op);

/// One operation instance with resolved shapes - the unit of accounting
/// for Table I and the unit of work for the hwsim timing model. Each
/// layer reports its own (op_record in bnn/layers.h).
struct OpRecord {
  std::string name;
  OpClass op_class = OpClass::kOther;
  std::uint64_t storage_bits = 0;
  std::uint64_t macs = 0;
  int precision_bits = 32;
  FeatureShape input_shape;
  FeatureShape output_shape;
  /// Kernel shape for convolution ops; zeros otherwise (the classifier
  /// included, which is how plan_reactnet_forward tells it from the
  /// stem).
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

}  // namespace bkc::bnn
