#include "bnn/model.h"

#include "util/check.h"

namespace bkc::bnn {

void StorageBreakdown::add(const OpRecord& op) {
  bits_by_class[op.op_class] += op.storage_bits;
  macs_by_class[op.op_class] += op.macs;
  total_bits += op.storage_bits;
  total_macs += op.macs;
}

double StorageBreakdown::bits_fraction(OpClass op) const {
  check(total_bits > 0, "StorageBreakdown: no storage recorded");
  const auto it = bits_by_class.find(op);
  if (it == bits_by_class.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total_bits);
}

double StorageBreakdown::macs_fraction(OpClass op) const {
  check(total_macs > 0, "StorageBreakdown: no work recorded");
  const auto it = macs_by_class.find(op);
  if (it == macs_by_class.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total_macs);
}

StorageBreakdown summarize(const std::vector<OpRecord>& ops) {
  StorageBreakdown breakdown;
  for (const auto& op : ops) breakdown.add(op);
  return breakdown;
}

OpRecord make_record(const LayerInfo& info, const FeatureShape& input_shape,
                     const KernelShape& kernel_shape, ConvGeometry geometry) {
  return {.name = info.name,
          .op_class = info.op_class,
          .storage_bits = info.storage_bits,
          .macs = info.macs,
          .precision_bits = info.precision_bits,
          .input_shape = input_shape,
          .output_shape = info.output_shape,
          .kernel_shape = kernel_shape,
          .geometry = geometry};
}

}  // namespace bkc::bnn
