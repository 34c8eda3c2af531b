#include "bnn/model.h"

#include "util/check.h"

namespace bkc::bnn {

std::string op_class_name(OpClass op) {
  switch (op) {
    case OpClass::kInputLayer:
      return "Input Layer";
    case OpClass::kOutputLayer:
      return "Output Layer";
    case OpClass::kConv1x1:
      return "Conv 1x1";
    case OpClass::kConv3x3:
      return "Conv 3x3";
    case OpClass::kOther:
      return "Others";
  }
  unreachable("op_class_name: bad enum");
}

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

}  // namespace bkc::bnn
