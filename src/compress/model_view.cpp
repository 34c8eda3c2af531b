#include "compress/model_view.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace bkc::compress {

CompressedModelView view_of(
    std::vector<bnn::OpRecord> ops,
    std::vector<std::reference_wrapper<const KernelCompression>> blocks) {
  std::size_t next = 0;
  for (const bnn::OpRecord& op : ops) {
    const bool is_3x3_binary =
        op.precision_bits == 1 && op.op_class == bnn::OpClass::kConv3x3;
    if (!is_3x3_binary) continue;
    check(next < blocks.size(),
          "CompressedModelView: op layout has more 3x3 binary convs than "
          "blocks (", blocks.size(), ")");
    const CompressedKernel& kernel = blocks[next].get().compressed;
    check(kernel.out_channels == op.kernel_shape.out_channels &&
              kernel.in_channels == op.kernel_shape.in_channels,
          "CompressedModelView: block ", next,
          " channel shape does not match op '", op.name, "'");
    ++next;
  }
  check(next == blocks.size(),
        "CompressedModelView: ", blocks.size(), " blocks for ", next,
        " 3x3 binary convs in the op layout");
  return CompressedModelView{.ops = std::move(ops),
                             .blocks = std::move(blocks)};
}

}  // namespace bkc::compress
