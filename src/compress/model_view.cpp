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
    const KernelCompression& block = blocks[next];
    const CompressedKernel& kernel = block.compressed;
    check(kernel.out_channels == op.kernel_shape.out_channels &&
              kernel.in_channels == op.kernel_shape.in_channels,
          "CompressedModelView: block ", next,
          " channel shape does not match op '", op.name, "'");
    check(block.code_lengths.size() == kernel.num_sequences(),
          "CompressedModelView: block ", next, " carries ",
          block.code_lengths.size(), " code lengths for ",
          kernel.num_sequences(), " sequences");
    ++next;
  }
  check(next == blocks.size(),
        "CompressedModelView: ", blocks.size(), " blocks for ", next,
        " 3x3 binary convs in the op layout");
  return CompressedModelView{.ops = std::move(ops),
                             .blocks = std::move(blocks)};
}

}  // namespace bkc::compress
