#include "compress/model_view.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace bkc::compress {

CompressedModelView assemble_view(std::vector<bnn::OpRecord> ops,
                                  std::vector<BlockStreamView> blocks) {
  std::size_t next = 0;
  for (const bnn::OpRecord& op : ops) {
    const bool is_3x3_binary =
        op.precision_bits == 1 && op.op_class == bnn::OpClass::kConv3x3;
    if (!is_3x3_binary) continue;
    check(next < blocks.size(),
          "CompressedModelView: op layout has more 3x3 binary convs than "
          "blocks (", blocks.size(), ")");
    const BlockStreamView& block = blocks[next];
    check(block.out_channels == op.kernel_shape.out_channels &&
              block.in_channels == op.kernel_shape.in_channels,
          "CompressedModelView: block ", next,
          " channel shape does not match op '", op.name, "'");
    check(block.code_lengths.size() == block.num_sequences(),
          "CompressedModelView: block ", next, " carries ",
          block.code_lengths.size(), " code lengths for ",
          block.num_sequences(), " sequences");
    ++next;
  }
  check(next == blocks.size(),
        "CompressedModelView: ", blocks.size(), " blocks for ", next,
        " 3x3 binary convs in the op layout");
  return CompressedModelView{.ops = std::move(ops),
                             .blocks = std::move(blocks)};
}

CompressedModelView view_of(std::vector<bnn::OpRecord> ops,
                            std::span<const KernelCompression> streams) {
  std::vector<BlockStreamView> blocks;
  blocks.reserve(streams.size());
  for (const KernelCompression& stream : streams) {
    blocks.push_back(BlockStreamView{
        .out_channels = stream.compressed.out_channels,
        .in_channels = stream.compressed.in_channels,
        .stream = stream.compressed.stream,
        .stream_bits = stream.compressed.stream_bits,
        .code_lengths = stream.code_lengths,
        .codec = &stream.codec,
        .clustering = &stream.clustering});
  }
  return assemble_view(std::move(ops), std::move(blocks));
}

}  // namespace bkc::compress
