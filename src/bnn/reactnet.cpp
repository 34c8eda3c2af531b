#include "bnn/reactnet.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bkc::bnn {

std::vector<BlockConfig> mobilenet_v1_schedule(std::int64_t width_divisor) {
  check(width_divisor >= 1, "mobilenet_v1_schedule: divisor must be >= 1");
  // (in, out, stride) of the 13 depthwise-separable stages of
  // MobileNet-V1 at width multiplier 1.0.
  static constexpr std::int64_t kSchedule[13][3] = {
      {32, 64, 1},    {64, 128, 2},   {128, 128, 1}, {128, 256, 2},
      {256, 256, 1},  {256, 512, 2},  {512, 512, 1}, {512, 512, 1},
      {512, 512, 1},  {512, 512, 1},  {512, 512, 1}, {512, 1024, 2},
      {1024, 1024, 1}};
  std::vector<BlockConfig> blocks;
  blocks.reserve(13);
  auto scale = [&](std::int64_t c) {
    return std::max<std::int64_t>(4, c / width_divisor);
  };
  for (const auto& row : kSchedule) {
    blocks.push_back({scale(row[0]), scale(row[1]), row[2]});
  }
  return blocks;
}

ReActNetConfig paper_reactnet_config(std::uint64_t seed) {
  ReActNetConfig config;
  config.seed = seed;
  return config;
}

ReActNetConfig tiny_reactnet_config(std::uint64_t seed) {
  ReActNetConfig config;
  config.input_size = 32;
  config.stem_channels = 4;
  config.num_classes = 10;
  config.blocks = mobilenet_v1_schedule(/*width_divisor=*/8);
  config.seed = seed;
  return config;
}

namespace {

/// Batch-norm scale that keeps post-conv magnitudes around +/-1: binary
/// dot products range over [-K, K], so scale ~ 1/sqrt(K) with a little
/// per-channel jitter stands in for trained parameters.
std::vector<float> bn_scales(WeightGenerator& gen, std::int64_t channels,
                             std::int64_t receptive) {
  auto scales = gen.sample_floats(static_cast<std::size_t>(channels), 0.1f,
                                  1.0f);
  const float norm =
      1.0f / std::sqrt(static_cast<float>(std::max<std::int64_t>(receptive, 1)));
  for (float& s : scales) s = std::max(0.25f, s) * norm;
  return scales;
}

std::unique_ptr<RPReLU> make_rprelu(const std::string& name,
                                    WeightGenerator& gen,
                                    std::int64_t channels) {
  const auto n = static_cast<std::size_t>(channels);
  return std::make_unique<RPReLU>(
      name, gen.sample_floats(n, 0.1f), gen.sample_floats(n, 0.05f, 0.25f),
      gen.sample_floats(n, 0.1f));
}

}  // namespace

BasicBlock::BasicBlock(std::string name, const BlockConfig& config,
                       WeightGenerator& generator,
                       const SequenceDistribution& dist)
    : name_(std::move(name)), config_(config) {
  check(config.in_channels > 0 && config.out_channels > 0,
        "BasicBlock: channels must be positive");
  check(config.stride == 1 || config.stride == 2,
        "BasicBlock: stride must be 1 or 2");
  check(config.out_channels == config.in_channels ||
            config.out_channels == 2 * config.in_channels,
        "BasicBlock: out must be in or 2*in (MobileNet schedule)");
  const std::int64_t in = config.in_channels;
  const bool expand = config.out_channels == 2 * in;

  conv3_ = std::make_unique<BinaryConv2d>(
      name_ + ".conv3x3", generator.sample_kernel3x3(in, in, dist),
      ConvGeometry{config.stride, 1});
  bn1_ = std::make_unique<BatchNorm>(
      name_ + ".bn1", bn_scales(generator, in, in * 9),
      generator.sample_floats(static_cast<std::size_t>(in), 0.05f));
  act1_ = make_rprelu(name_ + ".rprelu1", generator, in);

  conv1a_ = std::make_unique<BinaryConv2d>(
      name_ + ".conv1x1a",
      generator.sample_kernel(KernelShape{in, in, 1, 1}), ConvGeometry{1, 0});
  bn2a_ = std::make_unique<BatchNorm>(
      name_ + ".bn2a", bn_scales(generator, in, in),
      generator.sample_floats(static_cast<std::size_t>(in), 0.05f));
  if (expand) {
    conv1b_ = std::make_unique<BinaryConv2d>(
        name_ + ".conv1x1b",
        generator.sample_kernel(KernelShape{in, in, 1, 1}),
        ConvGeometry{1, 0});
    bn2b_ = std::make_unique<BatchNorm>(
        name_ + ".bn2b", bn_scales(generator, in, in),
        generator.sample_floats(static_cast<std::size_t>(in), 0.05f));
  }
  act2_ = make_rprelu(name_ + ".rprelu2", generator, config.out_channels);
}

void BasicBlock::forward_into(ConstTensorView input, TensorView output,
                              Workspace& workspace) const {
  const FeatureShape& in_shape = input.shape();
  check(in_shape.channels == config_.in_channels,
        "BasicBlock::forward_into: input channel mismatch");
  // The pooled shortcut averages whole 2x2 windows; on an odd map the
  // last window would read past the plane.
  check(config_.stride == 1 ||
            (in_shape.height % 2 == 0 && in_shape.width % 2 == 0),
        "BasicBlock::forward_into: a stride-2 block expects even spatial "
        "dims");
  check(output.shape() == output_shape(in_shape),
        "BasicBlock::forward_into: output shape mismatch");
  Arena& arena = workspace.arena();
  const std::size_t block_mark = arena.mark();

  // Every pass below runs on current_num_threads(): the packs split
  // rows, the convs split output channels and apply BN, the residual
  // and RPReLU to each channel inside the same chunk (ConvEpilogue).
  // First half: y = RPReLU(BN(conv3x3(x)) + shortcut(x)) in arena
  // scratch; a stride-2 shortcut is read pooled straight from x.
  PackedFeature& packed = workspace.pack_scratch();
  pack_feature_into(input, packed, conv3_->geometry().padding);
  const FeatureShape mid_shape = conv3_->output_shape(in_shape);
  TensorView y(mid_shape, arena.allocate_span<float>(mid_shape.size()));
  const ConvEpilogue first{.bn_scale = bn1_->scale(),
                           .bn_bias = bn1_->bias(),
                           .residual = input,
                           .pool_residual = config_.stride == 2,
                           .shift_in = act1_->shift_in(),
                           .slope = act1_->slope(),
                           .shift_out = act1_->shift_out()};
  conv3_->forward_packed(packed, y, &first);

  // Second half: the 1x1 conv(s) write straight into the channel
  // halves of the concat destination (CHW makes channel subranges
  // contiguous), so no za/zb temporaries or concat copy exist. Both
  // read y, so y is packed once for the pair; each adds y back and
  // reads its own slice of the output RPReLU's parameters.
  pack_feature_into(y, packed, conv1a_->geometry().padding);
  const std::int64_t in = config_.in_channels;
  const ConvEpilogue second_a{.bn_scale = bn2a_->scale(),
                              .bn_bias = bn2a_->bias(),
                              .residual = y,
                              .shift_in = act2_->shift_in(),
                              .slope = act2_->slope(),
                              .shift_out = act2_->shift_out()};
  conv1a_->forward_packed(packed, output.channels(0, in), &second_a);
  if (conv1b_) {
    ConvEpilogue second_b = second_a;
    second_b.bn_scale = bn2b_->scale();
    second_b.bn_bias = bn2b_->bias();
    second_b.act_offset = in;
    conv1b_->forward_packed(packed, output.channels(in, in), &second_b);
  }
  arena.rewind(block_mark);
}

std::vector<BinaryConv2d*> BasicBlock::conv1x1s() {
  std::vector<BinaryConv2d*> convs{conv1a_.get()};
  if (conv1b_) convs.push_back(conv1b_.get());
  return convs;
}

std::vector<const BinaryConv2d*> BasicBlock::conv1x1s() const {
  std::vector<const BinaryConv2d*> convs{conv1a_.get()};
  if (conv1b_) convs.push_back(conv1b_.get());
  return convs;
}

std::vector<const BatchNorm*> BasicBlock::bn2s() const {
  std::vector<const BatchNorm*> norms{bn2a_.get()};
  if (bn2b_) norms.push_back(bn2b_.get());
  return norms;
}

FeatureShape BasicBlock::output_shape(const FeatureShape& input) const {
  const FeatureShape mid =
      conv3_->geometry().output_shape(input, conv3_->kernel().shape());
  return {config_.out_channels, mid.height, mid.width};
}

std::vector<OpRecord> BasicBlock::op_records(const FeatureShape& input) const {
  std::vector<OpRecord> records;
  records.push_back(conv3_->op_record(input));
  const FeatureShape mid = records.back().output_shape;
  records.push_back(bn1_->op_record(mid));
  records.push_back(act1_->op_record(mid));
  // Every 1x1 conv reads y and writes in_channels outputs (one half of
  // the concat when the block expands).
  records.push_back(conv1a_->op_record(mid));
  const FeatureShape half = records.back().output_shape;
  records.push_back(bn2a_->op_record(half));
  if (conv1b_) {
    records.push_back(conv1b_->op_record(mid));
    records.push_back(bn2b_->op_record(half));
  }
  records.push_back(act2_->op_record(output_shape(input)));
  return records;
}

ReActNet::ReActNet(const ReActNetConfig& config)
    : ReActNet(config, WeightGenerator(config.seed)) {}

ReActNet::ReActNet(const ReActNetConfig& config, WeightGenerator generator)
    : config_(config) {
  check(!config.blocks.empty(), "ReActNet: at least one block required");
  check(config.blocks.front().in_channels == config.stem_channels,
        "ReActNet: stem channels must match the first block");

  stem_ = std::make_unique<Int8Conv2d>(
      "stem.conv3x3",
      generator.sample_float_weights(
          KernelShape{config.stem_channels, config.input_channels, 3, 3},
          0.5f),
      generator.sample_floats(static_cast<std::size_t>(config.stem_channels),
                              0.05f),
      ConvGeometry{config.stem_stride, 1});

  const auto& targets = paper_table2_targets();
  blocks_.reserve(config.blocks.size());
  for (std::size_t b = 0; b < config.blocks.size(); ++b) {
    const SequenceDistribution dist =
        config.calibrated_weights
            ? SequenceDistribution::fitted(targets[b % targets.size()])
            : SequenceDistribution::uniform();
    blocks_.emplace_back("block" + std::to_string(b + 1), config.blocks[b],
                         generator, dist);
  }

  const std::int64_t features = config.blocks.back().out_channels;
  classifier_ = std::make_unique<Int8Linear>(
      "classifier.fc", features, config.num_classes,
      generator.sample_floats(
          static_cast<std::size_t>(features * config.num_classes), 0.05f),
      generator.sample_floats(static_cast<std::size_t>(config.num_classes),
                              0.01f));

  plan_ = plan_reactnet_forward(op_records());
}

void ReActNet::forward_into(ConstTensorView image, TensorView scores,
                            Workspace& workspace) const {
  check(image.shape() == input_shape(),
        "ReActNet::forward_into: input shape mismatch");
  check(scores.shape() == FeatureShape{config_.num_classes, 1, 1},
        "ReActNet::forward_into: scores must be num_classes x 1 x 1");
  check(workspace.covers(plan_),
        "ReActNet::forward_into: workspace does not cover this model's "
        "memory plan");
  Arena& arena = workspace.arena();
  arena.reset();
  const std::int64_t buffer_floats = plan_.activation_floats;
  const std::span<float> buffers[2] = {
      arena.allocate_span<float>(buffer_floats),
      arena.allocate_span<float>(buffer_floats)};

  FeatureShape shape = stem_->output_shape(image.shape());
  check(shape.size() <= buffer_floats,
        "ReActNet::forward_into: plan does not cover the stem output");
  TensorView current(shape,
                     buffers[0].first(static_cast<std::size_t>(shape.size())));
  stem_->forward_into(image, current, workspace);

  int next = 1;
  for (const auto& block : blocks_) {
    shape = block.output_shape(current.shape());
    check(shape.size() <= buffer_floats,
          "ReActNet::forward_into: plan does not cover a block output");
    TensorView destination(
        shape, buffers[next].first(static_cast<std::size_t>(shape.size())));
    block.forward_into(current, destination, workspace);
    current = destination;
    next = 1 - next;
  }

  shape = pool_.output_shape(current.shape());
  TensorView pooled(shape,
                    buffers[next].first(static_cast<std::size_t>(shape.size())));
  pool_.forward_into(current, pooled, workspace);
  classifier_->forward_into(pooled, scores, workspace);
}

FeatureShape ReActNet::input_shape() const {
  return {config_.input_channels, config_.input_size, config_.input_size};
}

BasicBlock& ReActNet::block(std::size_t i) {
  check(i < blocks_.size(), "ReActNet::block index out of range");
  return blocks_[i];
}

const BasicBlock& ReActNet::block(std::size_t i) const {
  check(i < blocks_.size(), "ReActNet::block index out of range");
  return blocks_[i];
}

std::vector<OpRecord> ReActNet::op_records() const {
  std::vector<OpRecord> records;
  records.push_back(stem_->op_record(input_shape()));
  for (const auto& block : blocks_) {
    std::vector<OpRecord> block_records =
        block.op_records(records.back().output_shape);
    records.insert(records.end(),
                   std::make_move_iterator(block_records.begin()),
                   std::make_move_iterator(block_records.end()));
  }
  records.push_back(pool_.op_record(records.back().output_shape));
  records.push_back(classifier_->op_record(records.back().output_shape));
  return records;
}

StorageBreakdown ReActNet::storage() const { return summarize(op_records()); }

std::vector<OpRecord> op_records_for(const ReActNetConfig& config) {
  return ReActNet(config, WeightGenerator::layout_only()).op_records();
}

}  // namespace bkc::bnn
