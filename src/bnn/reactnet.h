#pragma once
// ReActNet-A (Liu et al., ECCV 2020), the paper's baseline model:
// a MobileNet-V1 backbone whose 13 depthwise-separable blocks are
// replaced by the basic block of Fig. 1 - a 1-bit 3x3 convolution and a
// 1-bit 1x1 convolution, each preceded by sign() and followed by batch
// norm, residual shortcuts and RPReLU activations. The input layer is an
// 8-bit convolution and the output layer an 8-bit fully-connected
// classifier (Sec II-B: "we quantize them using 8 bits").
//
// With the canonical configuration (224x224 input, 1000 classes) the
// storage breakdown reproduces the paper's Table I: the 3x3 binary
// convolutions hold ~68% of all bits, the 1x1s ~8.5%, and the int8
// output layer ~22%.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bnn/layers.h"
#include "bnn/memory_plan.h"
#include "bnn/model.h"
#include "bnn/weights.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

/// Channel configuration of one basic block. The 3x3 convolution runs
/// in_channels -> in_channels with the given stride; the 1x1 stage
/// expands to out_channels (which must be in_channels or 2*in_channels,
/// the only two cases in the MobileNet schedule).
struct BlockConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t stride = 1;
};

/// The 13-block MobileNet-V1 channel schedule used by ReActNet-A.
/// `width_divisor` shrinks every channel count (for fast tests);
/// divided channel counts are clamped to >= 4.
std::vector<BlockConfig> mobilenet_v1_schedule(std::int64_t width_divisor = 1);

/// Full model configuration.
struct ReActNetConfig {
  std::int64_t input_channels = 3;
  std::int64_t input_size = 224;  ///< square input, pixels
  std::int64_t stem_channels = 32;
  std::int64_t stem_stride = 2;
  std::int64_t num_classes = 1000;
  std::vector<BlockConfig> blocks = mobilenet_v1_schedule();
  std::uint64_t seed = 42;
  /// When true, the 3x3 kernels of block b are drawn from the
  /// distribution fitted to the paper's Table II row b (cycled if the
  /// schedule has more blocks than 13). When false, i.i.d. fair bits.
  bool calibrated_weights = true;
};

/// The paper's evaluation configuration (ImageNet-sized).
ReActNetConfig paper_reactnet_config(std::uint64_t seed = 42);

/// A small configuration for unit tests and quick examples:
/// 32x32 input, width/8 channels, 10 classes.
ReActNetConfig tiny_reactnet_config(std::uint64_t seed = 42);

/// One ReActNet basic block (Fig. 1):
///   y  = RPReLU(BN(bconv3x3(x)) + shortcut(x))
///   z  = RPReLU(BN(bconv1x1(y)) + y)            (out == in)
///   z  = RPReLU(concat(BN(c1a(y)) + y, BN(c1b(y)) + y))  (out == 2*in)
/// where shortcut is identity, or 2x2 average pooling when stride 2.
class BasicBlock {
 public:
  BasicBlock(std::string name, const BlockConfig& config,
             WeightGenerator& generator, const SequenceDistribution& dist);

  /// Run the block on `input`, writing into `output`: pack x, conv3x3
  /// with BN, shortcut and RPReLU fused into y, pack y, then each 1x1
  /// conv with BN, the y residual and the output RPReLU fused into its
  /// channel half of `output` (the concat destination, so no
  /// intermediate za/zb tensors exist). Every pass runs on
  /// current_num_threads(). The only block scratch is y, drawn from the
  /// workspace arena and released before returning; the stride-2
  /// shortcut is pooled on the fly from `input`, which therefore needs
  /// even spatial dims (CheckError otherwise). `output` must have
  /// output_shape(input.shape()) and must not alias `input`. The block's
  /// layers, run one at a time, are the oracle this fused path matches
  /// bit for bit (tests/test_block_fusion.cpp).
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;

  const BlockConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  /// The block's 3x3 binary convolution (the compression target).
  BinaryConv2d& conv3x3() { return *conv3_; }
  const BinaryConv2d& conv3x3() const { return *conv3_; }

  /// The block's 1x1 binary convolution(s): one, or two when expanding.
  std::vector<BinaryConv2d*> conv1x1s();
  std::vector<const BinaryConv2d*> conv1x1s() const;

  /// The float layers the convs fuse (the unfused oracle's parts):
  /// bn1 and rprelu1 follow the 3x3 conv, one bn2 per 1x1 conv, and
  /// rprelu2 covers the whole output.
  const BatchNorm& bn1() const { return *bn1_; }
  const RPReLU& rprelu1() const { return *act1_; }
  std::vector<const BatchNorm*> bn2s() const;
  const RPReLU& rprelu2() const { return *act2_; }

  FeatureShape output_shape(const FeatureShape& input) const;
  std::vector<OpRecord> op_records(const FeatureShape& input) const;

 private:
  std::string name_;
  BlockConfig config_;
  std::unique_ptr<BinaryConv2d> conv3_;
  std::unique_ptr<BatchNorm> bn1_;
  std::unique_ptr<RPReLU> act1_;
  std::unique_ptr<BinaryConv2d> conv1a_;
  std::unique_ptr<BatchNorm> bn2a_;
  std::unique_ptr<BinaryConv2d> conv1b_;  // only when out == 2*in
  std::unique_ptr<BatchNorm> bn2b_;       // only when out == 2*in
  std::unique_ptr<RPReLU> act2_;
};

/// The full model: int8 stem -> 13 basic blocks -> global average pool
/// -> int8 classifier.
class ReActNet {
 public:
  explicit ReActNet(const ReActNetConfig& config = paper_reactnet_config());

  /// Run one image (input_channels x input_size x input_size) through
  /// the network, writing class scores into `scores` (num_classes x 1
  /// x 1) with zero heap allocations: activations ping-pong between
  /// two arena buffers of memory_plan().activation_floats each, blocks
  /// draw their scratch LIFO on top, and the int8 stem/classifier
  /// quantize into arena scratch. Resets the workspace arena on entry;
  /// `workspace` must cover memory_plan() (any workspace built from
  /// this model's plan, or a larger one, qualifies).
  void forward_into(ConstTensorView image, TensorView scores,
                    Workspace& workspace) const;

  /// The memory plan computed once at construction from op_records():
  /// build Workspaces (or a WorkspacePool) from this to run
  /// forward_into.
  const MemoryPlan& memory_plan() const { return plan_; }

  const ReActNetConfig& config() const { return config_; }
  FeatureShape input_shape() const;

  std::size_t num_blocks() const { return blocks_.size(); }
  BasicBlock& block(std::size_t i);
  const BasicBlock& block(std::size_t i) const;

  /// Every operation with resolved shapes (stem, all block ops, pool,
  /// classifier) - the substrate for Table I and the timing model.
  std::vector<OpRecord> op_records() const;

  /// Storage breakdown over op_records() (Table I storage column).
  StorageBreakdown storage() const;

 private:
  /// Shared ctor body: `generator` supplies every weight tensor (the
  /// public ctor seeds it from the config; op_records_for passes the
  /// layout-only generator).
  ReActNet(const ReActNetConfig& config, WeightGenerator generator);

  friend std::vector<OpRecord> op_records_for(const ReActNetConfig& config);

  ReActNetConfig config_;
  std::unique_ptr<Int8Conv2d> stem_;
  std::vector<BasicBlock> blocks_;
  GlobalAvgPool pool_;
  std::unique_ptr<Int8Linear> classifier_;
  MemoryPlan plan_;
};

/// The op-record layout of a ReActNet with this configuration, without
/// sampling a single weight: the model is stood up with zero-filled
/// (layout-only) parameters, so the SAME structural walk and per-layer
/// info() code as ReActNet::op_records produces the records — the
/// layout can never drift from a real model's, and op records depend on
/// shapes alone (tests/test_reactnet.cpp pins the field-for-field
/// equality). This is what container tooling uses to feed
/// hwsim::compare_model from a parsed BKCM file without paying the
/// weight-generation cost of a full model.
std::vector<OpRecord> op_records_for(const ReActNetConfig& config);

}  // namespace bkc::bnn
