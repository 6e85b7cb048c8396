#ifndef KDSEL_SELECTORS_BACKBONE_H_
#define KDSEL_SELECTORS_BACKBONE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace kdsel::selectors {

/// A time-series encoder E_T: windows [B, L] -> features [B, D].
///
/// This is the architecture-specific half of an NN selector; the linear
/// classifier C_T, the PISL/MKI losses and the PA pruning are composed
/// around it by core::SelectorTrainer, which is exactly the paper's
/// "architecture-agnostic plug-and-play" claim.
class Backbone : public nn::Module {
 public:
  virtual std::string name() const = 0;
  virtual size_t feature_dim() const = 0;
  virtual size_t input_length() const = 0;
};

/// The classic TSC residual block: three conv-BN-ReLU stages with a
/// (possibly projected) shortcut.
class ResidualBlock : public nn::Module {
 public:
  ResidualBlock(size_t in_channels, size_t out_channels, Rng& rng);

  nn::Tensor Forward(const nn::Tensor& input, bool training) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> Parameters() override;
  std::vector<nn::Tensor*> StateTensors() override;
  void CollectQuantizable(std::vector<nn::Quantizable*>* out) override {
    conv1_.CollectQuantizable(out);
    conv2_.CollectQuantizable(out);
    conv3_.CollectQuantizable(out);
    if (shortcut_conv_) shortcut_conv_->CollectQuantizable(out);
  }

 private:
  nn::Conv1d conv1_, conv2_, conv3_;
  nn::BatchNorm1d bn1_, bn2_, bn3_;
  nn::ReLU relu1_, relu2_, relu_out_;
  bool project_;
  std::unique_ptr<nn::Conv1d> shortcut_conv_;
  std::unique_ptr<nn::BatchNorm1d> shortcut_bn_;
};

/// InceptionTime module: bottleneck 1x1 conv, three parallel convs with
/// different kernel sizes, plus a maxpool->1x1 branch, concatenated and
/// batch-normed.
class InceptionModule : public nn::Module {
 public:
  InceptionModule(size_t in_channels, size_t bottleneck,
                  size_t filters_per_branch, Rng& rng);

  nn::Tensor Forward(const nn::Tensor& input, bool training) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> Parameters() override;
  std::vector<nn::Tensor*> StateTensors() override;

  size_t out_channels() const { return 4 * filters_; }

  void CollectQuantizable(std::vector<nn::Quantizable*>* out) override {
    bottleneck_.CollectQuantizable(out);
    branch1_.CollectQuantizable(out);
    branch2_.CollectQuantizable(out);
    branch3_.CollectQuantizable(out);
    pool_conv_.CollectQuantizable(out);
  }

 private:
  size_t filters_;
  nn::Conv1d bottleneck_;
  nn::Conv1d branch1_, branch2_, branch3_;
  nn::MaxPool1dSame pool_;
  nn::Conv1d pool_conv_;
  nn::BatchNorm1d bn_;
  nn::ReLU relu_;
};

/// Plain 3-stage CNN encoder (paper baseline "ConvNet").
class ConvNetBackbone : public Backbone {
 public:
  ConvNetBackbone(size_t input_length, size_t base_channels, Rng& rng);

  std::string name() const override { return "ConvNet"; }
  size_t feature_dim() const override { return feature_dim_; }
  size_t input_length() const override { return input_length_; }

  nn::Tensor Forward(const nn::Tensor& input, bool training) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> Parameters() override {
    return seq_.Parameters();
  }
  std::vector<nn::Tensor*> StateTensors() override {
    return seq_.StateTensors();
  }
  void CollectQuantizable(std::vector<nn::Quantizable*>* out) override {
    seq_.CollectQuantizable(out);
  }

 private:
  size_t input_length_;
  size_t feature_dim_;
  nn::Sequential seq_;
};

/// TSC ResNet encoder (default architecture in the paper).
class ResNetBackbone : public Backbone {
 public:
  ResNetBackbone(size_t input_length, size_t base_channels, Rng& rng);

  std::string name() const override { return "ResNet"; }
  size_t feature_dim() const override { return feature_dim_; }
  size_t input_length() const override { return input_length_; }

  nn::Tensor Forward(const nn::Tensor& input, bool training) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> Parameters() override {
    return seq_.Parameters();
  }
  std::vector<nn::Tensor*> StateTensors() override {
    return seq_.StateTensors();
  }
  void CollectQuantizable(std::vector<nn::Quantizable*>* out) override {
    seq_.CollectQuantizable(out);
  }

 private:
  size_t input_length_;
  size_t feature_dim_;
  nn::Sequential seq_;
};

/// InceptionTime encoder.
class InceptionTimeBackbone : public Backbone {
 public:
  InceptionTimeBackbone(size_t input_length, size_t filters, Rng& rng);

  std::string name() const override { return "InceptionTime"; }
  size_t feature_dim() const override { return feature_dim_; }
  size_t input_length() const override { return input_length_; }

  nn::Tensor Forward(const nn::Tensor& input, bool training) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> Parameters() override {
    return seq_.Parameters();
  }
  std::vector<nn::Tensor*> StateTensors() override {
    return seq_.StateTensors();
  }
  void CollectQuantizable(std::vector<nn::Quantizable*>* out) override {
    seq_.CollectQuantizable(out);
  }

 private:
  size_t input_length_;
  size_t feature_dim_;
  nn::Sequential seq_;
};

/// Patch-embedding Transformer encoder (the paper's "SiT-stem"-style
/// Transformer baseline): non-overlapping patches -> linear embedding +
/// learned positional encoding -> encoder blocks -> mean pooling.
class TransformerBackbone : public Backbone {
 public:
  struct Options {
    size_t patch_size = 8;
    size_t dim = 32;
    size_t heads = 4;
    size_t layers = 2;
    size_t ffn_hidden = 64;
    double dropout = 0.1;
  };

  TransformerBackbone(size_t input_length, const Options& options, Rng& rng);

  std::string name() const override { return "Transformer"; }
  size_t feature_dim() const override { return options_.dim; }
  size_t input_length() const override { return input_length_; }

  nn::Tensor Forward(const nn::Tensor& input, bool training) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> Parameters() override;
  std::vector<nn::Tensor*> StateTensors() override { return {}; }
  void CollectQuantizable(std::vector<nn::Quantizable*>* out) override {
    patch_embed_.CollectQuantizable(out);
    for (auto& b : blocks_) b->CollectQuantizable(out);
  }

 private:
  size_t input_length_;
  Options options_;
  size_t num_patches_;
  nn::Linear patch_embed_;
  nn::Parameter pos_embed_;  // [T, D]
  std::vector<std::unique_ptr<nn::TransformerEncoderBlock>> blocks_;
  nn::LayerNorm final_norm_;
  std::vector<size_t> cached_batch_;
};

/// Canonical NN backbone names.
const std::vector<std::string>& BackboneNames();

/// Builds a backbone by name ("ConvNet", "ResNet", "InceptionTime",
/// "Transformer") sized for `input_length` windows.
StatusOr<std::unique_ptr<Backbone>> BuildBackbone(const std::string& name,
                                                  size_t input_length,
                                                  Rng& rng);

}  // namespace kdsel::selectors

#endif  // KDSEL_SELECTORS_BACKBONE_H_
