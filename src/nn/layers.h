#ifndef KDSEL_NN_LAYERS_H_
#define KDSEL_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "nn/quantize.h"

namespace kdsel::nn {

/// Fully-connected layer: [B, in] -> [B, out], y = x W^T + b.
/// Supports int8 inference (nn/quantize.h): one per-tensor input scale,
/// per-output-row weight scales, bias fused into the requantize.
class Linear : public Module, public Quantizable {
 public:
  Linear(size_t in_features, size_t out_features, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  /// BackwardParams, then dL/d(input) = grad_output W.
  Tensor Backward(const Tensor& grad_output) override;
  /// The parameter half of Backward: accumulates the weight and bias
  /// gradients exactly as Backward does and computes no input gradient,
  /// for a layer whose input is frozen (MKI's text branch). Same
  /// once-per-training-Forward contract as Backward.
  void BackwardParams(const Tensor& grad_output);
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }
  void CollectQuantizable(std::vector<Quantizable*>* out) override {
    out->push_back(this);
  }

  void BeginQuantCalibration() override;
  void EndQuantCalibration() override;
  size_t NumActivationScales() const override { return 1; }
  std::vector<float> ActivationScales() const override;
  void QuantizeWithScales(const std::vector<float>& scales) override;
  void ClearQuantization() override;
  bool IsQuantized() const override { return quantized_; }

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

 private:
  Tensor ForwardInt8(const Tensor& input) const;

  size_t in_features_;
  size_t out_features_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor cached_input_;
  // Int8 inference state; empty/false unless quantized.
  bool quantized_ = false;
  bool calibrating_ = false;
  float act_absmax_ = 0.0f;
  float act_scale_ = 0.0f;
  std::vector<int8_t> weight_q_;      // [out, in]
  std::vector<float> requant_scale_;  // [out] = act_scale * w_scale[o]
};

/// Elementwise ReLU; shape-preserving.
class ReLU : public Module {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  Tensor cached_output_;
};

/// Elementwise GELU (tanh approximation); shape-preserving.
class Gelu : public Module {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  Tensor cached_input_;
};

/// Inverted dropout. Deterministic given the module's RNG stream. Active
/// only when training; identity at inference.
class Dropout : public Module {
 public:
  Dropout(double rate, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  double rate_;
  Rng rng_;
  Tensor mask_;
  bool last_training_ = false;
};

}  // namespace kdsel::nn

#endif  // KDSEL_NN_LAYERS_H_
