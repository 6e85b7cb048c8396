#ifndef KDSEL_NN_CONV_H_
#define KDSEL_NN_CONV_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "nn/quantize.h"

namespace kdsel::nn {

/// 1-D convolution over [B, C_in, L] -> [B, C_out, L] with stride 1 and
/// "same" zero padding (pad = (K-1)/2 left, K/2 right for even K). The
/// forward runs the `conv1d_forward` kernel (nn/kernels/kernels.h) in
/// training and both inference precisions. Int8 inference (nn/quantize.h)
/// feeds that kernel the quantized input and weights widened to float:
/// symmetric scales keep the zero padding exact (zero-point 0), and while
/// C_in*K <= 1040 every partial sum is an integer below 2^24, so the float
/// sums equal the int32 ones. Wider layers use im2col + `i8_matmul_tb`.
/// The backward runs the `conv1d_backward` kernel per batch chunk into
/// per-shard weight/bias gradient scratch, summed in ascending shard
/// order, so gradients are the same at any thread count.
class Conv1d : public Module, public Quantizable {
 public:
  Conv1d(size_t in_channels, size_t out_channels, size_t kernel_size,
         Rng& rng, bool use_bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
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

  size_t in_channels() const { return in_channels_; }
  size_t out_channels() const { return out_channels_; }
  size_t kernel_size() const { return kernel_size_; }

 private:
  Tensor ForwardInt8(const Tensor& input) const;
  // Int8 forward for layers past the exact-float bound (C_in*K > 1040).
  Tensor ForwardInt8Im2col(const Tensor& input) const;

  size_t in_channels_;
  size_t out_channels_;
  size_t kernel_size_;
  bool use_bias_;
  Parameter weight_;  // [C_out, C_in, K]
  Parameter bias_;    // [C_out]
  Tensor cached_input_;
  // Int8 inference state; empty/false unless quantized.
  bool quantized_ = false;
  bool calibrating_ = false;
  float act_absmax_ = 0.0f;
  float act_scale_ = 0.0f;
  std::vector<int8_t> weight_q_;      // [C_out, C_in*K]
  std::vector<float> weight_qf_;      // weight_q_ widened; empty past 1040
  std::vector<float> requant_scale_;  // [C_out]
};

/// Batch normalization over the channel dimension. Accepts [B, C, L]
/// (per-channel stats over B*L) or [B, F] (per-feature stats over B).
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(size_t num_features, double momentum = 0.1,
                       double eps = 1e-5);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> StateTensors() override {
    return {&running_mean_, &running_var_};
  }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  /// Exposed mutably for serialization (running stats are state, not
  /// parameters, but must persist with the model).
  Tensor& mutable_running_mean() { return running_mean_; }
  Tensor& mutable_running_var() { return running_var_; }

 private:
  size_t num_features_;
  double momentum_;
  double eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;
  // Forward cache for backward.
  Tensor cached_xhat_;
  std::vector<double> cached_inv_std_;
  Shape cached_shape_;
  // Reused per-call stat scratch (capacity persists across batches so
  // steady-state training stays allocation-free).
  std::vector<double> mean_scratch_, var_scratch_;
  std::vector<double> sum_dy_scratch_, sum_dy_xhat_scratch_;
};

/// Global average pooling: [B, C, L] -> [B, C].
class GlobalAvgPool1d : public Module {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  Shape cached_shape_;
};

/// Max pooling with window 3, stride 1, same padding: [B,C,L] -> [B,C,L].
/// (Used by the InceptionTime max-pool branch.)
class MaxPool1dSame : public Module {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  Tensor cached_input_;
  std::vector<int32_t> argmax_;
};

}  // namespace kdsel::nn

#endif  // KDSEL_NN_CONV_H_
