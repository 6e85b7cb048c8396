#ifndef KDSEL_NN_ATTENTION_H_
#define KDSEL_NN_ATTENTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "nn/quantize.h"

namespace kdsel::nn {

/// Layer normalization over the last dimension of [B, T, D] or [B, D].
class LayerNorm : public Module {
 public:
  explicit LayerNorm(size_t dim, double eps = 1e-5);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override { return {&gamma_, &beta_}; }

 private:
  size_t dim_;
  double eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
};

/// Multi-head self-attention over [B, T, D] (post-norm omitted; this is
/// the bare attention sublayer). D must be divisible by num_heads.
/// Int8 inference quantizes the four projections (the O(D^2) work); the
/// attention core — QK^T, softmax, PV — stays fp32. Two activation
/// scales: the flat input (feeds Wq/Wk/Wv) and the concat (feeds Wo).
class MultiHeadSelfAttention : public Module, public Quantizable {
 public:
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  void CollectQuantizable(std::vector<Quantizable*>* out) override {
    out->push_back(this);
  }

  void BeginQuantCalibration() override;
  void EndQuantCalibration() override;
  size_t NumActivationScales() const override { return 2; }
  std::vector<float> ActivationScales() const override;
  void QuantizeWithScales(const std::vector<float>& scales) override;
  void ClearQuantization() override;
  bool IsQuantized() const override { return quantized_; }

 private:
  /// Shared fp32 attention core over [B, T, D] projections: writes the
  /// softmaxed scores [B, H, T, T] to `attn_out` and the per-head
  /// outputs [B, T, D] to `concat` (the fp32 and int8 paths both run it).
  void AttentionCore(const Tensor& q, const Tensor& k, const Tensor& v,
                     Tensor* attn_out, Tensor* concat) const;
  Tensor ForwardInt8(const Tensor& input) const;

  size_t dim_;
  size_t num_heads_;
  size_t head_dim_;
  Parameter wq_, wk_, wv_, wo_;  // each [D, D]
  // Training-forward caches.
  Tensor cached_input_;                 // [B, T, D]
  Tensor cached_q_, cached_k_, cached_v_;  // [B, T, D]
  Tensor cached_attn_;                  // [B, H, T, T] softmaxed
  Tensor cached_concat_;                // [B, T, D] pre-Wo
  // Int8 inference state; empty/false unless quantized.
  bool quantized_ = false;
  bool calibrating_ = false;
  float in_absmax_ = 0.0f, concat_absmax_ = 0.0f;
  float in_scale_ = 0.0f, concat_scale_ = 0.0f;
  std::vector<int8_t> wq_q_, wk_q_, wv_q_, wo_q_;     // each [D, D]
  std::vector<float> rq_q_, rq_k_, rq_v_, rq_o_;      // each [D]
};

/// One pre-norm Transformer encoder block:
///   x = x + MHSA(LN(x));  x = x + FFN(LN(x))
/// with FFN = Linear(D, hidden) -> GELU -> Linear(hidden, D).
class TransformerEncoderBlock : public Module {
 public:
  TransformerEncoderBlock(size_t dim, size_t num_heads, size_t ffn_hidden,
                          double dropout_rate, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  void CollectQuantizable(std::vector<Quantizable*>* out) override {
    attn_.CollectQuantizable(out);
    ffn1_.CollectQuantizable(out);
    ffn2_.CollectQuantizable(out);
  }

 private:
  size_t dim_;
  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  Dropout drop1_;
  LayerNorm ln2_;
  Linear ffn1_;
  Gelu gelu_;
  Linear ffn2_;
  Dropout drop2_;
  Shape cached_shape_;
};

}  // namespace kdsel::nn

#endif  // KDSEL_NN_ATTENTION_H_
