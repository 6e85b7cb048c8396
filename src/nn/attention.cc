#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/workspace.h"

namespace kdsel::nn {

LayerNorm::LayerNorm(size_t dim, double eps)
    : dim_(dim),
      eps_(eps),
      gamma_("ln.gamma", Tensor::Full({dim}, 1.0f)),
      beta_("ln.beta", Tensor({dim})) {}

Tensor LayerNorm::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() >= 2 && input.shape().back() == dim_);
  const size_t rows = input.size() / dim_;
  Tensor out;
  out.Resize(input.shape());  // Every element written below.
  if (training) {
    cached_xhat_.Resize(input.shape());
    cached_inv_std_.assign(rows, 0.0f);
  }
  for (size_t r = 0; r < rows; ++r) {
    const float* x = input.raw() + r * dim_;
    float* xh = training ? cached_xhat_.raw() + r * dim_ : nullptr;
    float* o = out.raw() + r * dim_;
    double mean = 0.0;
    for (size_t j = 0; j < dim_; ++j) mean += x[j];
    mean /= static_cast<double>(dim_);
    double var = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      double d = x[j] - mean;
      var += d * d;
    }
    var /= static_cast<double>(dim_);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    if (training) cached_inv_std_[r] = inv_std;
    for (size_t j = 0; j < dim_; ++j) {
      const float v = static_cast<float>((x[j] - mean) * inv_std);
      if (xh != nullptr) xh[j] = v;
      o[j] = gamma_.value[j] * v + beta_.value[j];
    }
  }
  return out;
}

Tensor LayerNorm::Backward(const Tensor& grad_output) {
  KDSEL_CHECK(SameShape(grad_output, cached_xhat_));
  const size_t rows = grad_output.size() / dim_;
  Tensor grad_input;
  grad_input.Resize(grad_output.shape());  // Every element written below.
  const double n = static_cast<double>(dim_);
  for (size_t r = 0; r < rows; ++r) {
    const float* gy = grad_output.raw() + r * dim_;
    const float* xh = cached_xhat_.raw() + r * dim_;
    float* gx = grad_input.raw() + r * dim_;
    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      double dxhat = static_cast<double>(gy[j]) * gamma_.value[j];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xh[j];
      gamma_.grad[j] += gy[j] * xh[j];
      beta_.grad[j] += gy[j];
    }
    const double inv_std = cached_inv_std_[r];
    for (size_t j = 0; j < dim_; ++j) {
      double dxhat = static_cast<double>(gy[j]) * gamma_.value[j];
      gx[j] = static_cast<float>(
          inv_std * (dxhat - sum_dxhat / n - xh[j] * sum_dxhat_xhat / n));
    }
  }
  return grad_input;
}

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng& rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_("attn.wq", Tensor({dim, dim})),
      wk_("attn.wk", Tensor({dim, dim})),
      wv_("attn.wv", Tensor({dim, dim})),
      wo_("attn.wo", Tensor({dim, dim})) {
  KDSEL_CHECK(dim % num_heads == 0);
  InitXavierUniform(wq_.value, dim, dim, rng);
  InitXavierUniform(wk_.value, dim, dim, rng);
  InitXavierUniform(wv_.value, dim, dim, rng);
  InitXavierUniform(wo_.value, dim, dim, rng);
}

std::vector<Parameter*> MultiHeadSelfAttention::Parameters() {
  return {&wq_, &wk_, &wv_, &wo_};
}

void MultiHeadSelfAttention::AttentionCore(const Tensor& q, const Tensor& k,
                                           const Tensor& v, Tensor* attn_out,
                                           Tensor* concat) const {
  const size_t B = q.dim(0), T = q.dim(1);
  const kernels::Ops& ops = kernels::Dispatch();
  attn_out->Resize({B, num_heads_, T, T});  // Every row softmaxed below.
  *concat = Tensor({B, T, dim_});           // Accumulated into: zero-init.
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  for (size_t b = 0; b < B; ++b) {
    for (size_t h = 0; h < num_heads_; ++h) {
      const size_t off = h * head_dim_;
      float* attn = attn_out->raw() + ((b * num_heads_ + h) * T) * T;
      // scores[i][j] = scale * q_i . k_j ; then softmax rows.
      for (size_t i = 0; i < T; ++i) {
        const float* qi = q.raw() + (b * T + i) * dim_ + off;
        float* srow = attn + i * T;
        for (size_t j = 0; j < T; ++j) {
          const float* kj = k.raw() + (b * T + j) * dim_ + off;
          srow[j] = ops.dot(qi, kj, head_dim_) * scale;
        }
        ops.softmax_row(srow, srow, T);
      }
      // concat output rows: out_i = sum_j attn[i][j] * v_j
      for (size_t i = 0; i < T; ++i) {
        const float* arow = attn + i * T;
        float* orow = concat->raw() + (b * T + i) * dim_ + off;
        for (size_t j = 0; j < T; ++j) {
          const float* vj = v.raw() + (b * T + j) * dim_ + off;
          ops.axpy(orow, arow[j], vj, head_dim_);
        }
      }
    }
  }
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 3 && input.dim(2) == dim_);
  if (!training && !calibrating_ && quantized_) return ForwardInt8(input);
  const size_t B = input.dim(0), T = input.dim(1);
  Tensor flat = input.Reshaped({B * T, dim_});
  if (calibrating_ && !training) {
    in_absmax_ = std::max(in_absmax_, AbsMax(flat.raw(), flat.size()));
  }
  Tensor q = MatMulTransposedB(flat, wq_.value).Reshaped({B, T, dim_});
  Tensor k = MatMulTransposedB(flat, wk_.value).Reshaped({B, T, dim_});
  Tensor v = MatMulTransposedB(flat, wv_.value).Reshaped({B, T, dim_});

  Tensor attn, concat;
  AttentionCore(q, k, v, &attn, &concat);
  if (calibrating_ && !training) {
    concat_absmax_ =
        std::max(concat_absmax_, AbsMax(concat.raw(), concat.size()));
  }
  Tensor out = MatMulTransposedB(concat.Reshaped({B * T, dim_}), wo_.value);
  if (training) {
    cached_input_ = input;
    cached_q_ = std::move(q);
    cached_k_ = std::move(k);
    cached_v_ = std::move(v);
    cached_attn_ = std::move(attn);
    cached_concat_ = std::move(concat);
  }
  return out.Reshaped({B, T, dim_});
}

Tensor MultiHeadSelfAttention::ForwardInt8(const Tensor& input) const {
  const size_t B = input.dim(0), T = input.dim(1);
  const size_t rows = B * T;
  const kernels::Ops& ops = kernels::Dispatch();
  // Quantize the flat input once; it feeds all three projections.
  ScratchBuffer iq_buf((rows * dim_ + 3) / 4);
  int8_t* iq = reinterpret_cast<int8_t*>(iq_buf.data());
  ops.i8_quantize(input.raw(), 1.0f / in_scale_, iq, rows * dim_);
  Tensor q, k, v;
  q.Resize({B, T, dim_});
  k.Resize({B, T, dim_});
  v.Resize({B, T, dim_});
  I8MatMulTbParallel(iq, wq_q_.data(), q.raw(), rows, dim_, dim_, rq_q_.data(),
                     nullptr);
  I8MatMulTbParallel(iq, wk_q_.data(), k.raw(), rows, dim_, dim_, rq_k_.data(),
                     nullptr);
  I8MatMulTbParallel(iq, wv_q_.data(), v.raw(), rows, dim_, dim_, rq_v_.data(),
                     nullptr);

  Tensor attn, concat;
  AttentionCore(q, k, v, &attn, &concat);

  ScratchBuffer cq_buf((rows * dim_ + 3) / 4);
  int8_t* cq = reinterpret_cast<int8_t*>(cq_buf.data());
  ops.i8_quantize(concat.raw(), 1.0f / concat_scale_, cq, rows * dim_);
  Tensor out;
  out.Resize({B, T, dim_});
  I8MatMulTbParallel(cq, wo_q_.data(), out.raw(), rows, dim_, dim_,
                     rq_o_.data(), nullptr);
  return out;
}

void MultiHeadSelfAttention::BeginQuantCalibration() {
  ClearQuantization();
  calibrating_ = true;
}

void MultiHeadSelfAttention::EndQuantCalibration() {
  QuantizeWithScales({QuantScaleFromAbsMax(in_absmax_),
                      QuantScaleFromAbsMax(concat_absmax_)});
}

std::vector<float> MultiHeadSelfAttention::ActivationScales() const {
  KDSEL_CHECK(quantized_);
  return {in_scale_, concat_scale_};
}

void MultiHeadSelfAttention::QuantizeWithScales(
    const std::vector<float>& scales) {
  KDSEL_CHECK(scales.size() == 2 && scales[0] > 0.0f && scales[1] > 0.0f);
  in_scale_ = scales[0];
  concat_scale_ = scales[1];
  wq_q_.resize(dim_ * dim_);
  wk_q_.resize(dim_ * dim_);
  wv_q_.resize(dim_ * dim_);
  wo_q_.resize(dim_ * dim_);
  rq_q_.resize(dim_);
  rq_k_.resize(dim_);
  rq_v_.resize(dim_);
  rq_o_.resize(dim_);
  QuantizeWeightRows(wq_.value.raw(), dim_, dim_, in_scale_, wq_q_.data(),
                     rq_q_.data());
  QuantizeWeightRows(wk_.value.raw(), dim_, dim_, in_scale_, wk_q_.data(),
                     rq_k_.data());
  QuantizeWeightRows(wv_.value.raw(), dim_, dim_, in_scale_, wv_q_.data(),
                     rq_v_.data());
  QuantizeWeightRows(wo_.value.raw(), dim_, dim_, concat_scale_, wo_q_.data(),
                     rq_o_.data());
  calibrating_ = false;
  quantized_ = true;
}

void MultiHeadSelfAttention::ClearQuantization() {
  quantized_ = false;
  calibrating_ = false;
  in_absmax_ = concat_absmax_ = 0.0f;
  in_scale_ = concat_scale_ = 0.0f;
  for (auto* v : {&wq_q_, &wk_q_, &wv_q_, &wo_q_}) {
    v->clear();
    v->shrink_to_fit();
  }
  for (auto* v : {&rq_q_, &rq_k_, &rq_v_, &rq_o_}) {
    v->clear();
    v->shrink_to_fit();
  }
}

Tensor MultiHeadSelfAttention::Backward(const Tensor& grad_output) {
  const size_t B = cached_input_.dim(0), T = cached_input_.dim(1);
  KDSEL_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == B &&
              grad_output.dim(1) == T && grad_output.dim(2) == dim_);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  const kernels::Ops& ops = kernels::Dispatch();
  Tensor gy_flat = grad_output.Reshaped({B * T, dim_});
  Tensor concat_flat = cached_concat_.Reshaped({B * T, dim_});
  wo_.grad.AddInPlace(MatMulTransposedA(gy_flat, concat_flat));
  Tensor d_concat =
      MatMul(gy_flat, wo_.value).Reshaped({B, T, dim_});  // [B,T,D]

  Tensor dq({B, T, dim_}), dk({B, T, dim_}), dv({B, T, dim_});
  ScratchBuffer d_attn(T * T);  // Fully rewritten per (b, h) below.

  for (size_t b = 0; b < B; ++b) {
    for (size_t h = 0; h < num_heads_; ++h) {
      const size_t off = h * head_dim_;
      const float* attn = cached_attn_.raw() + ((b * num_heads_ + h) * T) * T;
      // dV and dAttn.
      for (size_t i = 0; i < T; ++i) {
        const float* doi = d_concat.raw() + (b * T + i) * dim_ + off;
        const float* arow = attn + i * T;
        float* darow = d_attn.data() + i * T;
        for (size_t j = 0; j < T; ++j) {
          const float* vj = cached_v_.raw() + (b * T + j) * dim_ + off;
          float* dvj = dv.raw() + (b * T + j) * dim_ + off;
          darow[j] = ops.dot(doi, vj, head_dim_);
          ops.axpy(dvj, arow[j], doi, head_dim_);
        }
      }
      // Softmax backward per row -> dScores, then dQ, dK.
      for (size_t i = 0; i < T; ++i) {
        const float* arow = attn + i * T;
        float* darow = d_attn.data() + i * T;
        double dot = 0.0;
        for (size_t j = 0; j < T; ++j) dot += double(darow[j]) * arow[j];
        for (size_t j = 0; j < T; ++j) {
          darow[j] = static_cast<float>(arow[j] * (darow[j] - dot)) * scale;
        }
        // dQ_i += sum_j dS[i][j] K_j ; dK_j += dS[i][j] Q_i
        float* dqi = dq.raw() + (b * T + i) * dim_ + off;
        const float* qi = cached_q_.raw() + (b * T + i) * dim_ + off;
        for (size_t j = 0; j < T; ++j) {
          const float ds = darow[j];
          const float* kj = cached_k_.raw() + (b * T + j) * dim_ + off;
          float* dkj = dk.raw() + (b * T + j) * dim_ + off;
          ops.axpy(dqi, ds, kj, head_dim_);
          ops.axpy(dkj, ds, qi, head_dim_);
        }
      }
    }
  }

  Tensor x_flat = cached_input_.Reshaped({B * T, dim_});
  Tensor dq_flat = dq.Reshaped({B * T, dim_});
  Tensor dk_flat = dk.Reshaped({B * T, dim_});
  Tensor dv_flat = dv.Reshaped({B * T, dim_});
  wq_.grad.AddInPlace(MatMulTransposedA(dq_flat, x_flat));
  wk_.grad.AddInPlace(MatMulTransposedA(dk_flat, x_flat));
  wv_.grad.AddInPlace(MatMulTransposedA(dv_flat, x_flat));

  Tensor dx = MatMul(dq_flat, wq_.value);
  dx.AddInPlace(MatMul(dk_flat, wk_.value));
  dx.AddInPlace(MatMul(dv_flat, wv_.value));
  return dx.Reshaped({B, T, dim_});
}

TransformerEncoderBlock::TransformerEncoderBlock(size_t dim, size_t num_heads,
                                                 size_t ffn_hidden,
                                                 double dropout_rate, Rng& rng)
    : dim_(dim),
      ln1_(dim),
      attn_(dim, num_heads, rng),
      drop1_(dropout_rate, rng),
      ln2_(dim),
      ffn1_(dim, ffn_hidden, rng),
      ffn2_(ffn_hidden, dim, rng),
      drop2_(dropout_rate, rng) {}

std::vector<Parameter*> TransformerEncoderBlock::Parameters() {
  std::vector<Parameter*> params;
  for (Module* m : std::initializer_list<Module*>{&ln1_, &attn_, &ln2_,
                                                  &ffn1_, &ffn2_}) {
    for (Parameter* p : m->Parameters()) params.push_back(p);
  }
  return params;
}

Tensor TransformerEncoderBlock::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 3 && input.dim(2) == dim_);
  if (training) cached_shape_ = input.shape();
  const size_t B = input.dim(0), T = input.dim(1);

  // Attention sublayer with residual.
  Tensor a = ln1_.Forward(input, training);
  a = attn_.Forward(a, training);
  a = drop1_.Forward(a, training);
  Tensor x1 = Add(input, a);

  // FFN sublayer (token-wise; flatten to 2-D for Linear) with residual.
  Tensor f = ln2_.Forward(x1, training);
  f = ffn1_.Forward(f.Reshaped({B * T, dim_}), training);
  f = gelu_.Forward(f, training);
  f = ffn2_.Forward(f, training);
  f = drop2_.Forward(f.Reshaped({B, T, dim_}), training);
  return Add(x1, f);
}

Tensor TransformerEncoderBlock::Backward(const Tensor& grad_output) {
  const size_t B = cached_shape_[0], T = cached_shape_[1];
  // FFN path.
  Tensor gf = drop2_.Backward(grad_output);
  gf = ffn2_.Backward(gf.Reshaped({B * T, dim_}));
  gf = gelu_.Backward(gf);
  gf = ffn1_.Backward(gf);
  gf = ln2_.Backward(gf.Reshaped({B, T, dim_}));
  // Residual: gradient w.r.t. x1 flows both through FFN path and directly.
  Tensor gx1 = Add(grad_output, gf);
  // Attention path.
  Tensor ga = drop1_.Backward(gx1);
  ga = attn_.Backward(ga);
  ga = ln1_.Backward(ga);
  return Add(gx1, ga);
}

}  // namespace kdsel::nn
