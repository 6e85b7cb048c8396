#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "nn/kernels/kernels.h"
#include "nn/workspace.h"
#include "obs/trace.h"

namespace kdsel::nn {

namespace {

// Backward shards gradient accumulation over batch chunks. The shard
// count depends only on the batch size (never on the thread count), and
// the shards are reduced serially in ascending order, so gradients are
// bitwise-identical at any KDSEL_THREADS setting.
constexpr size_t kMaxGradShards = 16;

size_t BatchGrain(size_t batch) {
  return std::max<size_t>(1, (batch + kMaxGradShards - 1) / kMaxGradShards);
}

// Int8 conv sums in float while exact: C_in*K * 127^2 < 2^24.
constexpr size_t kMaxExactFloatTaps = 1040;

}  // namespace

Conv1d::Conv1d(size_t in_channels, size_t out_channels, size_t kernel_size,
               Rng& rng, bool use_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      use_bias_(use_bias),
      weight_("conv1d.weight",
              Tensor({out_channels, in_channels, kernel_size})),
      bias_("conv1d.bias", Tensor({out_channels})) {
  KDSEL_CHECK(kernel_size >= 1);
  InitHeNormal(weight_.value, in_channels * kernel_size, rng);
}

std::vector<Parameter*> Conv1d::Parameters() {
  if (use_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Conv1d::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 3 && input.dim(1) == in_channels_);
  if (!training && quantized_) return ForwardInt8(input);
  KDSEL_SPAN("nn.conv1d.forward");
  if (training) {
    cached_input_ = input;
  } else if (calibrating_) {
    act_absmax_ = std::max(act_absmax_, AbsMax(input.raw(), input.size()));
  }
  const size_t B = input.dim(0), L = input.dim(2);
  const size_t K = kernel_size_;
  Tensor out;
  out.Resize({B, out_channels_, L});  // conv1d_forward overwrites it all
  const kernels::Ops& ops = kernels::Dispatch();
  const float* bias = use_bias_ ? bias_.value.raw() : nullptr;
  // Each batch item writes a disjoint slice of `out`, so batch-parallel
  // execution is race-free and bitwise-deterministic.
  ParallelFor(B, 1, [&](size_t b_begin, size_t b_end) {
    ScratchBuffer scratch(kernels::Conv1dScratchFloats(in_channels_, K, L));
    ops.conv1d_forward(input.raw(), weight_.value.raw(), bias, out.raw(),
                       in_channels_, out_channels_, K, L, b_begin, b_end,
                       scratch.data());
  });
  return out;
}

Tensor Conv1d::ForwardInt8(const Tensor& input) const {
  KDSEL_SPAN("nn.conv1d.forward_int8");
  if (in_channels_ * kernel_size_ > kMaxExactFloatTaps) {
    return ForwardInt8Im2col(input);
  }
  const size_t B = input.dim(0), L = input.dim(2);
  const size_t K = kernel_size_;
  const size_t n = in_channels_ * L;
  Tensor out;
  out.Resize({B, out_channels_, L});
  const kernels::Ops& ops = kernels::Dispatch();
  const float* x = input.raw();
  float* y = out.raw();
  const float inv_scale = 1.0f / act_scale_;
  const float* bias = use_bias_ ? bias_.value.raw() : nullptr;
  // The fp32 conv kernel over integer-valued floats: quantize the input,
  // widen it, and convolve it with the widened int8 weights. Every
  // partial sum is an integer below 2^24, so the float sum is the exact
  // int32 sum in any order, and the requantize is i8_matmul_tb's. Each
  // batch item writes a disjoint slice of `out`, so batch-parallel
  // execution stays race-free and bitwise-deterministic.
  ParallelFor(B, 1, [&](size_t b_begin, size_t b_end) {
    // Pool-backed scratch (4 int8 lanes per float slot), per chunk.
    ScratchBuffer xq_buf((n + 3) / 4);
    ScratchBuffer xf_buf(n);
    ScratchBuffer scratch(kernels::Conv1dScratchFloats(in_channels_, K, L));
    int8_t* xq = reinterpret_cast<int8_t*>(xq_buf.data());
    float* xf = xf_buf.data();
    for (size_t b = b_begin; b < b_end; ++b) {
      ops.i8_quantize(x + b * n, inv_scale, xq, n);
      for (size_t i = 0; i < n; ++i) xf[i] = static_cast<float>(xq[i]);
      float* yb = y + b * out_channels_ * L;
      ops.conv1d_forward(xf, weight_qf_.data(), nullptr, yb, in_channels_,
                         out_channels_, K, L, 0, 1, scratch.data());
      for (size_t co = 0; co < out_channels_; ++co) {
        float* yrow = yb + co * L;
        const float s = requant_scale_[co];
        if (bias == nullptr) {
          ops.scale(yrow, s, L);  // s * acc: multiplication commutes
        } else {
          for (size_t t = 0; t < L; ++t) {
            yrow[t] = std::fmaf(s, yrow[t], bias[co]);
          }
        }
      }
    }
  });
  return out;
}

Tensor Conv1d::ForwardInt8Im2col(const Tensor& input) const {
  const size_t B = input.dim(0), L = input.dim(2);
  const size_t K = kernel_size_;
  const size_t CK = in_channels_ * K;
  const ptrdiff_t pad = static_cast<ptrdiff_t>((K - 1) / 2);
  Tensor out;
  out.Resize({B, out_channels_, L});
  const kernels::Ops& ops = kernels::Dispatch();
  const float* x = input.raw();
  float* y = out.raw();
  const float inv_scale = 1.0f / act_scale_;
  const float* bias = use_bias_ ? bias_.value.raw() : nullptr;
  // im2col per batch item: quantize [C_in, L] once, then gather the K
  // taps of each output position into a [L, C_in*K] int8 row block and
  // run the dequantizing matmul against the [C_out, C_in*K] weights.
  // Each batch item writes a disjoint slice of `out`, so batch-parallel
  // execution stays race-free and bitwise-deterministic; the int8
  // accumulation itself is exact, so chunking cannot change results.
  ParallelFor(B, 1, [&](size_t b_begin, size_t b_end) {
    // Pool-backed scratch (4 int8 lanes per float slot), per chunk.
    ScratchBuffer xq_buf((in_channels_ * L + 3) / 4);
    ScratchBuffer col_buf((L * CK + 3) / 4);
    ScratchBuffer tile(L * out_channels_);  // [L, C_out] pre-transpose
    int8_t* xq = reinterpret_cast<int8_t*>(xq_buf.data());
    int8_t* col = reinterpret_cast<int8_t*>(col_buf.data());
    for (size_t b = b_begin; b < b_end; ++b) {
      ops.i8_quantize(x + b * in_channels_ * L, inv_scale, xq,
                      in_channels_ * L);
      for (size_t t = 0; t < L; ++t) {
        int8_t* crow = col + t * CK;
        for (size_t ci = 0; ci < in_channels_; ++ci) {
          const int8_t* xrow = xq + ci * L;
          for (size_t k = 0; k < K; ++k) {
            const ptrdiff_t src =
                static_cast<ptrdiff_t>(t) + static_cast<ptrdiff_t>(k) - pad;
            crow[ci * K + k] =
                (src >= 0 && src < static_cast<ptrdiff_t>(L))
                    ? xrow[static_cast<size_t>(src)]
                    : int8_t{0};
          }
        }
      }
      ops.i8_matmul_tb(col, weight_q_.data(), tile.data(), CK, out_channels_,
                       requant_scale_.data(), bias, 0, L);
      float* yb = y + b * out_channels_ * L;
      for (size_t t = 0; t < L; ++t) {
        const float* trow = tile.data() + t * out_channels_;
        for (size_t co = 0; co < out_channels_; ++co) yb[co * L + t] = trow[co];
      }
    }
  });
  return out;
}

void Conv1d::BeginQuantCalibration() {
  ClearQuantization();
  calibrating_ = true;
}

void Conv1d::EndQuantCalibration() {
  QuantizeWithScales({QuantScaleFromAbsMax(act_absmax_)});
}

std::vector<float> Conv1d::ActivationScales() const {
  KDSEL_CHECK(quantized_);
  return {act_scale_};
}

void Conv1d::QuantizeWithScales(const std::vector<float>& scales) {
  KDSEL_CHECK(scales.size() == 1 && scales[0] > 0.0f);
  act_scale_ = scales[0];
  const size_t CK = in_channels_ * kernel_size_;
  weight_q_.resize(out_channels_ * CK);
  requant_scale_.resize(out_channels_);
  // Weight rows [C_out, C_in, K] are contiguous [C_out, C_in*K] blocks —
  // exactly the im2col contraction layout.
  QuantizeWeightRows(weight_.value.raw(), out_channels_, CK, act_scale_,
                     weight_q_.data(), requant_scale_.data());
  // Built here, never in the const forward that serving threads share.
  weight_qf_.clear();
  if (CK <= kMaxExactFloatTaps) {
    weight_qf_.assign(weight_q_.begin(), weight_q_.end());
  }
  calibrating_ = false;
  quantized_ = true;
}

void Conv1d::ClearQuantization() {
  quantized_ = false;
  calibrating_ = false;
  act_absmax_ = 0.0f;
  act_scale_ = 0.0f;
  weight_q_.clear();
  weight_q_.shrink_to_fit();
  weight_qf_.clear();
  weight_qf_.shrink_to_fit();
  requant_scale_.clear();
  requant_scale_.shrink_to_fit();
}

Tensor Conv1d::Backward(const Tensor& grad_output) {
  KDSEL_SPAN("nn.conv1d.backward");
  const size_t B = cached_input_.dim(0), L = cached_input_.dim(2);
  const size_t K = kernel_size_;
  KDSEL_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == B &&
              grad_output.dim(1) == out_channels_ && grad_output.dim(2) == L);
  Tensor grad_input;
  grad_input.Resize({B, in_channels_, L});  // conv1d_backward overwrites it

  // grad_input slices are disjoint per batch item, but weight/bias
  // gradients reduce across the batch: each batch chunk accumulates into
  // its own scratch shard, reduced serially below in ascending shard
  // order so the result is independent of the thread count.
  const kernels::Ops& ops = kernels::Dispatch();
  const size_t wsize = out_channels_ * in_channels_ * K;
  const size_t grain = BatchGrain(B);
  const size_t shards = ParallelChunkCount(B, grain);
  ScratchBuffer gw_scratch(shards * wsize);
  gw_scratch.Zero();
  ScratchBuffer gb_scratch(use_bias_ ? shards * out_channels_ : 0);
  gb_scratch.Zero();

  ParallelFor(B, grain, [&](size_t b_begin, size_t b_end) {
    const size_t shard = b_begin / grain;
    ScratchBuffer scratch(
        kernels::Conv1dBackwardScratchFloats(in_channels_, out_channels_, K,
                                             L));
    ops.conv1d_backward(
        cached_input_.raw(), grad_output.raw(), weight_.value.raw(),
        grad_input.raw(), gw_scratch.data() + shard * wsize,
        use_bias_ ? gb_scratch.data() + shard * out_channels_ : nullptr,
        in_channels_, out_channels_, K, L, b_begin, b_end, scratch.data());
  });

  float* gw_out = weight_.grad.raw();
  for (size_t shard = 0; shard < shards; ++shard) {
    ops.add(gw_out, gw_scratch.data() + shard * wsize, wsize);
    if (use_bias_) {
      ops.add(bias_.grad.raw(), gb_scratch.data() + shard * out_channels_,
              out_channels_);
    }
  }
  return grad_input;
}

BatchNorm1d::BatchNorm1d(size_t num_features, double momentum, double eps)
    : num_features_(num_features),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::Full({num_features}, 1.0f)),
      beta_("bn.beta", Tensor({num_features})),
      running_mean_({num_features}),
      running_var_(Tensor::Full({num_features}, 1.0f)) {}

Tensor BatchNorm1d::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 2 || input.rank() == 3);
  const bool has_length = input.rank() == 3;
  const size_t B = input.dim(0);
  const size_t C = has_length ? input.dim(1) : input.dim(1);
  KDSEL_CHECK(C == num_features_);
  const size_t L = has_length ? input.dim(2) : 1;
  const size_t n = B * L;

  if (training) {
    cached_shape_ = input.shape();
    mean_scratch_.assign(C, 0.0);
    var_scratch_.assign(C, 0.0);
    std::vector<double>& mean = mean_scratch_;
    std::vector<double>& var = var_scratch_;
    for (size_t b = 0; b < B; ++b) {
      for (size_t c = 0; c < C; ++c) {
        const float* row = input.raw() + (b * C + c) * L;
        double acc = 0.0;
        for (size_t t = 0; t < L; ++t) acc += row[t];
        mean[c] += acc;
      }
    }
    for (size_t c = 0; c < C; ++c) mean[c] /= static_cast<double>(n);
    for (size_t b = 0; b < B; ++b) {
      for (size_t c = 0; c < C; ++c) {
        const float* row = input.raw() + (b * C + c) * L;
        double acc = 0.0;
        for (size_t t = 0; t < L; ++t) {
          double d = row[t] - mean[c];
          acc += d * d;
        }
        var[c] += acc;
      }
    }
    for (size_t c = 0; c < C; ++c) var[c] /= static_cast<double>(n);
    for (size_t c = 0; c < C; ++c) {
      running_mean_[c] = static_cast<float>(
          (1 - momentum_) * running_mean_[c] + momentum_ * mean[c]);
      running_var_[c] = static_cast<float>(
          (1 - momentum_) * running_var_[c] + momentum_ * var[c]);
    }
    cached_inv_std_.assign(C, 0.0);
    for (size_t c = 0; c < C; ++c) {
      cached_inv_std_[c] = 1.0 / std::sqrt(var[c] + eps_);
    }
    cached_xhat_.Resize(input.shape());
  }

  // Inference normalizes with the running statistics and keeps no xhat.
  Tensor out;
  out.Resize(input.shape());  // Every element written below.
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      float* xh = training ? cached_xhat_.raw() + (b * C + c) * L : nullptr;
      float* o = out.raw() + (b * C + c) * L;
      const float g = gamma_.value[c], bb = beta_.value[c];
      const double m = training ? mean_scratch_[c] : running_mean_[c];
      const double is = training ? cached_inv_std_[c]
                                 : 1.0 / std::sqrt(running_var_[c] + eps_);
      for (size_t t = 0; t < L; ++t) {
        const float v = static_cast<float>((row[t] - m) * is);
        if (xh != nullptr) xh[t] = v;
        o[t] = g * v + bb;
      }
    }
  }
  return out;
}

Tensor BatchNorm1d::Backward(const Tensor& grad_output) {
  KDSEL_CHECK(!cached_xhat_.empty());
  KDSEL_CHECK(grad_output.shape() == cached_shape_);
  const bool has_length = cached_shape_.size() == 3;
  const size_t B = cached_shape_[0];
  const size_t C = cached_shape_[1];
  const size_t L = has_length ? cached_shape_[2] : 1;
  const double n = static_cast<double>(B * L);

  // Standard BN backward:
  // dxhat = dy * gamma
  // dx = (1/N) * inv_std * (N*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
  sum_dy_scratch_.assign(C, 0.0);
  sum_dy_xhat_scratch_.assign(C, 0.0);
  std::vector<double>& sum_dy = sum_dy_scratch_;
  std::vector<double>& sum_dy_xhat = sum_dy_xhat_scratch_;
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* gy = grad_output.raw() + (b * C + c) * L;
      const float* xh = cached_xhat_.raw() + (b * C + c) * L;
      double a = 0.0, d = 0.0;
      for (size_t t = 0; t < L; ++t) {
        a += gy[t];
        d += static_cast<double>(gy[t]) * xh[t];
      }
      sum_dy[c] += a;
      sum_dy_xhat[c] += d;
    }
  }
  for (size_t c = 0; c < C; ++c) {
    beta_.grad[c] += static_cast<float>(sum_dy[c]);
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat[c]);
  }

  Tensor grad_input;
  grad_input.Resize(cached_shape_);  // Every element written below.
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* gy = grad_output.raw() + (b * C + c) * L;
      const float* xh = cached_xhat_.raw() + (b * C + c) * L;
      float* gx = grad_input.raw() + (b * C + c) * L;
      const double g = gamma_.value[c];
      const double is = cached_inv_std_[c];
      for (size_t t = 0; t < L; ++t) {
        double dxhat = gy[t] * g;
        gx[t] = static_cast<float>(
            is * (dxhat - sum_dy[c] * g / n - xh[t] * sum_dy_xhat[c] * g / n));
      }
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool1d::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 3);
  if (training) cached_shape_ = input.shape();
  const size_t B = input.dim(0), C = input.dim(1), L = input.dim(2);
  Tensor out({B, C});
  const float inv = 1.0f / static_cast<float>(L);
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      float acc = 0.0f;
      for (size_t t = 0; t < L; ++t) acc += row[t];
      out[b * C + c] = acc * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool1d::Backward(const Tensor& grad_output) {
  const size_t B = cached_shape_[0], C = cached_shape_[1],
               L = cached_shape_[2];
  KDSEL_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == B &&
              grad_output.dim(1) == C);
  Tensor grad_input(cached_shape_);
  const float inv = 1.0f / static_cast<float>(L);
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float g = grad_output[b * C + c] * inv;
      float* row = grad_input.raw() + (b * C + c) * L;
      for (size_t t = 0; t < L; ++t) row[t] = g;
    }
  }
  return grad_input;
}

Tensor MaxPool1dSame::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 3);
  const size_t B = input.dim(0), C = input.dim(1), L = input.dim(2);
  Tensor out(input.shape());
  if (training) {
    cached_input_ = input;
    argmax_.assign(B * C * L, 0);
  }
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      float* orow = out.raw() + (b * C + c) * L;
      int32_t* arow = training ? argmax_.data() + (b * C + c) * L : nullptr;
      for (size_t t = 0; t < L; ++t) {
        size_t lo = t > 0 ? t - 1 : 0;
        size_t hi = std::min(L - 1, t + 1);
        size_t best = lo;
        for (size_t u = lo + 1; u <= hi; ++u) {
          if (row[u] > row[best]) best = u;
        }
        orow[t] = row[best];
        if (arow != nullptr) arow[t] = static_cast<int32_t>(best);
      }
    }
  }
  return out;
}

Tensor MaxPool1dSame::Backward(const Tensor& grad_output) {
  KDSEL_CHECK(SameShape(grad_output, cached_input_));
  const size_t B = cached_input_.dim(0), C = cached_input_.dim(1),
               L = cached_input_.dim(2);
  Tensor grad_input(cached_input_.shape());
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* gy = grad_output.raw() + (b * C + c) * L;
      float* gx = grad_input.raw() + (b * C + c) * L;
      const int32_t* arow = argmax_.data() + (b * C + c) * L;
      for (size_t t = 0; t < L; ++t) {
        gx[static_cast<size_t>(arow[t])] += gy[t];
      }
    }
  }
  return grad_input;
}

}  // namespace kdsel::nn
