// Scalar reference kernels: the original loop nests from tensor.cc /
// conv.cc / loss.cc / optimizer.cc, verbatim except for the removed
// `v == 0.0f` skip branches (which silently turned 0 * NaN/Inf into 0
// and cost a branch per element). For finite inputs the accumulation
// order — and therefore every bit of the result — is unchanged from the
// pre-kernel code.

#include <algorithm>
#include <cmath>

#include "common/annotations.h"
#include "nn/kernels/kernels.h"

namespace kdsel::nn::kernels {
namespace scalar {
namespace {

// Column tile for the cache-blocked matmul kernels: a B panel of
// kColTile columns stays resident in L1/L2 while a block of output rows
// streams over it. Must not affect results — each c[i][j] still
// accumulates over kk in ascending order.
constexpr size_t kColTile = 128;

KDSEL_HOT void MatMulRows(const float* a, const float* b, float* c, size_t k,
                          size_t m, size_t i0, size_t i1) {
  for (size_t jb = 0; jb < m; jb += kColTile) {
    const size_t jend = std::min(m, jb + kColTile);
    for (size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * m;
      for (size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* brow = b + kk * m;
        for (size_t j = jb; j < jend; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

KDSEL_HOT void MatMulTbRows(const float* a, const float* b, float* c,
                            size_t k, size_t m, size_t i0, size_t i1) {
  for (size_t jb = 0; jb < m; jb += kColTile) {
    const size_t jend = std::min(m, jb + kColTile);
    for (size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * m;
      for (size_t j = jb; j < jend; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] = acc;
      }
    }
  }
}

KDSEL_HOT void MatMulTaRows(const float* a, const float* b, float* c,
                            size_t n, size_t k, size_t m, size_t k0,
                            size_t k1) {
  for (size_t jb = 0; jb < m; jb += kColTile) {
    const size_t jend = std::min(m, jb + kColTile);
    for (size_t kk = k0; kk < k1; ++kk) {
      float* crow = c + kk * m;
      for (size_t i = 0; i < n; ++i) {
        const float av = a[i * k + kk];
        const float* brow = b + i * m;
        for (size_t j = jb; j < jend; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

KDSEL_HOT void Add(float* y, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

// Kept out of line: inlined into Conv1dForward's loop nest below it ran
// 1.7x slower than the call the original conv made through the table.
KDSEL_HOT __attribute__((noinline)) void Axpy(float* y, float a,
                                              const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

KDSEL_HOT void Scale(float* x, float a, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

KDSEL_HOT void AddScalar(float* x, float a, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] += a;
}

KDSEL_HOT void ScaledCopy(float* y, const float* x, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = s * x[i];
}

KDSEL_HOT void ScaledDiff(float* g, const float* p, const float* t, float s,
                          size_t n) {
  for (size_t i = 0; i < n; ++i) g[i] = s * (p[i] - t[i]);
}

KDSEL_HOT float Dot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

KDSEL_HOT float Sum(const float* x, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

KDSEL_HOT double SquaredL2(const float* x, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(x[i]) * x[i];
  }
  return sum;
}

KDSEL_HOT float ConvGradTap(const float* gy, const float* x, float w, float* gx,
                  size_t n) {
  float wgrad_acc = 0.0f;
  for (size_t t = 0; t < n; ++t) {
    wgrad_acc += gy[t] * x[t];
    gx[t] += gy[t] * w;
  }
  return wgrad_acc;
}

// The original Conv1d::Forward loop nest: one axpy per (co, ci, tap)
// over the tap's valid output range, then the bias. Reads no padded
// copy, so `scratch` goes unused.
KDSEL_HOT void Conv1dForward(const float* x, const float* w, const float* bias,
                             float* y, size_t c_in, size_t c_out, size_t k,
                             size_t l, size_t b0, size_t b1,
                             float* /*scratch*/) {
  const ptrdiff_t pad = static_cast<ptrdiff_t>((k - 1) / 2);
  for (size_t b = b0; b < b1; ++b) {
    const float* xb = x + b * c_in * l;
    float* yb = y + b * c_out * l;
    std::fill(yb, yb + c_out * l, 0.0f);
    for (size_t co = 0; co < c_out; ++co) {
      float* yrow = yb + co * l;
      const float* wco = w + co * c_in * k;
      for (size_t ci = 0; ci < c_in; ++ci) {
        const float* xrow = xb + ci * l;
        const float* wk = wco + ci * k;
        for (size_t kk = 0; kk < k; ++kk) {
          const ptrdiff_t shift = static_cast<ptrdiff_t>(kk) - pad;
          const size_t t_lo = shift < 0 ? static_cast<size_t>(-shift) : 0;
          const size_t t_hi = shift > 0 ? l - static_cast<size_t>(shift) : l;
          Axpy(yrow + t_lo, wk[kk],
               xrow + static_cast<size_t>(static_cast<ptrdiff_t>(t_lo) +
                                          shift),
               t_hi - t_lo);
        }
      }
      if (bias != nullptr) AddScalar(yrow, bias[co], l);
    }
  }
}

// The original Conv1d::Backward loop nest: gx rows start at +0, then one
// fused conv_grad_tap per (co, ci, tap) over the tap's valid range
// scatters into gx and returns the weight-gradient dot; the bias
// gradient sums each gy row. Reads no padded copy, so `scratch` goes
// unused.
KDSEL_HOT void Conv1dBackward(const float* x, const float* gy, const float* w,
                              float* gx, float* gw, float* gb, size_t c_in,
                              size_t c_out, size_t k, size_t l, size_t b0,
                              size_t b1, float* /*scratch*/) {
  const ptrdiff_t pad = static_cast<ptrdiff_t>((k - 1) / 2);
  for (size_t b = b0; b < b1; ++b) {
    const float* xb = x + b * c_in * l;
    const float* gyb = gy + b * c_out * l;
    float* gxb = gx + b * c_in * l;
    std::fill(gxb, gxb + c_in * l, 0.0f);
    for (size_t co = 0; co < c_out; ++co) {
      const float* gyrow = gyb + co * l;
      const float* wco = w + co * c_in * k;
      float* gwco = gw + co * c_in * k;
      if (gb != nullptr) gb[co] += Sum(gyrow, l);
      for (size_t ci = 0; ci < c_in; ++ci) {
        const float* xrow = xb + ci * l;
        float* gxrow = gxb + ci * l;
        const float* wk = wco + ci * k;
        float* gwk = gwco + ci * k;
        for (size_t kk = 0; kk < k; ++kk) {
          const ptrdiff_t shift = static_cast<ptrdiff_t>(kk) - pad;
          const size_t t_lo = shift < 0 ? static_cast<size_t>(-shift) : 0;
          const size_t t_hi = shift > 0 ? l - static_cast<size_t>(shift) : l;
          const size_t src_lo =
              static_cast<size_t>(static_cast<ptrdiff_t>(t_lo) + shift);
          gwk[kk] += ConvGradTap(gyrow + t_lo, xrow + src_lo, wk[kk],
                                 gxrow + src_lo, t_hi - t_lo);
        }
      }
    }
  }
}

KDSEL_HOT void SoftmaxRow(const float* x, float* y, size_t m) {
  float mx = x[0];
  for (size_t j = 1; j < m; ++j) mx = std::max(mx, x[j]);
  double sum = 0.0;
  for (size_t j = 0; j < m; ++j) {
    y[j] = std::exp(x[j] - mx);
    sum += y[j];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (size_t j = 0; j < m; ++j) y[j] *= inv;
}

KDSEL_HOT void AdamUpdate(float* p, float* m, float* v, const float* g,
                          size_t n, float lr, float b1, float b2, float eps,
                          double lr_wd) {
  for (size_t j = 0; j < n; ++j) {
    m[j] = b1 * m[j] + (1 - b1) * g[j];
    v[j] = b2 * v[j] + (1 - b2) * g[j] * g[j];
    // Mixed float/double expression preserved exactly from the original
    // Adam::Step: the lr*weight_decay term promotes the sum to double
    // before the single truncating store.
    p[j] -= lr * m[j] / (std::sqrt(v[j]) + eps) + lr_wd * p[j];
  }
}

#include "nn/kernels/kernels_i8_ref.inc"

}  // namespace

const Ops kOps = {
    Variant::kScalar,
    "scalar",
    MatMulRows,
    MatMulTbRows,
    MatMulTaRows,
    Add,
    Axpy,
    Scale,
    AddScalar,
    ScaledCopy,
    ScaledDiff,
    Dot,
    Sum,
    SquaredL2,
    ConvGradTap,
    Conv1dForward,
    Conv1dBackward,
    SoftmaxRow,
    AdamUpdate,
    I8Quantize,
    I8MatMulTb,
    I8Dot,
    kI8ImplName,
};

}  // namespace scalar

namespace detail {
const Ops* ScalarOps() { return &scalar::kOps; }
}  // namespace detail

}  // namespace kdsel::nn::kernels
