// Kernel-backend equivalence and dispatch tests: every supported SIMD
// variant must agree with the scalar reference within tight tolerance
// on randomized shapes — including sizes that are not multiples of any
// vector width — and the removed `0.0f` fast-path must not silently
// swallow NaN/Inf in any variant. The conv forward kernels and int8
// conv are pinned bit for bit against their per-variant references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/conv.h"
#include "nn/kernels/kernels.h"
#include "nn/quantize.h"

namespace kdsel::nn::kernels {
namespace {

std::vector<float> RandomVec(size_t n, Rng& rng, double lo = -1.0,
                             double hi = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  return v;
}

void ExpectAllClose(const std::vector<float>& ref,
                    const std::vector<float>& got, double rtol,
                    const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double tol =
        rtol * std::max(1.0, std::fabs(static_cast<double>(ref[i])));
    ASSERT_NEAR(ref[i], got[i], tol) << what << " element " << i;
  }
}

struct MatShape {
  size_t n, k, m;
};

// Deliberately odd sizes: 1 (degenerate), primes straddling the 4- and
// 8-lane widths, and one exact multiple as the control.
const MatShape kMatShapes[] = {{1, 1, 1},   {3, 5, 7},    {8, 16, 8},
                               {13, 29, 17}, {32, 33, 31}, {5, 64, 9}};

const size_t kVecSizes[] = {1, 2, 3, 7, 8, 9, 15, 31, 64, 100, 257};

class KernelEquivalenceTest : public ::testing::TestWithParam<Variant> {
 protected:
  const Ops& ops() { return GetOps(GetParam()); }
  const Ops& ref() { return GetOps(Variant::kScalar); }
  std::string Label(const char* op) {
    return std::string(op) + " [" + VariantName(GetParam()) + "]";
  }
};

TEST_P(KernelEquivalenceTest, MatMul) {
  Rng rng(101);
  for (const MatShape& s : kMatShapes) {
    const auto a = RandomVec(s.n * s.k, rng);
    const auto b = RandomVec(s.k * s.m, rng);
    std::vector<float> c_ref(s.n * s.m, 0.0f), c_got(s.n * s.m, 0.0f);
    ref().matmul(a.data(), b.data(), c_ref.data(), s.k, s.m, 0, s.n);
    ops().matmul(a.data(), b.data(), c_got.data(), s.k, s.m, 0, s.n);
    ExpectAllClose(c_ref, c_got, 1e-5, Label("matmul"));
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposedB) {
  Rng rng(102);
  for (const MatShape& s : kMatShapes) {
    const auto a = RandomVec(s.n * s.k, rng);
    const auto b = RandomVec(s.m * s.k, rng);  // B is [m, k]
    std::vector<float> c_ref(s.n * s.m, -7.0f), c_got(s.n * s.m, 7.0f);
    // Overwriting kernel: poisoned initial contents must not leak through.
    ref().matmul_tb(a.data(), b.data(), c_ref.data(), s.k, s.m, 0, s.n);
    ops().matmul_tb(a.data(), b.data(), c_got.data(), s.k, s.m, 0, s.n);
    ExpectAllClose(c_ref, c_got, 1e-5, Label("matmul_tb"));
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposedA) {
  Rng rng(103);
  for (const MatShape& s : kMatShapes) {
    const auto a = RandomVec(s.n * s.k, rng);  // A is [n, k]
    const auto b = RandomVec(s.n * s.m, rng);  // B is [n, m]
    std::vector<float> c_ref(s.k * s.m, 0.0f), c_got(s.k * s.m, 0.0f);
    ref().matmul_ta(a.data(), b.data(), c_ref.data(), s.n, s.k, s.m, 0, s.k);
    ops().matmul_ta(a.data(), b.data(), c_got.data(), s.n, s.k, s.m, 0, s.k);
    ExpectAllClose(c_ref, c_got, 1e-5, Label("matmul_ta"));
  }
}

TEST_P(KernelEquivalenceTest, RowRangeMatchesFullRange) {
  // A kernel invoked over [i0, i1) sub-ranges must produce exactly the
  // same rows as one full-range call: that's the determinism contract
  // that makes chunked ParallelFor results thread-count-invariant.
  Rng rng(104);
  const MatShape s{17, 23, 13};
  const auto a = RandomVec(s.n * s.k, rng);
  const auto b = RandomVec(s.k * s.m, rng);
  std::vector<float> c_full(s.n * s.m, 0.0f), c_split(s.n * s.m, 0.0f);
  ops().matmul(a.data(), b.data(), c_full.data(), s.k, s.m, 0, s.n);
  for (size_t i0 = 0; i0 < s.n; i0 += 3) {
    ops().matmul(a.data(), b.data(), c_split.data(), s.k, s.m, i0,
                 std::min(s.n, i0 + 3));
  }
  EXPECT_EQ(c_full, c_split) << Label("matmul row-range");
}

TEST_P(KernelEquivalenceTest, Elementwise) {
  Rng rng(105);
  for (size_t n : kVecSizes) {
    const auto x = RandomVec(n, rng);
    const auto t = RandomVec(n, rng);
    const float alpha = static_cast<float>(rng.Uniform(-2.0, 2.0));

    auto y_ref = RandomVec(n, rng);
    auto y_got = y_ref;
    ref().add(y_ref.data(), x.data(), n);
    ops().add(y_got.data(), x.data(), n);
    EXPECT_EQ(y_ref, y_got) << Label("add");

    // axpy is mul+add, which FMA-contracting variants fuse: allow
    // last-ulp differences there. The single-operation kernels below
    // have no reassociation freedom and must match bitwise.
    y_got = y_ref;
    ref().axpy(y_ref.data(), alpha, x.data(), n);
    ops().axpy(y_got.data(), alpha, x.data(), n);
    ExpectAllClose(y_ref, y_got, 1e-6, Label("axpy"));

    y_got = y_ref;
    ref().scale(y_ref.data(), alpha, n);
    ops().scale(y_got.data(), alpha, n);
    EXPECT_EQ(y_ref, y_got) << Label("scale");

    y_got = y_ref;
    ref().add_scalar(y_ref.data(), alpha, n);
    ops().add_scalar(y_got.data(), alpha, n);
    EXPECT_EQ(y_ref, y_got) << Label("add_scalar");

    ref().scaled_copy(y_ref.data(), x.data(), alpha, n);
    ops().scaled_copy(y_got.data(), x.data(), alpha, n);
    EXPECT_EQ(y_ref, y_got) << Label("scaled_copy");

    ref().scaled_diff(y_ref.data(), x.data(), t.data(), alpha, n);
    ops().scaled_diff(y_got.data(), x.data(), t.data(), alpha, n);
    EXPECT_EQ(y_ref, y_got) << Label("scaled_diff");
  }
}

TEST_P(KernelEquivalenceTest, Reductions) {
  Rng rng(106);
  for (size_t n : kVecSizes) {
    const auto a = RandomVec(n, rng);
    const auto b = RandomVec(n, rng);
    const double tol = 1e-5 * std::max<double>(1, n);
    EXPECT_NEAR(ref().dot(a.data(), b.data(), n),
                ops().dot(a.data(), b.data(), n), tol)
        << Label("dot") << " n=" << n;
    EXPECT_NEAR(ref().sum(a.data(), n), ops().sum(a.data(), n), tol)
        << Label("sum") << " n=" << n;
    EXPECT_NEAR(ref().squared_l2(a.data(), n), ops().squared_l2(a.data(), n),
                tol)
        << Label("squared_l2") << " n=" << n;
  }
}

TEST_P(KernelEquivalenceTest, ConvGradTap) {
  Rng rng(107);
  for (size_t n : kVecSizes) {
    const auto gy = RandomVec(n, rng);
    const auto x = RandomVec(n, rng);
    const float w = static_cast<float>(rng.Uniform(-1.5, 1.5));
    auto gx_ref = RandomVec(n, rng);
    auto gx_got = gx_ref;
    const float wg_ref =
        ref().conv_grad_tap(gy.data(), x.data(), w, gx_ref.data(), n);
    const float wg_got =
        ops().conv_grad_tap(gy.data(), x.data(), w, gx_got.data(), n);
    EXPECT_NEAR(wg_ref, wg_got, 1e-5 * std::max<double>(1, n))
        << Label("conv_grad_tap") << " n=" << n;
    ExpectAllClose(gx_ref, gx_got, 1e-5, Label("conv_grad_tap gx"));
  }
}

TEST_P(KernelEquivalenceTest, SoftmaxRow) {
  Rng rng(108);
  for (size_t n : kVecSizes) {
    const auto x = RandomVec(n, rng, -5.0, 5.0);
    std::vector<float> y_ref(n), y_got(n);
    ref().softmax_row(x.data(), y_ref.data(), n);
    ops().softmax_row(x.data(), y_got.data(), n);
    ExpectAllClose(y_ref, y_got, 1e-6, Label("softmax_row"));
    // Probabilities must still normalize.
    double total = 0.0;
    for (float v : y_got) total += v;
    EXPECT_NEAR(total, 1.0, 1e-4) << Label("softmax_row norm");
  }
}

TEST_P(KernelEquivalenceTest, AdamUpdate) {
  Rng rng(109);
  for (size_t n : kVecSizes) {
    auto p_ref = RandomVec(n, rng);
    auto m_ref = RandomVec(n, rng);
    auto v_ref = RandomVec(n, rng, 0.0, 1.0);  // second moment: nonneg
    const auto g = RandomVec(n, rng);
    auto p_got = p_ref;
    auto m_got = m_ref;
    auto v_got = v_ref;
    ref().adam_update(p_ref.data(), m_ref.data(), v_ref.data(), g.data(), n,
                      1e-3f, 0.9f, 0.999f, 1e-8f, 1e-7);
    ops().adam_update(p_got.data(), m_got.data(), v_got.data(), g.data(), n,
                      1e-3f, 0.9f, 0.999f, 1e-8f, 1e-7);
    ExpectAllClose(p_ref, p_got, 1e-5, Label("adam p"));
    ExpectAllClose(m_ref, m_got, 1e-6, Label("adam m"));
    ExpectAllClose(v_ref, v_got, 1e-6, Label("adam v"));
  }
}

TEST_P(KernelEquivalenceTest, ZeroTimesNanIsNan) {
  // The old scalar MatMul skipped `av == 0.0f` rows, silently turning
  // 0 * NaN into 0. No variant may inherit that: IEEE says NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // A: [2, 2] with a zero in the column that hits the NaN/Inf row of B.
  const std::vector<float> a = {0.0f, 1.0f, 0.0f, 0.0f};
  const std::vector<float> b = {nan, inf, 1.0f, 2.0f, 3.0f, 4.0f};  // [2, 3]
  std::vector<float> c(2 * 3, 0.0f);
  ops().matmul(a.data(), b.data(), c.data(), 2, 3, 0, 2);
  // Columns 0/1 hit 0 * NaN and 0 * Inf: NaN. Column 2 is finite.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isnan(c[i * 3 + 0])) << Label("matmul NaN") << " i=" << i;
    EXPECT_TRUE(std::isnan(c[i * 3 + 1])) << Label("matmul Inf") << " i=" << i;
  }
  EXPECT_FLOAT_EQ(c[0 * 3 + 2], 4.0f) << Label("matmul finite col");
  EXPECT_FLOAT_EQ(c[1 * 3 + 2], 0.0f) << Label("matmul finite col");
  // axpy with a == 0 must also propagate.
  std::vector<float> y = {1.0f, 2.0f};
  const std::vector<float> x = {nan, 3.0f};
  ops().axpy(y.data(), 0.0f, x.data(), 2);
  EXPECT_TRUE(std::isnan(y[0])) << Label("axpy NaN");
}

// ---------------------------------------------------------------- int8
//
// The int8 kernels promise more than closeness: integer accumulation is
// exact and the dequantize uses one pinned fmaf, so every variant must
// produce IDENTICAL results (EXPECT_EQ on floats, not near).

std::vector<int8_t> RandomI8(size_t n, Rng& rng) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(std::lrint(rng.Uniform(-127.0, 127.0)));
  }
  return v;
}

TEST_P(KernelEquivalenceTest, I8QuantizeBitwise) {
  Rng rng(120);
  for (size_t n : kVecSizes) {
    // Inputs straddling the calibrated range [-2, 2]: out-of-range
    // values must saturate to ±127 (never -128) in every variant.
    const auto x = RandomVec(n, rng, -3.0, 3.0);
    const float inv_scale = 127.0f / 2.0f;
    std::vector<int8_t> q_ref(n, 99), q_got(n, -99);
    ref().i8_quantize(x.data(), inv_scale, q_ref.data(), n);
    ops().i8_quantize(x.data(), inv_scale, q_got.data(), n);
    EXPECT_EQ(q_ref, q_got) << Label("i8_quantize") << " n=" << n;
    for (int8_t v : q_got) {
      ASSERT_GE(v, -127) << Label("i8_quantize must never emit -128");
    }
  }
}

TEST_P(KernelEquivalenceTest, I8QuantizeSaturatesAtBoundary) {
  // Calibration absmax 2.0: exactly-at-boundary values map to exactly
  // ±127, anything beyond clamps there instead of wrapping.
  const std::vector<float> x = {2.0f, -2.0f, 2.5f, -1000.0f,
                                1000.0f, 0.0f, 1.0f};
  const float inv_scale = 127.0f / 2.0f;
  std::vector<int8_t> q(x.size());
  ops().i8_quantize(x.data(), inv_scale, q.data(), x.size());
  EXPECT_EQ(q[0], 127) << Label("absmax maps to +127");
  EXPECT_EQ(q[1], -127) << Label("-absmax maps to -127");
  EXPECT_EQ(q[2], 127) << Label("past-range saturates");
  EXPECT_EQ(q[3], -127) << Label("past-range saturates negative");
  EXPECT_EQ(q[4], 127) << Label("far past-range saturates");
  EXPECT_EQ(q[5], 0) << Label("zero stays zero");
  EXPECT_EQ(q[6], 64) << Label("mid-range rounds to nearest");
}

TEST_P(KernelEquivalenceTest, I8MatMulTbIdentical) {
  Rng rng(121);
  for (const MatShape& s : kMatShapes) {
    const auto a = RandomI8(s.n * s.k, rng);
    const auto b = RandomI8(s.m * s.k, rng);  // B is [m, k]
    const auto scale = RandomVec(s.m, rng, 0.001, 0.1);
    const auto bias = RandomVec(s.m, rng);
    std::vector<float> c_ref(s.n * s.m, -7.0f), c_got(s.n * s.m, 7.0f);
    ref().i8_matmul_tb(a.data(), b.data(), c_ref.data(), s.k, s.m,
                       scale.data(), bias.data(), 0, s.n);
    ops().i8_matmul_tb(a.data(), b.data(), c_got.data(), s.k, s.m,
                       scale.data(), bias.data(), 0, s.n);
    EXPECT_EQ(c_ref, c_got) << Label("i8_matmul_tb biased");
    // Bias-free path (attention projections).
    ref().i8_matmul_tb(a.data(), b.data(), c_ref.data(), s.k, s.m,
                       scale.data(), nullptr, 0, s.n);
    ops().i8_matmul_tb(a.data(), b.data(), c_got.data(), s.k, s.m,
                       scale.data(), nullptr, 0, s.n);
    EXPECT_EQ(c_ref, c_got) << Label("i8_matmul_tb unbiased");
  }
}

TEST_P(KernelEquivalenceTest, I8MatMulTbSaturatedOperands) {
  // All-saturated operands maximize the inner i16 pair sums the AVX2
  // path produces (2 * 127 * 127 = 32258 < 32767): no hidden overflow.
  const size_t n = 3, k = 67, m = 5;  // odd k: exercises the byte tail
  std::vector<int8_t> a(n * k, 127), b(m * k, 127);
  std::vector<int8_t> a_neg(n * k, -127);
  const std::vector<float> scale(m, 1.0f);
  std::vector<float> c(n * m);
  ops().i8_matmul_tb(a.data(), b.data(), c.data(), k, m, scale.data(),
                     nullptr, 0, n);
  for (float v : c) {
    EXPECT_EQ(v, static_cast<float>(127 * 127 * static_cast<int>(k)))
        << Label("i8 saturated positive");
  }
  ops().i8_matmul_tb(a_neg.data(), b.data(), c.data(), k, m, scale.data(),
                     nullptr, 0, n);
  for (float v : c) {
    EXPECT_EQ(v, static_cast<float>(-127 * 127 * static_cast<int>(k)))
        << Label("i8 saturated mixed-sign");
  }
}

TEST_P(KernelEquivalenceTest, I8DotIdentical) {
  Rng rng(122);
  for (size_t n : kVecSizes) {
    const auto a = RandomI8(n, rng);
    const auto b = RandomI8(n, rng);
    EXPECT_EQ(ref().i8_dot(a.data(), b.data(), n),
              ops().i8_dot(a.data(), b.data(), n))
        << Label("i8_dot") << " n=" << n;
  }
}

TEST_P(KernelEquivalenceTest, I8RowRangeMatchesFullRange) {
  // Same determinism contract as the fp32 kernels: chunked [i0, i1)
  // calls must reproduce the full-range result exactly.
  Rng rng(123);
  const MatShape s{17, 23, 13};
  const auto a = RandomI8(s.n * s.k, rng);
  const auto b = RandomI8(s.m * s.k, rng);
  const auto scale = RandomVec(s.m, rng, 0.001, 0.1);
  const auto bias = RandomVec(s.m, rng);
  std::vector<float> c_full(s.n * s.m, 0.0f), c_split(s.n * s.m, 0.0f);
  ops().i8_matmul_tb(a.data(), b.data(), c_full.data(), s.k, s.m,
                     scale.data(), bias.data(), 0, s.n);
  for (size_t i0 = 0; i0 < s.n; i0 += 3) {
    ops().i8_matmul_tb(a.data(), b.data(), c_split.data(), s.k, s.m,
                       scale.data(), bias.data(), i0, std::min(s.n, i0 + 3));
  }
  EXPECT_EQ(c_full, c_split) << Label("i8_matmul_tb row-range");
}

// --------------------------------------------------------- conv1d
//
// conv1d_forward promises bits, not closeness: per element it performs
// exactly the operations of the original per-tap loop, which each test
// rebuilds from the same variant's axpy/add_scalar. Every buffer is an
// exactly-sized std::vector (not pooled), so ASan flags any overread.

struct ConvShape {
  size_t c_in, c_out, k, l;
};

const ConvShape kConvShapes[] = {
    {1, 16, 7, 64},   // ConvNet layer 1
    {16, 32, 5, 64},  // ConvNet layer 2
    {32, 32, 3, 64},  // ConvNet layer 3
    {32, 32, 7, 64},  // ResNet's widest, C_in*K = 224
    {3, 5, 4, 13},    // even K, C_out % 4 != 0, L below one tile
    {4, 6, 6, 37},    // even K, L past two tiles and odd
    {5, 3, 7, 7},     // L == K, fewer than four output channels
    {2, 9, 1, 9},     // pointwise
    {7, 10, 2, 5},    // even K, tiny L
    {6, 4, 3, 16},    // L exactly one avx2 tile
};

// The original Conv1d::Forward loop nest: y starts at +0, one axpy per
// (co, ci, tap) over the tap's valid range, then add_scalar(bias).
void ReferenceConv(const Ops& ops, const std::vector<float>& x,
                   const std::vector<float>& w, const float* bias,
                   std::vector<float>& y, const ConvShape& s, size_t batch) {
  const ptrdiff_t pad = static_cast<ptrdiff_t>((s.k - 1) / 2);
  std::fill(y.begin(), y.end(), 0.0f);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t co = 0; co < s.c_out; ++co) {
      float* yrow = y.data() + (b * s.c_out + co) * s.l;
      for (size_t ci = 0; ci < s.c_in; ++ci) {
        const float* xrow = x.data() + (b * s.c_in + ci) * s.l;
        const float* wk = w.data() + (co * s.c_in + ci) * s.k;
        for (size_t k = 0; k < s.k; ++k) {
          const ptrdiff_t shift = static_cast<ptrdiff_t>(k) - pad;
          const size_t t_lo = shift < 0 ? static_cast<size_t>(-shift) : 0;
          const size_t t_hi =
              shift > 0 ? s.l - static_cast<size_t>(shift) : s.l;
          ops.axpy(yrow + t_lo, wk[k],
                   xrow + static_cast<size_t>(static_cast<ptrdiff_t>(t_lo) +
                                              shift),
                   t_hi - t_lo);
        }
      }
      if (bias != nullptr) ops.add_scalar(yrow, bias[co], s.l);
    }
  }
}

// memcmp equality, reporting the first differing element.
void ExpectBitwiseEqual(const std::vector<float>& ref,
                        const std::vector<float>& got,
                        const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  if (std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)) == 0) {
    return;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&ref[i], &got[i], sizeof(float)) != 0) {
      FAIL() << what << ": element " << i << " is " << got[i]
             << ", reference " << ref[i];
    }
  }
}

std::string ConvLabel(const std::string& what, const ConvShape& s,
                      size_t batch) {
  return what + " c_in=" + std::to_string(s.c_in) +
         " c_out=" + std::to_string(s.c_out) + " k=" + std::to_string(s.k) +
         " l=" + std::to_string(s.l) + " B=" + std::to_string(batch);
}

TEST_P(KernelEquivalenceTest, Conv1dForwardMatchesPerTapLoopBitwise) {
  Rng rng(130);
  for (const ConvShape& s : kConvShapes) {
    for (size_t batch : {size_t{1}, size_t{3}}) {
      const auto x = RandomVec(batch * s.c_in * s.l, rng, -2.0, 2.0);
      const auto w = RandomVec(s.c_out * s.c_in * s.k, rng);
      const auto bias = RandomVec(s.c_out, rng);
      std::vector<float> scratch(Conv1dScratchFloats(s.c_in, s.k, s.l));
      for (const float* b : {static_cast<const float*>(nullptr), bias.data()}) {
        const std::string label =
            ConvLabel(Label(b != nullptr ? "conv1d_forward+bias"
                                         : "conv1d_forward"),
                      s, batch);
        std::vector<float> y_ref(batch * s.c_out * s.l);
        std::vector<float> y_got(y_ref.size(), -7.0f);  // overwritten
        ReferenceConv(ops(), x, w, b, y_ref, s, batch);
        ops().conv1d_forward(x.data(), w.data(), b, y_got.data(), s.c_in,
                             s.c_out, s.k, s.l, 0, batch, scratch.data());
        ExpectBitwiseEqual(y_ref, y_got, label);
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, Conv1dForwardBatchChunksMatchOneCall) {
  // ParallelFor hands the kernel arbitrary [b0, b1) ranges: chunked
  // calls must reproduce one full-range call and touch only their rows.
  Rng rng(131);
  const ConvShape s{5, 6, 5, 21};
  const size_t batch = 7;
  const auto x = RandomVec(batch * s.c_in * s.l, rng);
  const auto w = RandomVec(s.c_out * s.c_in * s.k, rng);
  const auto bias = RandomVec(s.c_out, rng);
  std::vector<float> scratch(Conv1dScratchFloats(s.c_in, s.k, s.l));
  std::vector<float> y_full(batch * s.c_out * s.l);
  std::vector<float> y_chunked(y_full.size(), 0.0f);
  ops().conv1d_forward(x.data(), w.data(), bias.data(), y_full.data(), s.c_in,
                       s.c_out, s.k, s.l, 0, batch, scratch.data());
  const size_t cuts[] = {0, 1, 3, 4, 7};
  for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
    ops().conv1d_forward(x.data(), w.data(), bias.data(), y_chunked.data(),
                         s.c_in, s.c_out, s.k, s.l, cuts[i], cuts[i + 1],
                         scratch.data());
  }
  ExpectBitwiseEqual(y_full, y_chunked, Label("conv1d_forward chunks"));
  std::vector<float> y_ref(y_full.size());
  ReferenceConv(ops(), x, w, bias.data(), y_ref, s, batch);
  ExpectBitwiseEqual(y_ref, y_full, Label("conv1d_forward chunked ref"));
}

TEST_P(KernelEquivalenceTest, Conv1dForwardZeroRowsKeepSignedZeros) {
  // Zero inputs against negative weights make every product -0 or +0,
  // at the padded edges too: the outputs must carry the reference's
  // zero signs exactly. With +0 rows every product is -0, so only an
  // accumulator that starts at +0 ends at +0; a -0 row flips the
  // products to +0; one live tap makes the middle nonzero.
  const ConvShape s{3, 5, 7, 19};
  std::vector<float> plus_zero_rows(s.c_in * s.l, 0.0f);
  plus_zero_rows[2 * s.l + s.l / 2] = 1.5f;
  std::vector<float> minus_zero_row = plus_zero_rows;
  for (size_t t = 0; t < s.l; ++t) minus_zero_row[1 * s.l + t] = -0.0f;
  std::vector<float> w(s.c_out * s.c_in * s.k);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = -0.25f - 0.01f * static_cast<float>(i % 7);
  }
  const std::vector<float> bias = {-0.0f, 0.0f, -0.0f, 1.0f, -0.0f};
  std::vector<float> scratch(Conv1dScratchFloats(s.c_in, s.k, s.l));
  for (const auto* x : {&plus_zero_rows, &minus_zero_row}) {
    for (const float* b : {static_cast<const float*>(nullptr), bias.data()}) {
      std::vector<float> y_ref(s.c_out * s.l), y_got(s.c_out * s.l, 9.0f);
      ReferenceConv(ops(), *x, w, b, y_ref, s, 1);
      ops().conv1d_forward(x->data(), w.data(), b, y_got.data(), s.c_in,
                           s.c_out, s.k, s.l, 0, 1, scratch.data());
      ExpectBitwiseEqual(y_ref, y_got, Label("conv1d_forward signed zeros"));
      for (float v : y_got) {
        if (v == 0.0f) {
          EXPECT_FALSE(std::signbit(v)) << Label("-0 output");
        }
      }
    }
  }
}

// conv_grad_tap's documented order, modelled one scalar operation at a
// time: lanes count from element 0, chunk m of `width` elements adds into
// a0 (m even) or a1 (m odd), then HSum(a0 + a1) in lane order, then the
// tail. An FMA build fuses the chunk steps, fuses the tail except for the
// first 4 products of a tail of 4 or more (rounded, then added), and
// fuses every gx update; a build without FMA multiplies then adds.
enum class TailRounding { kPinned, kAllFused, kAllRounded };

struct TapOrder {
  size_t width;  // lanes per chunk; 1 is the scalar loop
  bool fma;      // fused chunk steps and gx updates
  TailRounding tail;
};

TapOrder DocumentedTapOrder(Variant v) {
  switch (v) {
    case Variant::kScalar:
      return {1, false, TailRounding::kAllRounded};
    case Variant::kGeneric:
      return {4, false, TailRounding::kAllRounded};
    case Variant::kAvx2:
      return {8, true, TailRounding::kPinned};
  }
  return {1, false, TailRounding::kAllRounded};
}

// acc + a * b with the product rounded to float first.
float MulThenAdd(float acc, float a, float b) {
  const float p = a * b;
  return acc + p;
}

float ModelTapSum(const std::vector<float>& gy, const std::vector<float>& x,
                  const TapOrder& order) {
  const size_t n = gy.size(), w = order.width;
  const size_t body = w == 1 ? 0 : n / w * w;
  float acc = 0.0f;
  if (w > 1) {
    std::vector<float> a0(w, 0.0f), a1(w, 0.0f);
    for (size_t t = 0; t < body; ++t) {
      float& a = (t / w) % 2 == 0 ? a0[t % w] : a1[t % w];
      a = order.fma ? std::fmaf(gy[t], x[t], a) : MulThenAdd(a, gy[t], x[t]);
    }
    acc = a0[0] + a1[0];
    for (size_t lane = 1; lane < w; ++lane) acc += a0[lane] + a1[lane];
  }
  const size_t tail = n - body;
  for (size_t j = 0; j < tail; ++j) {
    const size_t t = body + j;
    const bool rounded =
        order.tail == TailRounding::kAllRounded ||
        (order.tail == TailRounding::kPinned && tail >= 4 && j < 4);
    acc = rounded ? MulThenAdd(acc, gy[t], x[t]) : std::fmaf(gy[t], x[t], acc);
  }
  return acc;
}

TEST_P(KernelEquivalenceTest, ConvGradTapTailOrderIsPinned) {
  // n = 8..23 gives every tail length 0-7 on every width. Products near
  // 1 with alternating signs keep the running sum small, so a product's
  // rounding error often moves the sum: fused and rounded steps disagree,
  // which the avx2 checks at the end confirm, so a changed tail order
  // cannot pass unseen.
  Rng rng(140);
  const TapOrder order = DocumentedTapOrder(GetParam());
  TapOrder all_fused = order, all_rounded = order;
  all_fused.tail = TailRounding::kAllFused;
  all_rounded.tail = TailRounding::kAllRounded;
  size_t differs_from_fused = 0, differs_from_rounded = 0;
  for (size_t n = 8; n <= 23; ++n) {
    const auto gy = RandomVec(n, rng, 1.0, 1.1);
    auto x = RandomVec(n, rng, 1.0, 1.1);
    for (size_t t = 1; t < n; t += 2) x[t] = -x[t];
    const float w = static_cast<float>(rng.Uniform(0.3, 1.7));
    const auto gx0 = RandomVec(n, rng);
    std::vector<float> gx = gx0, gx_model = gx0;
    const float sum = ops().conv_grad_tap(gy.data(), x.data(), w, gx.data(), n);
    const float model = ModelTapSum(gy, x, order);
    for (size_t t = 0; t < n; ++t) {
      gx_model[t] = order.fma ? std::fmaf(gy[t], w, gx_model[t])
                              : MulThenAdd(gx_model[t], gy[t], w);
    }
    const std::string label =
        Label("conv_grad_tap tail order") + " n=" + std::to_string(n);
    EXPECT_EQ(std::memcmp(&sum, &model, sizeof(float)), 0)
        << label << ": sum " << sum << ", model " << model;
    ExpectBitwiseEqual(gx_model, gx, label + " gx");
    const float fused = ModelTapSum(gy, x, all_fused);
    const float rounded = ModelTapSum(gy, x, all_rounded);
    differs_from_fused += std::memcmp(&model, &fused, sizeof(float)) != 0;
    differs_from_rounded += std::memcmp(&model, &rounded, sizeof(float)) != 0;
  }
  if (order.fma) {
    EXPECT_GT(differs_from_fused, 0u) << Label("inputs cannot see the order");
    EXPECT_GT(differs_from_rounded, 0u)
        << Label("inputs cannot see the order");
  }
}

// ------------------------------------------------- conv1d backward
//
// conv1d_backward promises bits too: gx, gw and gb are exactly those of
// the original Conv1d::Backward loop, which ReferenceConvBackward
// rebuilds from the same variant's conv_grad_tap and sum.

// kConvShapes plus the CNN detector's second layer (biased, window 32).
std::vector<ConvShape> ConvBackwardShapes() {
  std::vector<ConvShape> shapes(std::begin(kConvShapes), std::end(kConvShapes));
  shapes.push_back({8, 8, 5, 32});
  return shapes;
}

struct ConvGrads {
  std::vector<float> gx, gw, gb;
};

// The original Conv1d::Backward loop nest for batch items [b0, b1): gx
// rows from +0, one conv_grad_tap per (co, ci, tap) over the tap's
// valid range adding into gw, and sum(gy row) adding into gb.
void ReferenceConvBackward(const Ops& ops, const std::vector<float>& x,
                           const std::vector<float>& gy,
                           const std::vector<float>& w, ConvGrads& g,
                           bool bias, const ConvShape& s, size_t b0,
                           size_t b1) {
  const ptrdiff_t pad = static_cast<ptrdiff_t>((s.k - 1) / 2);
  for (size_t b = b0; b < b1; ++b) {
    float* gxb = g.gx.data() + b * s.c_in * s.l;
    std::fill(gxb, gxb + s.c_in * s.l, 0.0f);
    for (size_t co = 0; co < s.c_out; ++co) {
      const float* gyrow = gy.data() + (b * s.c_out + co) * s.l;
      if (bias) g.gb[co] += ops.sum(gyrow, s.l);
      for (size_t ci = 0; ci < s.c_in; ++ci) {
        const float* xrow = x.data() + (b * s.c_in + ci) * s.l;
        for (size_t k = 0; k < s.k; ++k) {
          const ptrdiff_t shift = static_cast<ptrdiff_t>(k) - pad;
          const size_t t_lo = shift < 0 ? static_cast<size_t>(-shift) : 0;
          const size_t t_hi =
              shift > 0 ? s.l - static_cast<size_t>(shift) : s.l;
          const size_t src_lo =
              static_cast<size_t>(static_cast<ptrdiff_t>(t_lo) + shift);
          const size_t wi = (co * s.c_in + ci) * s.k + k;
          g.gw[wi] += ops.conv_grad_tap(gyrow + t_lo, xrow + src_lo, w[wi],
                                        gxb + ci * s.l + src_lo, t_hi - t_lo);
        }
      }
    }
  }
}

void RunConvBackward(const Ops& ops, const std::vector<float>& x,
                     const std::vector<float>& gy, const std::vector<float>& w,
                     ConvGrads& g, bool bias, const ConvShape& s, size_t b0,
                     size_t b1) {
  std::vector<float> scratch(
      Conv1dBackwardScratchFloats(s.c_in, s.c_out, s.k, s.l));
  ops.conv1d_backward(x.data(), gy.data(), w.data(), g.gx.data(), g.gw.data(),
                      bias ? g.gb.data() : nullptr, s.c_in, s.c_out, s.k,
                      s.l, b0, b1, scratch.data());
}

void ExpectGradsBitwiseEqual(const ConvGrads& ref, const ConvGrads& got,
                             const std::string& label) {
  ExpectBitwiseEqual(ref.gx, got.gx, label + " gx");
  ExpectBitwiseEqual(ref.gw, got.gw, label + " gw");
  ExpectBitwiseEqual(ref.gb, got.gb, label + " gb");
}

TEST_P(KernelEquivalenceTest, Conv1dBackwardMatchesPerTapLoopBitwise) {
  Rng rng(141);
  for (const ConvShape& s : ConvBackwardShapes()) {
    for (size_t batch : {size_t{1}, size_t{3}}) {
      const auto x = RandomVec(batch * s.c_in * s.l, rng, -2.0, 2.0);
      const auto gy = RandomVec(batch * s.c_out * s.l, rng);
      const auto w = RandomVec(s.c_out * s.c_in * s.k, rng);
      for (bool bias : {false, true}) {
        // gw and gb accumulate onto what they hold; gx is overwritten.
        ConvGrads ref{std::vector<float>(batch * s.c_in * s.l),
                      RandomVec(w.size(), rng), RandomVec(s.c_out, rng)};
        ConvGrads got = ref;
        std::fill(got.gx.begin(), got.gx.end(), -7.0f);
        ReferenceConvBackward(ops(), x, gy, w, ref, bias, s, 0, batch);
        RunConvBackward(ops(), x, gy, w, got, bias, s, 0, batch);
        ExpectGradsBitwiseEqual(
            ref, got,
            ConvLabel(Label(bias ? "conv1d_backward+bias" : "conv1d_backward"),
                      s, batch));
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, Conv1dBackwardBatchChunksMatchOneCall) {
  // ParallelFor hands the kernel arbitrary [b0, b1) ranges: chunked
  // calls must reproduce one full-range call (gw and gb still add in
  // ascending batch order) and leave other items' gx rows alone.
  Rng rng(142);
  const ConvShape s{5, 9, 5, 21};
  const size_t batch = 7, row = s.c_in * s.l;
  const auto x = RandomVec(batch * row, rng);
  const auto gy = RandomVec(batch * s.c_out * s.l, rng);
  const auto w = RandomVec(s.c_out * s.c_in * s.k, rng);
  const ConvGrads init{std::vector<float>(batch * row, 5.0f),
                       RandomVec(w.size(), rng), RandomVec(s.c_out, rng)};
  ConvGrads full = init, chunked = init;
  RunConvBackward(ops(), x, gy, w, full, true, s, 0, batch);
  const size_t cuts[] = {0, 1, 3, 4, 7};
  for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
    RunConvBackward(ops(), x, gy, w, chunked, true, s, cuts[i], cuts[i + 1]);
    for (size_t j = cuts[i + 1] * row; j < batch * row; ++j) {
      ASSERT_EQ(chunked.gx[j], 5.0f)
          << Label("conv1d_backward chunk wrote past its rows") << " cut "
          << i << " element " << j;
    }
  }
  ExpectGradsBitwiseEqual(full, chunked, Label("conv1d_backward chunks"));
  ConvGrads ref = init;
  ReferenceConvBackward(ops(), x, gy, w, ref, true, s, 0, batch);
  ExpectGradsBitwiseEqual(ref, full, Label("conv1d_backward chunked ref"));
}

TEST_P(KernelEquivalenceTest, Conv1dBackwardZeroRowsKeepSignedZeros) {
  // Zero gy rows against negative weights make every gx product -0 (a
  // -0 row flips them to +0), at the padded edges too: gx must carry the
  // reference's zero signs, which start from +0 and so never go -0. One
  // live gy element and one live x element make some sums nonzero. Nine
  // output channels run both the 8-channel block and the leftover path.
  const ConvShape s{3, 9, 7, 19};
  std::vector<float> gy_plus(s.c_out * s.l, 0.0f);
  gy_plus[4 * s.l + s.l / 2] = 1.5f;
  std::vector<float> gy_minus = gy_plus;
  for (size_t t = 0; t < s.l; ++t) gy_minus[1 * s.l + t] = -0.0f;
  std::vector<float> x(s.c_in * s.l, -0.0f);
  x[2 * s.l + 3] = 0.75f;
  std::vector<float> w(s.c_out * s.c_in * s.k);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = -0.25f - 0.01f * static_cast<float>(i % 7);
  }
  for (const auto* gy : {&gy_plus, &gy_minus}) {
    ConvGrads ref{std::vector<float>(s.c_in * s.l),
                  std::vector<float>(w.size(), 0.0f),
                  std::vector<float>(s.c_out, -0.0f)};
    ConvGrads got = ref;
    std::fill(got.gx.begin(), got.gx.end(), 9.0f);
    ReferenceConvBackward(ops(), x, *gy, w, ref, true, s, 0, 1);
    RunConvBackward(ops(), x, *gy, w, got, true, s, 0, 1);
    ExpectGradsBitwiseEqual(ref, got, Label("conv1d_backward signed zeros"));
    for (float v : got.gx) {
      if (v == 0.0f) {
        EXPECT_FALSE(std::signbit(v)) << Label("-0 grad input");
      }
    }
  }
}

// Int8 conv through Conv1d (under this variant's dispatch) against the
// im2col reference it replaced: quantize, gather taps (zero-padded),
// i8_matmul_tb with the fused requantize, transpose.
std::vector<float> Im2colInt8Conv(const Ops& ops, nn::Conv1d& conv,
                                  const std::vector<float>& x, size_t batch,
                                  size_t l) {
  const size_t c_in = conv.in_channels(), c_out = conv.out_channels();
  const size_t k = conv.kernel_size(), ck = c_in * k;
  const ptrdiff_t pad = static_cast<ptrdiff_t>((k - 1) / 2);
  const float act_scale = conv.ActivationScales()[0];
  const std::vector<nn::Parameter*> params = conv.Parameters();
  std::vector<int8_t> wq(c_out * ck);
  std::vector<float> requant(c_out);
  nn::QuantizeWeightRows(params[0]->value.raw(), c_out, ck, act_scale,
                         wq.data(), requant.data());
  const float* bias = params.size() > 1 ? params[1]->value.raw() : nullptr;
  std::vector<int8_t> xq(c_in * l), col(l * ck);
  std::vector<float> tile(l * c_out), y(batch * c_out * l);
  for (size_t b = 0; b < batch; ++b) {
    ops.i8_quantize(x.data() + b * c_in * l, 1.0f / act_scale, xq.data(),
                    c_in * l);
    for (size_t t = 0; t < l; ++t) {
      for (size_t ci = 0; ci < c_in; ++ci) {
        for (size_t kk = 0; kk < k; ++kk) {
          const ptrdiff_t src = static_cast<ptrdiff_t>(t + kk) - pad;
          col[t * ck + ci * k + kk] =
              (src >= 0 && src < static_cast<ptrdiff_t>(l))
                  ? xq[ci * l + static_cast<size_t>(src)]
                  : int8_t{0};
        }
      }
    }
    ops.i8_matmul_tb(col.data(), wq.data(), tile.data(), ck, c_out,
                     requant.data(), bias, 0, l);
    for (size_t t = 0; t < l; ++t) {
      for (size_t co = 0; co < c_out; ++co) {
        y[(b * c_out + co) * l + t] = tile[t * c_out + co];
      }
    }
  }
  return y;
}

class DispatchGuard {
 public:
  explicit DispatchGuard(Variant v) { ResetDispatchForTesting(v); }
  ~DispatchGuard() { ResetDispatchForTesting(); }
};

TEST_P(KernelEquivalenceTest, Int8ConvMatchesIm2colBitwise) {
  const DispatchGuard guard(GetParam());
  Rng rng(132);
  for (const ConvShape& s : kConvShapes) {
    for (bool use_bias : {false, true}) {
      nn::Conv1d conv(s.c_in, s.c_out, s.k, rng, use_bias);
      if (use_bias) {
        for (float& v : conv.Parameters()[1]->value.mutable_data()) {
          v = static_cast<float>(rng.Uniform(-0.5, 0.5));
        }
      }
      const size_t batch = 3;
      const auto x = RandomVec(batch * s.c_in * s.l, rng, -2.0, 2.0);
      conv.QuantizeWithScales({2.0f / 127.0f});
      nn::Tensor input({batch, s.c_in, s.l});
      std::copy(x.begin(), x.end(), input.raw());
      const nn::Tensor out = conv.Forward(input, /*training=*/false);
      const std::vector<float> got(out.raw(), out.raw() + out.size());
      ExpectBitwiseEqual(
          Im2colInt8Conv(ops(), conv, x, batch, s.l), got,
          ConvLabel(Label(use_bias ? "int8 conv+bias" : "int8 conv"), s,
                    batch));
    }
  }
}

TEST_P(KernelEquivalenceTest, Int8ConvSaturatedAtTheExactBound) {
  // Every input and weight quantizes to +-127, so interior partial sums
  // reach C_in*K * 127^2: 16,774,160 < 2^24 at C_in*K = 1040, the widest
  // layer summed in float. 1045 runs the im2col fallback, which must
  // still match.
  const DispatchGuard guard(GetParam());
  Rng rng(133);
  for (size_t c_in : {size_t{208}, size_t{209}}) {
    const size_t k = 5, l = 19, batch = 2;
    nn::Conv1d conv(c_in, 6, k, rng, /*use_bias=*/false);
    nn::Tensor& w = conv.Parameters()[0]->value;
    for (size_t i = 0; i < w.size(); ++i) {
      // Rows 0-3 all positive (full sum); rows 4-5 mixed signs.
      const size_t row = i / (c_in * k);
      w[i] = (row < 4 || i % 3 != 0) ? 0.5f : -0.5f;
    }
    std::vector<float> x(batch * c_in * l, 1.0f);
    for (size_t i = 0; i < c_in * l; ++i) x[c_in * l + i] = -1.0f;
    conv.QuantizeWithScales({1.0f / 127.0f});
    nn::Tensor input({batch, c_in, l});
    std::copy(x.begin(), x.end(), input.raw());
    const nn::Tensor out = conv.Forward(input, /*training=*/false);
    const std::vector<float> got(out.raw(), out.raw() + out.size());
    const std::vector<float> ref = Im2colInt8Conv(ops(), conv, x, batch, l);
    ExpectBitwiseEqual(ref, got,
                       Label("int8 conv saturated c_in*k=") +
                           std::to_string(c_in * k));
    // The interior of a saturated row is the full integer sum, scaled.
    const std::vector<nn::Parameter*> params = conv.Parameters();
    std::vector<int8_t> wq(6 * c_in * k);
    std::vector<float> requant(6);
    nn::QuantizeWeightRows(params[0]->value.raw(), 6, c_in * k,
                           1.0f / 127.0f, wq.data(), requant.data());
    const float full = static_cast<float>(c_in * k * 127 * 127);
    EXPECT_EQ(got[l / 2], requant[0] * full) << Label("saturated interior");
  }
}

TEST_P(KernelEquivalenceTest, I8ImplNamePresent) {
  EXPECT_NE(ops().i8_impl, nullptr);
  EXPECT_STRNE(ops().i8_impl, "");
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelEquivalenceTest,
                         ::testing::ValuesIn(SupportedVariants()),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return VariantName(info.param);
                         });

// --------------------------------------------- weight-row quantization

TEST(QuantizeWeightRowsTest, ZeroRangeChannelStaysFinite) {
  // A constant-zero output channel has absmax 0: the scale must stay
  // finite and positive (QuantScaleFromAbsMax pins it to 1) so the
  // requantize never divides by zero, and the channel's output through
  // the matmul must be exactly its bias.
  EXPECT_EQ(QuantScaleFromAbsMax(0.0f), 1.0f);
  const size_t rows = 3, k = 8;
  std::vector<float> w(rows * k, 0.0f);
  for (size_t j = 0; j < k; ++j) w[2 * k + j] = 0.5f;  // one live row
  std::vector<int8_t> q(rows * k, 42);
  std::vector<float> rs(rows, -1.0f);
  const float act_scale = 0.02f;
  QuantizeWeightRows(w.data(), rows, k, act_scale, q.data(), rs.data());
  for (size_t j = 0; j < k; ++j) {
    EXPECT_EQ(q[0 * k + j], 0);
    EXPECT_EQ(q[1 * k + j], 0);
    EXPECT_EQ(q[2 * k + j], 127);  // row absmax quantizes to exactly 127
  }
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(std::isfinite(rs[r]) && rs[r] > 0.0f) << "row " << r;
  }

  // Through the dequantizing matmul: dead channels emit exactly bias.
  std::vector<int8_t> x(k, 93);
  const std::vector<float> bias = {1.5f, -2.25f, 0.5f};
  std::vector<float> out(rows, -1.0f);
  Dispatch().i8_matmul_tb(x.data(), q.data(), out.data(), k, rows, rs.data(),
                          bias.data(), 0, 1);
  EXPECT_EQ(out[0], 1.5f);
  EXPECT_EQ(out[1], -2.25f);
  EXPECT_NE(out[2], 0.5f);  // the live channel actually contracts
}

// ------------------------------------------------------------ dispatch

class DispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("KDSEL_SIMD");
    ResetDispatchForTesting();
  }
};

TEST_F(DispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(VariantSupported(Variant::kScalar));
  const auto variants = SupportedVariants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), Variant::kScalar);
}

TEST_F(DispatchTest, TablesReportTheirVariant) {
  for (Variant v : SupportedVariants()) {
    EXPECT_EQ(GetOps(v).variant, v);
    EXPECT_STREQ(GetOps(v).name, VariantName(v));
  }
}

TEST_F(DispatchTest, BestVariantIsSupported) {
  EXPECT_TRUE(VariantSupported(BestSupportedVariant()));
}

TEST_F(DispatchTest, ParseVariantNameIsStrict) {
  EXPECT_TRUE(ParseVariantName("scalar").ok());
  EXPECT_TRUE(ParseVariantName("generic").ok());
  EXPECT_TRUE(ParseVariantName("avx2").ok());
  EXPECT_EQ(*ParseVariantName("scalar"), Variant::kScalar);
  EXPECT_EQ(*ParseVariantName("generic"), Variant::kGeneric);
  EXPECT_EQ(*ParseVariantName("avx2"), Variant::kAvx2);
  EXPECT_FALSE(ParseVariantName("").ok());
  EXPECT_FALSE(ParseVariantName("AVX2").ok());
  EXPECT_FALSE(ParseVariantName("scalar ").ok());
  EXPECT_FALSE(ParseVariantName("sse2").ok());
}

TEST_F(DispatchTest, ResetPinsVariant) {
  for (Variant v : SupportedVariants()) {
    ResetDispatchForTesting(v);
    EXPECT_EQ(ActiveVariant(), v);
    EXPECT_EQ(Dispatch().variant, v);
  }
}

TEST_F(DispatchTest, EnvOverrideSelectsVariant) {
  ::setenv("KDSEL_SIMD", "scalar", 1);
  ResetDispatchForTesting();
  EXPECT_EQ(ActiveVariant(), Variant::kScalar);
  ::unsetenv("KDSEL_SIMD");
  ResetDispatchForTesting();
  EXPECT_EQ(ActiveVariant(), BestSupportedVariant());
}

TEST_F(DispatchTest, InvalidEnvFallsBackToBest) {
  ::setenv("KDSEL_SIMD", "turbo9000", 1);
  ResetDispatchForTesting();
  EXPECT_EQ(ActiveVariant(), BestSupportedVariant());
}

}  // namespace
}  // namespace kdsel::nn::kernels
