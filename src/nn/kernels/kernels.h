#ifndef KDSEL_NN_KERNELS_KERNELS_H_
#define KDSEL_NN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace kdsel::nn::kernels {

/// Vector-width flavor of the compute kernels. kScalar is the original
/// loop nest (always available, bitwise-stable reference); kGeneric is
/// a 4-lane portable-vector build (SSE2 on x86-64 baseline); kAvx2 is
/// an 8-lane AVX2+FMA build, present only when the compiler supports
/// the flags and the CPU reports avx2+fma at runtime.
enum class Variant {
  kScalar = 0,
  kGeneric = 1,
  kAvx2 = 2,
};

/// Function-pointer table for the hot numeric kernels. All matrices are
/// row-major float. Row-range kernels ([i0,i1) / [k0,k1)) exist so
/// ParallelFor chunks map 1:1 onto kernel calls; every kernel uses a
/// fixed per-element accumulation order that depends only on the
/// operand shapes, never on the chunk bounds or thread count, which is
/// what keeps training bitwise-deterministic for a fixed variant.
struct Ops {
  Variant variant;
  const char* name;

  /// C[i0:i1, :] += A[i0:i1, :] * B with A:[n,k], B:[k,m], C:[n,m].
  /// C rows must be zero-initialized by the caller (accumulating form).
  void (*matmul)(const float* a, const float* b, float* c, size_t k, size_t m,
                 size_t i0, size_t i1);
  /// C[i0:i1, :] = A[i0:i1, :] * B^T with A:[n,k], B:[m,k], C:[n,m].
  /// Overwrites its output rows.
  void (*matmul_tb)(const float* a, const float* b, float* c, size_t k,
                    size_t m, size_t i0, size_t i1);
  /// C[k0:k1, :] += A^T[k0:k1, :] * B with A:[n,k], B:[n,m], C:[k,m].
  /// C rows must be zero-initialized by the caller (accumulating form).
  void (*matmul_ta)(const float* a, const float* b, float* c, size_t n,
                    size_t k, size_t m, size_t k0, size_t k1);

  /// y[i] += x[i]
  void (*add)(float* y, const float* x, size_t n);
  /// y[i] += a * x[i]
  void (*axpy)(float* y, float a, const float* x, size_t n);
  /// x[i] *= a
  void (*scale)(float* x, float a, size_t n);
  /// x[i] += a
  void (*add_scalar)(float* x, float a, size_t n);
  /// y[i] = s * x[i]
  void (*scaled_copy)(float* y, const float* x, float s, size_t n);
  /// g[i] = s * (p[i] - t[i])
  void (*scaled_diff)(float* g, const float* p, const float* t, float s,
                      size_t n);

  /// sum_i a[i] * b[i]
  float (*dot)(const float* a, const float* b, size_t n);
  /// sum_i x[i]
  float (*sum)(const float* x, size_t n);
  /// sum_i double(x[i])^2, accumulated in double
  double (*squared_l2)(const float* x, size_t n);
  /// Fused Conv1d backward tap: gx[i] += w * gy[i]; returns
  /// sum_i gy[i] * x[i] (the weight-gradient contribution). The per-tap
  /// reference conv1d_backward is pinned against. Exact order on the
  /// vector variants: lanes count from gy[0]; vector chunk m of x*gy adds
  /// into a0 when m is even and a1 when odd (both from +0); the sum is
  /// the in-lane-order horizontal sum of a0 + a1, then the n % width tail
  /// in order. On an FMA build (avx2) each chunk step is fused and the
  /// tail is pinned: with 4 or more tail elements the first 4 products
  /// are rounded and then added, every other tail step is fused; every
  /// gx update is fused. Without FMA (generic, scalar) every step is a
  /// multiply then an add.
  float (*conv_grad_tap)(const float* gy, const float* x, float w, float* gx,
                         size_t n);
  /// Conv1d forward, stride 1, "same" zero padding ((k-1)/2 left, k/2
  /// right): y[b] = w * x[b] (+ bias) for batch items [b0, b1), with
  /// x:[B, c_in, l], w:[c_out, c_in, k], y:[B, c_out, l]. Each y[b][co][t]
  /// sums its taps in ascending (ci, tap) order starting from +0 and adds
  /// bias[co] last (bias == nullptr drops it): per element, exactly the
  /// operations of one `axpy` per (co, ci, tap) over the tap's valid range
  /// followed by `add_scalar(bias)`, so every variant is bitwise-identical
  /// to that loop built from its own axpy/add_scalar. That includes the
  /// padded edges for finite weights, unless a fused product underflows
  /// to -0 (kernels_vec.inc has the argument). `scratch` holds
  /// Conv1dScratchFloats(c_in, k, l) floats owned by the caller. Overwrites
  /// its output rows.
  void (*conv1d_forward)(const float* x, const float* w, const float* bias,
                         float* y, size_t c_in, size_t c_out, size_t k,
                         size_t l, size_t b0, size_t b1, float* scratch);
  /// Conv1d backward for conv1d_forward's convolution (stride 1, "same"
  /// padding), batch items [b0, b1): x:[B, c_in, l] is the forward input,
  /// gy:[B, c_out, l] the output gradient, w:[c_out, c_in, k]. Overwrites
  /// the gx:[B, c_in, l] rows; accumulates gw:[c_out, c_in, k] and, unless
  /// gb == nullptr, gb:[c_out] in ascending batch order. Every bit is that
  /// of the per-tap loop built from this variant's conv_grad_tap and sum:
  /// gx starts at +0 and takes one conv_grad_tap per (co, ci, tap) over the
  /// tap's valid range, co ascending then tap ascending;
  /// gw[co][ci][tap] += that call's return per batch item; gb[co] +=
  /// sum(gy row) per batch item. As for the forward, gx rows read a
  /// zero-padded copy of gy, which is exact for finite weights unless a
  /// fused product underflows to -0. `scratch` holds
  /// Conv1dBackwardScratchFloats(c_in, c_out, k, l) floats owned by the
  /// caller.
  void (*conv1d_backward)(const float* x, const float* gy, const float* w,
                          float* gx, float* gw, float* gb, size_t c_in,
                          size_t c_out, size_t k, size_t l, size_t b0,
                          size_t b1, float* scratch);

  /// y = softmax(x) over one row of length m (max-shifted, double-
  /// accumulated normalizer; matches the original SoftmaxRows math).
  void (*softmax_row)(const float* x, float* y, size_t m);

  /// One Adam step over n contiguous elements. `lr_wd` is the
  /// double-precision product lr * weight_decay; the scalar kernel
  /// reproduces the historical mixed-double update expression exactly.
  void (*adam_update)(float* p, float* m, float* v, const float* g, size_t n,
                      float lr, float beta1, float beta2, float eps,
                      double lr_wd);

  // --- Int8 inference kernels (quantized selector forward pass). ---
  // Integer accumulation is exact, so unlike the fp32 kernels these
  // produce bitwise-identical results across every variant.

  /// q[i] = clamp(round_nearest_even(x[i] * inv_scale), -127, 127).
  /// Symmetric quantization; -128 is excluded so signed products keep
  /// the i16 headroom the AVX2 maddubs path relies on.
  void (*i8_quantize)(const float* x, float inv_scale, int8_t* q, size_t n);
  /// C[i0:i1, :] = dequant(Aq[i0:i1, :] * Bq^T) with Aq:[n,k] int8,
  /// Bq:[m,k] int8, C:[n,m] float. acc_ij is exact in int32; the fused
  /// per-output-column requantize is C[i][j] = fmaf(scale[j], acc_ij,
  /// bias[j]) (bias == nullptr drops the addend). Overwrites its output
  /// rows.
  void (*i8_matmul_tb)(const int8_t* a, const int8_t* b, float* c, size_t k,
                       size_t m, const float* scale, const float* bias,
                       size_t i0, size_t i1);
  /// sum_i a[i] * b[i], exact in int32.
  int32_t (*i8_dot)(const int8_t* a, const int8_t* b, size_t n);

  /// Human-readable int8 implementation behind this table ("i8-scalar"
  /// reference loops or "i8-maddubs"); surfaced by `kdsel version`.
  const char* i8_impl;
};

/// Positions per padded row of the conv kernels' scratch round up to
/// this multiple: the widest variant's position tile, so a tile that
/// starts inside the row never reads past it.
inline constexpr size_t kConv1dRowAlign = 16;

/// Pitch of one zero-padded row in conv1d_forward's scratch (input rows)
/// and conv1d_backward's (gy rows).
inline size_t Conv1dPaddedRow(size_t k, size_t l) {
  return (l + kConv1dRowAlign - 1) / kConv1dRowAlign * kConv1dRowAlign + k -
         1;
}

/// Scratch floats one conv1d_forward call needs (any batch range).
inline size_t Conv1dScratchFloats(size_t c_in, size_t k, size_t l) {
  return c_in * Conv1dPaddedRow(k, l);
}

/// Scratch floats one conv1d_backward call needs (any batch range): one
/// zero-padded gy row per output channel, gy transposed to [l, c_out],
/// and the weight gradient transposed to [c_in * k, c_out].
inline size_t Conv1dBackwardScratchFloats(size_t c_in, size_t c_out, size_t k,
                                          size_t l) {
  return c_out * (Conv1dPaddedRow(k, l) + l + c_in * k);
}

/// The active kernel table. Resolved once (CPUID best, overridable via
/// KDSEL_SIMD=scalar|generic|avx2) on first use; subsequent calls are a
/// single atomic load.
const Ops& Dispatch();

/// Variant behind Dispatch().
Variant ActiveVariant();

/// Table for a specific variant. The variant must be supported
/// (VariantSupported) — asking for an unavailable one aborts.
const Ops& GetOps(Variant v);

/// True when `v` is compiled into this binary and safe on this CPU.
bool VariantSupported(Variant v);

/// Widest supported variant (what Dispatch() picks absent KDSEL_SIMD).
Variant BestSupportedVariant();

/// Every supported variant, scalar first.
std::vector<Variant> SupportedVariants();

/// "scalar" | "generic" | "avx2" — also the accepted KDSEL_SIMD values.
const char* VariantName(Variant v);

/// Strict KDSEL_SIMD value parsing; InvalidArgument on anything other
/// than the three variant names.
StatusOr<Variant> ParseVariantName(std::string_view name);

/// Point Dispatch() at a specific supported variant (tests/bench).
void ResetDispatchForTesting(Variant v);
/// Restore the default env/CPUID resolution.
void ResetDispatchForTesting();

namespace detail {
/// Per-translation-unit kernel tables. Avx2Ops() returns nullptr when
/// the binary was built without AVX2 codegen support.
const Ops* ScalarOps();
const Ops* GenericOps();
const Ops* Avx2Ops();
}  // namespace detail

}  // namespace kdsel::nn::kernels

#endif  // KDSEL_NN_KERNELS_KERNELS_H_
