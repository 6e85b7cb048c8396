// AVX2+FMA kernels: 8 float lanes. This translation unit alone is built
// with -mavx2 -mfma -ffp-contract=fast (CMake defines KDSEL_AVX2_TU
// when the compiler accepts those flags), so mul+add chains contract to
// FMAs; contraction is fixed at build time, keeping results
// deterministic for the variant. Dispatch() only selects this table
// when CPUID reports avx2+fma, so no illegal instruction can leak onto
// older machines.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/annotations.h"
#include "nn/kernels/kernels.h"

#if defined(KDSEL_AVX2_TU) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#define KDSEL_VEC_WIDTH 8
#define KDSEL_VEC_VARIANT Variant::kAvx2
#define KDSEL_VEC_NAME "avx2"
#define KDSEL_VEC_FMA 1
// This TU supplies its own int8 kernels below instead of the scalar
// reference in kernels_i8_ref.inc.
#define KDSEL_VEC_I8_EXTERNAL 1

namespace kdsel::nn::kernels {
namespace avx2 {
namespace {

// Int8 kernels on the VPMADDUBSW/VPMADDWD dot-product pair: 32 int8
// MACs per instruction sequence vs 8 fp32 FMAs, which is where the >=2x
// quantized-inference throughput comes from. All accumulation is exact
// integer math, so results are bitwise-identical to the scalar
// reference regardless of the blocking below.

constexpr const char* kI8ImplName = "i8-maddubs";

inline __m256i LoadI8(const int8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// acc += sum of 32 a[i]*b[i] products, widened pairwise to int32.
// maddubs wants an unsigned left operand: feed it |a| and move a's sign
// onto b. Operands are clamped to [-127, 127] at quantize time, so each
// i16 pair sum is at most 2*127*127 = 32258 < 32767 — never saturates.
inline __m256i I8DotStep(__m256i acc, __m256i va, __m256i vb) {
  const __m256i abs_a = _mm256_sign_epi8(va, va);
  const __m256i signed_b = _mm256_sign_epi8(vb, va);
  const __m256i pairs = _mm256_maddubs_epi16(abs_a, signed_b);
  return _mm256_add_epi32(acc,
                          _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
}

inline int32_t HSumI32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

void I8Quantize(const float* x, float inv_scale, int8_t* q, size_t n) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256 vlo = _mm256_set1_ps(-127.0f);
  const __m256 vhi = _mm256_set1_ps(127.0f);
  // packs_epi32/packs_epi16 interleave 128-bit lanes; this permute puts
  // the 32 bytes back in source order.
  const __m256i lane_fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i d[4];
    for (size_t t = 0; t < 4; ++t) {
      const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * t), vs);
      // cvtps rounds to nearest-even, matching the reference lrintf;
      // the float-domain clamp keeps packs saturation (to -128) out of
      // reach.
      d[t] = _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(v, vlo), vhi));
    }
    const __m256i p01 = _mm256_packs_epi32(d[0], d[1]);
    const __m256i p23 = _mm256_packs_epi32(d[2], d[3]);
    const __m256i packed =
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), lane_fix);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), packed);
  }
  for (; i < n; ++i) {
    float v = x[i] * inv_scale;
    v = v < -127.0f ? -127.0f : v;
    v = v > 127.0f ? 127.0f : v;
    q[i] = static_cast<int8_t>(std::lrintf(v));
  }
}

void I8MatMulTb(const int8_t* a, const int8_t* b, float* c, size_t k, size_t m,
                const float* scale, const float* bias, size_t i0, size_t i1) {
  for (size_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * k;
    float* crow = c + i * m;
    size_t j = 0;
    // 4-wide output blocking: each 32-byte A load feeds four B rows.
    for (; j + 4 <= m; j += 4) {
      const int8_t* b0 = b + j * k;
      const int8_t* b1 = b0 + k;
      const int8_t* b2 = b1 + k;
      const int8_t* b3 = b2 + k;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      size_t kk = 0;
      for (; kk + 32 <= k; kk += 32) {
        const __m256i va = LoadI8(arow + kk);
        acc0 = I8DotStep(acc0, va, LoadI8(b0 + kk));
        acc1 = I8DotStep(acc1, va, LoadI8(b1 + kk));
        acc2 = I8DotStep(acc2, va, LoadI8(b2 + kk));
        acc3 = I8DotStep(acc3, va, LoadI8(b3 + kk));
      }
      int32_t acc[4] = {HSumI32(acc0), HSumI32(acc1), HSumI32(acc2),
                        HSumI32(acc3)};
      for (; kk < k; ++kk) {
        const int32_t av = arow[kk];
        acc[0] += av * b0[kk];
        acc[1] += av * b1[kk];
        acc[2] += av * b2[kk];
        acc[3] += av * b3[kk];
      }
      for (size_t t = 0; t < 4; ++t) {
        const float deq = static_cast<float>(acc[t]);
        crow[j + t] = bias != nullptr
                          ? std::fmaf(scale[j + t], deq, bias[j + t])
                          : scale[j + t] * deq;
      }
    }
    for (; j < m; ++j) {
      const int8_t* brow = b + j * k;
      __m256i vacc = _mm256_setzero_si256();
      size_t kk = 0;
      for (; kk + 32 <= k; kk += 32) {
        vacc = I8DotStep(vacc, LoadI8(arow + kk), LoadI8(brow + kk));
      }
      int32_t acc = HSumI32(vacc);
      for (; kk < k; ++kk) {
        acc += static_cast<int32_t>(arow[kk]) * static_cast<int32_t>(brow[kk]);
      }
      const float deq = static_cast<float>(acc);
      crow[j] = bias != nullptr ? std::fmaf(scale[j], deq, bias[j])
                                : scale[j] * deq;
    }
  }
}

int32_t I8Dot(const int8_t* a, const int8_t* b, size_t n) {
  __m256i vacc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    vacc = I8DotStep(vacc, LoadI8(a + i), LoadI8(b + i));
  }
  int32_t acc = HSumI32(vacc);
  for (; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

}  // namespace

#include "nn/kernels/kernels_vec.inc"
}  // namespace avx2

namespace detail {
const Ops* Avx2Ops() { return &avx2::kOps; }
}  // namespace detail

}  // namespace kdsel::nn::kernels

#else  // compiler lacks AVX2 support: variant reported unavailable

namespace kdsel::nn::kernels::detail {
const Ops* Avx2Ops() { return nullptr; }
}  // namespace kdsel::nn::kernels::detail

#endif
