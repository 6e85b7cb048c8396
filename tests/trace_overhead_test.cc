// Proves the disabled-tracing contract from DESIGN.md: a KDSEL_SPAN on
// a hot path whose tracing is off costs one relaxed atomic load, which
// must stay under 5% of a realistic instrumented kernel. The baseline
// is a twin loop with the span removed — byte-for-byte the code that
// KDSEL_NO_TRACING compiles the instrumented loop down to.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/clock.h"
#include "obs/trace.h"

namespace kdsel {
namespace {

// Sanitizers add per-access shadow work that dwarfs the span's relaxed
// load and makes the two loops diverge for unrelated reasons; keep the
// test as a smoke check there with a loose bound.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// One step is a dot product sized like the per-call work of the finest
// spans in the tree (nn.matmul on a small model): big enough that a
// span per step is realistic granularity, small enough that a regressed
// disabled path (a lock, an unconditional clock read) would show up.
constexpr size_t kVecLen = 2048;
constexpr int kStepsPerRep = 4000;
constexpr int kReps = 15;

// Compiler barrier: makes the optimizer assume memory changed between
// steps so the (pure, loop-invariant) dot product cannot be hoisted out
// of the timed loop. Without it the plain loop folds to one dot product
// while the span's atomic load pins the instrumented loop in place, and
// the comparison measures the hoist, not the span.
inline void ClobberMemory() { asm volatile("" ::: "memory"); }

float DotKernel(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float InstrumentedStep(const float* a, const float* b) {
  KDSEL_SPAN("trace_overhead_test.step");
  return DotKernel(a, b, kVecLen);
}

float PlainStep(const float* a, const float* b) {
  return DotKernel(a, b, kVecLen);
}

// Wall time of one rep: kStepsPerRep calls of `step`.
uint64_t RepNs(float (*step)(const float*, const float*), const float* a,
               const float* b, float* sink) {
  float acc = 0.0f;
  const uint64_t begin = obs::NowNs();
  for (int i = 0; i < kStepsPerRep; ++i) {
    acc += step(a, b);
    ClobberMemory();
  }
  const uint64_t elapsed = obs::NowNs() - begin;
  *sink += acc;  // Keeps the kernel from being optimized away.
  return elapsed;
}

TEST(TraceOverheadTest, DisabledSpanCostsUnderFivePercent) {
  ASSERT_FALSE(obs::TracingEnabled());

  std::vector<float> a(kVecLen), b(kVecLen);
  for (size_t i = 0; i < kVecLen; ++i) {
    a[i] = static_cast<float>(i % 7) * 0.25f;
    b[i] = static_cast<float>(i % 11) * 0.125f;
  }
  float sink = 0.0f;

  // Warm up caches and frequency scaling before timing either variant.
  for (int rep = 0; rep < 3; ++rep) {
    (void)RepNs(PlainStep, a.data(), b.data(), &sink);
    (void)RepNs(InstrumentedStep, a.data(), b.data(), &sink);
  }

  // Plain and traced reps interleave, alternating which runs first, so
  // host drift (frequency, noisy neighbours) lands on both sides alike
  // instead of reading as span cost. Min-of-reps per side: the minimum
  // is the rep least disturbed by the scheduler, so it isolates the
  // code's own cost far better than a mean would.
  uint64_t plain_ns = UINT64_MAX, traced_ns = UINT64_MAX;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool plain_first = rep % 2 == 0;
    for (int side = 0; side < 2; ++side) {
      const bool plain = (side == 0) == plain_first;
      const uint64_t ns = RepNs(plain ? PlainStep : InstrumentedStep,
                                a.data(), b.data(), &sink);
      uint64_t& best = plain ? plain_ns : traced_ns;
      best = std::min(best, ns);
    }
  }
  ASSERT_GT(plain_ns, 0u);
  EXPECT_GT(sink, 0.0f);

  const double ratio =
      static_cast<double>(traced_ns) / static_cast<double>(plain_ns);
  const double limit = kSanitized ? 1.5 : 1.05;
  EXPECT_LT(ratio, limit) << "disabled KDSEL_SPAN overhead: plain="
                          << plain_ns << "ns traced=" << traced_ns << "ns";
}

}  // namespace
}  // namespace kdsel
