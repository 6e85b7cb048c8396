#ifndef KDSEL_COMMON_RNG_H_
#define KDSEL_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace kdsel {

/// Deterministic random number generator used everywhere in the library.
///
/// Every stochastic component (data generation, weight init, pruning,
/// detectors with randomness) takes an explicit seed so whole experiments
/// are reproducible bit-for-bit. Wraps std::mt19937_64 with the handful of
/// draw shapes the library needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    KDSEL_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  size_t Index(size_t n) {
    KDSEL_DCHECK(n > 0);
    return std::uniform_int_distribution<size_t>(0, n - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Int(int64_t lo, int64_t hi) {
    KDSEL_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double Normal() {
    return std::normal_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Normal draw with given mean/stddev.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = Index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Draws `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> Sample(size_t n, size_t k);

  /// Derives an independent child RNG; used to give each sub-component its
  /// own stream so adding draws in one place does not perturb another.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace kdsel

#endif  // KDSEL_COMMON_RNG_H_
