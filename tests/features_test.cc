#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "features/features.h"

namespace kdsel::features {
namespace {

TEST(FeatureNamesTest, CountMatchesExtraction) {
  std::vector<float> window(32, 1.0f);
  for (size_t i = 0; i < 32; ++i) window[i] = static_cast<float>(i);
  EXPECT_EQ(ExtractFeatures(window).size(), FeatureCount());
  EXPECT_EQ(FeatureNames().size(), FeatureCount());
}

TEST(FeatureNamesTest, NamesUnique) {
  std::set<std::string> names(FeatureNames().begin(), FeatureNames().end());
  EXPECT_EQ(names.size(), FeatureCount());
}

size_t IndexOf(const std::string& name) {
  const auto& names = FeatureNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  ADD_FAILURE() << "missing feature " << name;
  return 0;
}

TEST(FeatureValuesTest, KnownStatistics) {
  std::vector<float> window{1, 2, 3, 4, 5, 6, 7, 8};
  auto f = ExtractFeatures(window);
  EXPECT_NEAR(f[IndexOf("mean")], 4.5f, 1e-5f);
  EXPECT_NEAR(f[IndexOf("min")], 1.0f, 1e-6f);
  EXPECT_NEAR(f[IndexOf("max")], 8.0f, 1e-6f);
  EXPECT_NEAR(f[IndexOf("median")], 4.5f, 1e-5f);
  EXPECT_NEAR(f[IndexOf("mean_abs_change")], 1.0f, 1e-5f);
  EXPECT_NEAR(f[IndexOf("last_minus_first")], 7.0f, 1e-5f);
  EXPECT_NEAR(f[IndexOf("count_above_mean")], 0.5f, 1e-5f);
}

TEST(FeatureValuesTest, ConstantWindowIsFinite) {
  std::vector<float> window(16, 2.5f);
  auto f = ExtractFeatures(window);
  for (float v : f) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(f[IndexOf("std")], 0.0f, 1e-6f);
}

TEST(FeatureValuesTest, ConstantWindowDegenerateContract) {
  // Variance-normalized statistics of a constant window are exactly 0 by
  // contract — including ratio_beyond_*sigma, which naive |x - mean| > 0
  // counting turns into 1.0 when the float mean rounds off the constant.
  for (float level : {0.0f, 2.5f, -7.25f, 1.0e6f}) {
    std::vector<float> window(64, level);
    auto f = ExtractFeatures(window);
    for (float v : f) EXPECT_TRUE(std::isfinite(v)) << "level " << level;
    EXPECT_FLOAT_EQ(f[IndexOf("skewness")], 0.0f) << "level " << level;
    EXPECT_FLOAT_EQ(f[IndexOf("kurtosis")], 0.0f) << "level " << level;
    for (const char* name :
         {"autocorr_lag1", "autocorr_lag2", "autocorr_lag4", "autocorr_lag8"}) {
      EXPECT_FLOAT_EQ(f[IndexOf(name)], 0.0f)
          << name << " at level " << level;
    }
    EXPECT_FLOAT_EQ(f[IndexOf("ratio_beyond_1sigma")], 0.0f)
        << "level " << level;
    EXPECT_FLOAT_EQ(f[IndexOf("ratio_beyond_2sigma")], 0.0f)
        << "level " << level;
  }
}

TEST(FeatureValuesTest, NearConstantWindowIsDegenerate) {
  // A large level with a few-ulp wobble has variance that is pure float
  // quantization noise; the relative threshold must classify it as
  // degenerate instead of emitting huge normalized moments.
  std::vector<float> window(64, 1.0e6f);
  for (size_t i = 0; i < window.size(); i += 7) {
    window[i] = std::nextafter(window[i], 2.0e6f);
  }
  auto f = ExtractFeatures(window);
  for (float v : f) EXPECT_TRUE(std::isfinite(v));
  EXPECT_FLOAT_EQ(f[IndexOf("skewness")], 0.0f);
  EXPECT_FLOAT_EQ(f[IndexOf("kurtosis")], 0.0f);
  EXPECT_FLOAT_EQ(f[IndexOf("autocorr_lag1")], 0.0f);
  EXPECT_FLOAT_EQ(f[IndexOf("ratio_beyond_1sigma")], 0.0f);
}

TEST(FeatureValuesTest, GenuineVarianceIsNotDegenerate) {
  // A plain sine keeps its normalized statistics: the degenerate guard
  // must not swallow real structure.
  std::vector<float> window(64);
  for (size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<float>(5.0 + std::sin(i * 0.3));
  }
  auto f = ExtractFeatures(window);
  EXPECT_GT(f[IndexOf("autocorr_lag1")], 0.5f);
  EXPECT_GT(f[IndexOf("ratio_beyond_1sigma")], 0.0f);
  EXPECT_FALSE(DegenerateVariance(0.5, 5.0));
  EXPECT_TRUE(DegenerateVariance(0.0, 5.0));
  EXPECT_TRUE(DegenerateVariance(1e-14, 0.0));
}

TEST(FeatureValuesTest, ExtractIntoMatchesVectorApi) {
  Rng rng(11);
  std::vector<float> window(48);
  for (float& v : window) v = static_cast<float>(rng.Normal(1.0, 2.0));
  auto f = ExtractFeatures(window);
  FeatureScratch scratch;
  std::vector<float> into(FeatureCount());
  ExtractFeaturesInto(window.data(), window.size(), scratch, into.data());
  for (size_t j = 0; j < f.size(); ++j) {
    EXPECT_FLOAT_EQ(into[j], f[j]) << FeatureNames()[j];
  }
}

TEST(FeatureValuesTest, ZeroCrossingRate) {
  std::vector<float> window{1, -1, 1, -1, 1, -1, 1, -1};
  auto f = ExtractFeatures(window);
  EXPECT_NEAR(f[IndexOf("zero_cross_rate")], 1.0f, 1e-5f);
}

TEST(FeatureValuesTest, AutocorrOfPeriodicSignal) {
  std::vector<float> window(64);
  for (size_t i = 0; i < 64; ++i) {
    window[i] = static_cast<float>(std::sin(i * 3.14159265 / 4));  // period 8
  }
  auto f = ExtractFeatures(window);
  // lag-8 autocorrelation of a period-8 signal is strongly positive;
  // lag-4 (half period) strongly negative.
  EXPECT_GT(f[IndexOf("autocorr_lag8")], 0.7f);
  EXPECT_LT(f[IndexOf("autocorr_lag4")], -0.7f);
}

TEST(FeatureValuesTest, SpikeRaisesBeyondSigmaRatios) {
  std::vector<float> base(64, 0.0f);
  Rng rng(1);
  for (float& v : base) v = static_cast<float>(rng.Normal(0, 0.1));
  auto f_base = ExtractFeatures(base);
  auto spiked = base;
  spiked[30] = 10.0f;
  auto f_spiked = ExtractFeatures(spiked);
  EXPECT_GT(f_spiked[IndexOf("max")], f_base[IndexOf("max")] + 5.0f);
  EXPECT_GT(f_spiked[IndexOf("kurtosis")], f_base[IndexOf("kurtosis")]);
}

TEST(FeatureBatchTest, BatchMatchesSingle) {
  Rng rng(2);
  std::vector<std::vector<float>> windows(3, std::vector<float>(16));
  for (auto& w : windows) {
    for (float& v : w) v = static_cast<float>(rng.Normal());
  }
  auto batch = ExtractFeaturesBatch(windows);
  ASSERT_EQ(batch.size(), 3u);
  auto single = ExtractFeatures(windows[1]);
  for (size_t j = 0; j < single.size(); ++j) {
    EXPECT_FLOAT_EQ(batch[1][j], single[j]);
  }
}

TEST(FeatureScalerTest, TransformsToZeroMeanUnitVar) {
  Rng rng(3);
  std::vector<std::vector<float>> rows(200, std::vector<float>(4));
  for (auto& r : rows) {
    r[0] = static_cast<float>(rng.Normal(5, 2));
    r[1] = static_cast<float>(rng.Normal(-3, 0.5));
    r[2] = static_cast<float>(rng.Uniform(0, 100));
    r[3] = 7.0f;  // constant column
  }
  FeatureScaler scaler;
  scaler.Fit(rows);
  auto scaled = scaler.TransformBatch(rows);
  for (size_t j = 0; j < 3; ++j) {
    double mean = 0, var = 0;
    for (const auto& r : scaled) mean += r[j];
    mean /= scaled.size();
    for (const auto& r : scaled) var += (r[j] - mean) * (r[j] - mean);
    var /= scaled.size();
    EXPECT_NEAR(mean, 0.0, 1e-4) << "column " << j;
    EXPECT_NEAR(var, 1.0, 1e-3) << "column " << j;
  }
  // Constant column maps to 0 (inv_std = 0 guard).
  for (const auto& r : scaled) EXPECT_FLOAT_EQ(r[3], 0.0f);
}

TEST(FeatureScalerTest, TrainTestConsistency) {
  std::vector<std::vector<float>> train{{0.0f}, {10.0f}};
  FeatureScaler scaler;
  scaler.Fit(train);
  auto t = scaler.Transform({5.0f});
  EXPECT_NEAR(t[0], 0.0f, 1e-6f);  // 5 is the train mean
}

}  // namespace
}  // namespace kdsel::features
