#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "core/pruning.h"
#include "core/soft_label.h"

namespace kdsel::core {
namespace {

TEST(SoftLabelTest, RowsAreDistributions) {
  std::vector<std::vector<float>> perf{{0.9f, 0.1f, 0.5f},
                                       {0.2f, 0.8f, 0.3f}};
  auto soft = BuildSoftLabels(perf, 0.25);
  ASSERT_TRUE(soft.ok());
  for (size_t i = 0; i < 2; ++i) {
    double sum = 0;
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GT(soft->At(i, j), 0.0f);
      sum += soft->At(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftLabelTest, BestModelGetsHighestProbability) {
  std::vector<std::vector<float>> perf{{0.9f, 0.1f, 0.5f}};
  auto soft = BuildSoftLabels(perf, 0.25);
  ASSERT_TRUE(soft.ok());
  EXPECT_GT(soft->At(0, 0), soft->At(0, 2));
  EXPECT_GT(soft->At(0, 2), soft->At(0, 1));
}

TEST(SoftLabelTest, TemperatureControlsSharpness) {
  std::vector<std::vector<float>> perf{{0.9f, 0.1f}};
  auto sharp = BuildSoftLabels(perf, 0.1);
  auto smooth = BuildSoftLabels(perf, 10.0);
  ASSERT_TRUE(sharp.ok() && smooth.ok());
  EXPECT_GT(sharp->At(0, 0), smooth->At(0, 0));
  EXPECT_NEAR(smooth->At(0, 0), 0.5f, 0.05f);
}

TEST(SoftLabelTest, RejectsBadInput) {
  EXPECT_FALSE(BuildSoftLabels({}, 0.25).ok());
  EXPECT_FALSE(BuildSoftLabels({{0.5f}}, 0.0).ok());
  EXPECT_FALSE(BuildSoftLabels({{0.5f, 0.2f}, {0.1f}}, 0.25).ok());
}

TEST(SoftLabelTest, HardLabelsAreArgmax) {
  std::vector<std::vector<float>> perf{{0.9f, 0.1f}, {0.2f, 0.8f}};
  auto labels = HardLabelsFromPerformance(perf);
  EXPECT_EQ(labels, (std::vector<int>{0, 1}));
}

TEST(PrunerTest, ModeNames) {
  EXPECT_STREQ(PruningModeToString(PruningMode::kNone), "none");
  EXPECT_STREQ(PruningModeToString(PruningMode::kInfoBatch), "infobatch");
  EXPECT_STREQ(PruningModeToString(PruningMode::kPa), "pa");
}

TEST(PrunerTest, NoneKeepsEverySampleEveryEpoch) {
  PrunerOptions opts;
  opts.mode = PruningMode::kNone;
  Pruner pruner(opts, 50, {});
  for (size_t epoch = 0; epoch < 5; ++epoch) {
    auto plan = pruner.PlanEpoch(epoch, 10);
    EXPECT_EQ(plan.kept.size(), 50u);
    for (float w : plan.weights) EXPECT_FLOAT_EQ(w, 1.0f);
  }
}

TEST(PrunerTest, FirstEpochAlwaysFull) {
  PrunerOptions opts;
  opts.mode = PruningMode::kInfoBatch;
  Pruner pruner(opts, 40, {});
  auto plan = pruner.PlanEpoch(0, 10);
  EXPECT_EQ(plan.kept.size(), 40u);
}

TEST(PrunerTest, AnnealEpochsAreFull) {
  PrunerOptions opts;
  opts.mode = PruningMode::kInfoBatch;
  opts.anneal_fraction = 0.2;
  Pruner pruner(opts, 40, {});
  for (size_t i = 0; i < 40; ++i) pruner.RecordLoss(i, i < 20 ? 0.1 : 2.0);
  // Epochs 8 and 9 of 10 fall in the anneal window.
  EXPECT_EQ(pruner.PlanEpoch(8, 10).kept.size(), 40u);
  EXPECT_EQ(pruner.PlanEpoch(9, 10).kept.size(), 40u);
  // Epoch 5 does prune.
  EXPECT_LT(pruner.PlanEpoch(5, 10).kept.size(), 40u);
}

TEST(PrunerTest, InfoBatchPrunesOnlyLowLossSamples) {
  PrunerOptions opts;
  opts.mode = PruningMode::kInfoBatch;
  opts.prune_ratio = 0.8;
  opts.anneal_fraction = 0.0;
  const size_t n = 2000;
  Pruner pruner(opts, n, {});
  // First half low-loss, second half high-loss.
  for (size_t i = 0; i < n; ++i) pruner.RecordLoss(i, i < n / 2 ? 0.1 : 3.0);
  auto plan = pruner.PlanEpoch(3, 100);
  std::set<size_t> kept(plan.kept.begin(), plan.kept.end());
  // All high-loss samples kept with weight 1.
  for (size_t i = n / 2; i < n; ++i) EXPECT_TRUE(kept.count(i));
  // Low-loss samples kept with probability 1-r = 0.2.
  size_t low_kept = 0;
  for (size_t i = 0; i < plan.kept.size(); ++i) {
    if (plan.kept[i] < n / 2) {
      ++low_kept;
      EXPECT_NEAR(plan.weights[i], 5.0f, 1e-5f);  // 1/(1-0.8)
    } else {
      EXPECT_FLOAT_EQ(plan.weights[i], 1.0f);
    }
  }
  EXPECT_NEAR(static_cast<double>(low_kept) / (n / 2), 0.2, 0.05);
}

TEST(PrunerTest, InfoBatchIsUnbiasedInExpectation) {
  // Expected total weight of the epoch equals the full dataset size
  // (the Sect. A.2 unbiasedness argument).
  PrunerOptions opts;
  opts.mode = PruningMode::kInfoBatch;
  opts.prune_ratio = 0.7;
  opts.anneal_fraction = 0.0;
  const size_t n = 1000;
  Pruner pruner(opts, n, {});
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) pruner.RecordLoss(i, rng.Uniform());
  double total_weight = 0;
  const int epochs = 30;
  for (int e = 1; e <= epochs; ++e) {
    auto plan = pruner.PlanEpoch(static_cast<size_t>(e), 1000000);
    total_weight += std::accumulate(plan.weights.begin(), plan.weights.end(),
                                    0.0);
  }
  EXPECT_NEAR(total_weight / epochs, static_cast<double>(n), n * 0.05);
}

TEST(PrunerTest, PaPrunesRedundantHighLossSamples) {
  // Construct: 100 identical high-loss samples (redundant) + 100
  // distinct high-loss samples + 100 low-loss samples.
  const size_t dim = 16;
  std::vector<std::vector<float>> samples;
  Rng rng(7);
  std::vector<float> proto(dim);
  for (float& v : proto) v = static_cast<float>(rng.Normal());
  for (int i = 0; i < 100; ++i) samples.push_back(proto);  // redundant block
  for (int i = 0; i < 200; ++i) {
    std::vector<float> row(dim);
    for (float& v : row) v = static_cast<float>(rng.Normal());
    samples.push_back(row);
  }
  PrunerOptions opts;
  opts.mode = PruningMode::kPa;
  opts.prune_ratio = 0.8;
  opts.anneal_fraction = 0.0;
  Pruner pruner(opts, 300, samples);
  for (size_t i = 0; i < 300; ++i) {
    // Identical redundant block gets identical high loss.
    pruner.RecordLoss(i, i < 100 ? 2.0 : (i < 200 ? 2.0 + 0.001 * i : 0.1));
  }
  auto plan = pruner.PlanEpoch(2, 1000);
  size_t redundant_kept = 0, distinct_kept = 0;
  for (size_t i = 0; i < plan.kept.size(); ++i) {
    if (plan.kept[i] < 100) {
      ++redundant_kept;
      EXPECT_NEAR(plan.weights[i], 5.0f, 1e-5f);
    } else if (plan.kept[i] < 200) {
      ++distinct_kept;
    }
  }
  // The redundant block shares an LSH bucket and a loss bin => pruned at
  // rate ~0.8. Distinct high-loss samples land in singleton buckets and
  // survive entirely.
  EXPECT_LT(redundant_kept, 45u);
  EXPECT_GT(distinct_kept, 85u);
}

TEST(PrunerTest, PaVisitsFewerSamplesThanInfoBatch) {
  const size_t n = 400;
  // Half the samples are near-duplicates of a few prototypes.
  Rng rng(9);
  std::vector<std::vector<float>> samples;
  std::vector<std::vector<float>> protos(4, std::vector<float>(8));
  for (auto& p : protos) {
    for (float& v : p) v = static_cast<float>(rng.Normal());
  }
  for (size_t i = 0; i < n; ++i) {
    if (i < n / 2) {
      auto row = protos[i % 4];
      for (float& v : row) v += static_cast<float>(rng.Normal(0.0, 0.01));
      samples.push_back(row);
    } else {
      std::vector<float> row(8);
      for (float& v : row) v = static_cast<float>(rng.Normal());
      samples.push_back(row);
    }
  }
  PrunerOptions ib;
  ib.mode = PruningMode::kInfoBatch;
  ib.anneal_fraction = 0.0;
  PrunerOptions pa = ib;
  pa.mode = PruningMode::kPa;
  Pruner pruner_ib(ib, n, samples);
  Pruner pruner_pa(pa, n, samples);
  Rng loss_rng(11);
  for (size_t i = 0; i < n; ++i) {
    // Duplicated samples share (high) losses; unique ones vary.
    double loss =
        i < n / 2 ? 2.0 + 0.01 * double(i % 4) : loss_rng.Uniform(0.0, 4.0);
    pruner_ib.RecordLoss(i, loss);
    pruner_pa.RecordLoss(i, loss);
  }
  size_t ib_total = 0, pa_total = 0;
  for (int e = 1; e <= 10; ++e) {
    ib_total += pruner_ib.PlanEpoch(static_cast<size_t>(e), 1000).kept.size();
    pa_total += pruner_pa.PlanEpoch(static_cast<size_t>(e), 1000).kept.size();
  }
  EXPECT_LT(pa_total, ib_total);
}

TEST(PrunerTest, RecordLossMaintainsRunningMean) {
  PrunerOptions opts;
  Pruner pruner(opts, 2, {});
  pruner.RecordLoss(0, 1.0);
  pruner.RecordLoss(0, 3.0);
  EXPECT_DOUBLE_EQ(pruner.SampleLoss(0), 2.0);
  EXPECT_TRUE(pruner.SampleSeen(0));
  EXPECT_FALSE(pruner.SampleSeen(1));
  EXPECT_DOUBLE_EQ(pruner.MeanLoss(), 2.0);  // only seen samples count
}

TEST(PrunerTest, DeterministicForSeed) {
  PrunerOptions opts;
  opts.mode = PruningMode::kInfoBatch;
  opts.anneal_fraction = 0.0;
  opts.seed = 123;
  auto run = [&] {
    Pruner p(opts, 100, {});
    for (size_t i = 0; i < 100; ++i) p.RecordLoss(i, 0.01 * double(i));
    return p.PlanEpoch(1, 100).kept;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace kdsel::core
