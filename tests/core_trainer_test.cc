#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/rng.h"
#include "core/mki.h"
#include "core/selection.h"
#include "core/trainer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace kdsel::core {
namespace {

/// A small 3-class window task where class is determined by frequency,
/// with synthetic "performance" rows (best model scores highest) and
/// class-revealing metadata texts.
SelectorTrainingData MakeTask(size_t per_class, uint64_t seed,
                              size_t window = 32) {
  Rng rng(seed);
  SelectorTrainingData data;
  data.num_classes = 3;
  const char* kTexts[3] = {
      "slow periodic wave from dataset alpha with few anomalies",
      "fast oscillation from dataset beta with spiky anomalies",
      "steady linear ramp from dataset gamma with drift anomalies"};
  for (size_t i = 0; i < per_class; ++i) {
    for (int c = 0; c < 3; ++c) {
      std::vector<float> w(window);
      double phase = rng.Uniform(0, 6.28);
      for (size_t t = 0; t < window; ++t) {
        switch (c) {
          case 0:
            w[t] = static_cast<float>(std::sin(0.2 * t + phase) +
                                      0.05 * rng.Normal());
            break;
          case 1:
            w[t] = static_cast<float>(std::sin(1.4 * t + phase) +
                                      0.05 * rng.Normal());
            break;
          default:
            w[t] = static_cast<float>(0.07 * t + 0.1 * rng.Normal());
        }
      }
      data.windows.push_back(std::move(w));
      data.labels.push_back(c);
      std::vector<float> perf(3, 0.2f);
      perf[static_cast<size_t>(c)] = 0.9f;
      perf[(static_cast<size_t>(c) + 1) % 3] = 0.4f;
      data.performance.push_back(std::move(perf));
      data.texts.push_back(kTexts[c]);
    }
  }
  return data;
}

double AccuracyOn(const TrainedSelector& selector,
                  const SelectorTrainingData& data) {
  auto pred = selector.Predict(data.windows);
  KDSEL_CHECK(pred.ok());
  size_t hits = 0;
  for (size_t i = 0; i < pred->size(); ++i) {
    hits += ((*pred)[i] == data.labels[i]);
  }
  return static_cast<double>(hits) / static_cast<double>(pred->size());
}

TrainerOptions FastOptions() {
  TrainerOptions opts;
  opts.backbone = "ConvNet";  // cheapest backbone for tests
  opts.epochs = 8;
  opts.batch_size = 32;
  opts.learning_rate = 3e-3;
  opts.seed = 5;
  return opts;
}

TEST(TrainerTest, StandardTrainingLearnsTask) {
  SelectorTrainingData train = MakeTask(20, 1);
  TrainStats stats;
  auto selector = TrainSelector(train, FastOptions(), &stats);
  ASSERT_TRUE(selector.ok()) << selector.status();
  SelectorTrainingData test = MakeTask(8, 2);
  EXPECT_GT(AccuracyOn(**selector, test), 0.7);
  EXPECT_GT(stats.train_seconds, 0.0);
  EXPECT_EQ(stats.samples_visited, stats.full_dataset_visits);
  EXPECT_EQ(stats.epoch_loss.size(), 8u);
}

TEST(TrainerTest, PislTrainingLearnsTask) {
  SelectorTrainingData train = MakeTask(20, 3);
  TrainerOptions opts = FastOptions();
  opts.use_pisl = true;
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok()) << selector.status();
  SelectorTrainingData test = MakeTask(8, 4);
  EXPECT_GT(AccuracyOn(**selector, test), 0.7);
}

TEST(TrainerTest, MkiTrainingLearnsTask) {
  SelectorTrainingData train = MakeTask(20, 5);
  TrainerOptions opts = FastOptions();
  opts.use_mki = true;
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok()) << selector.status();
  SelectorTrainingData test = MakeTask(8, 6);
  EXPECT_GT(AccuracyOn(**selector, test), 0.7);
}

TEST(TrainerTest, FullKdSelectorLearnsTaskWithFewerVisits) {
  SelectorTrainingData train = MakeTask(25, 7);
  TrainerOptions opts = FastOptions();
  opts.epochs = 10;
  opts.use_pisl = true;
  opts.use_mki = true;
  opts.pruning.mode = PruningMode::kPa;
  TrainStats stats;
  auto selector = TrainSelector(train, opts, &stats);
  ASSERT_TRUE(selector.ok()) << selector.status();
  EXPECT_LT(stats.samples_visited, stats.full_dataset_visits);
  SelectorTrainingData test = MakeTask(8, 8);
  EXPECT_GT(AccuracyOn(**selector, test), 0.65);
  EXPECT_EQ((*selector)->name(), "ConvNet+KDSelector");
}

TEST(TrainerTest, InfoBatchVisitsFewerThanFull) {
  SelectorTrainingData train = MakeTask(25, 9);
  TrainerOptions opts = FastOptions();
  opts.pruning.mode = PruningMode::kInfoBatch;
  TrainStats stats;
  auto selector = TrainSelector(train, opts, &stats);
  ASSERT_TRUE(selector.ok());
  EXPECT_LT(stats.samples_visited, stats.full_dataset_visits);
}

TEST(TrainerTest, ValidatesInput) {
  TrainerOptions opts = FastOptions();
  SelectorTrainingData empty;
  empty.num_classes = 3;
  EXPECT_FALSE(TrainSelector(empty, opts, nullptr).ok());

  SelectorTrainingData task = MakeTask(2, 1);
  opts.use_pisl = true;
  task.performance.clear();
  EXPECT_FALSE(TrainSelector(task, opts, nullptr).ok());

  SelectorTrainingData task2 = MakeTask(2, 1);
  TrainerOptions opts2 = FastOptions();
  opts2.use_mki = true;
  task2.texts.clear();
  EXPECT_FALSE(TrainSelector(task2, opts2, nullptr).ok());

  SelectorTrainingData task3 = MakeTask(2, 1);
  task3.labels[0] = 7;
  EXPECT_FALSE(TrainSelector(task3, FastOptions(), nullptr).ok());

  TrainerOptions opts4 = FastOptions();
  opts4.backbone = "NoSuchNet";
  SelectorTrainingData task4 = MakeTask(2, 1);
  EXPECT_FALSE(TrainSelector(task4, opts4, nullptr).ok());
}

TEST(TrainerTest, DeterministicTraining) {
  SelectorTrainingData train = MakeTask(10, 11);
  TrainerOptions opts = FastOptions();
  opts.epochs = 3;
  auto s1 = TrainSelector(train, opts, nullptr);
  auto s2 = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(s1.ok() && s2.ok());
  auto p1 = (*s1)->Predict(train.windows);
  auto p2 = (*s2)->Predict(train.windows);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(*p1, *p2);
}

TEST(TrainerTest, FitOnTrainedSelectorFails) {
  SelectorTrainingData train = MakeTask(4, 12);
  TrainerOptions opts = FastOptions();
  opts.epochs = 1;
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok());
  selectors::TrainingData dummy;
  EXPECT_FALSE((*selector)->Fit(dummy).ok());
}

TEST(TrainerTest, PredictRejectsWrongWindowLength) {
  SelectorTrainingData train = MakeTask(4, 13);
  TrainerOptions opts = FastOptions();
  opts.epochs = 1;
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok());
  EXPECT_FALSE((*selector)->Predict({{1.0f, 2.0f}}).ok());
  EXPECT_FALSE((*selector)->Predict({}).ok());
}

TEST(TrainerTest, SaveLoadRoundTripPreservesPredictions) {
  SelectorTrainingData train = MakeTask(10, 14);
  TrainerOptions opts = FastOptions();
  opts.epochs = 4;
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok());
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "kdsel_selector").string();
  ASSERT_TRUE((*selector)->Save(prefix).ok());
  auto loaded = TrainedSelector::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto p1 = (*selector)->Predict(train.windows);
  auto p2 = (*loaded)->Predict(train.windows);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(*p1, *p2);
  EXPECT_EQ((*loaded)->num_classes(), 3u);
  std::filesystem::remove(prefix + ".meta");
  std::filesystem::remove(prefix + ".weights");
}

TEST(MkiHeadTest, LossDropsForAlignedPairsAfterUpdates) {
  // Train only the projections on fixed aligned features: InfoNCE must
  // decrease, showing gradients point the right way end to end.
  Rng rng(15);
  MkiHead::Options opts;
  opts.ts_feature_dim = 8;
  opts.text_feature_dim = 12;
  opts.hidden = 16;
  opts.shared_dim = 4;
  MkiHead head(opts, rng);

  nn::Tensor z_t({6, 8}), z_k({6, 12});
  for (float& v : z_t.mutable_data()) v = static_cast<float>(rng.Normal());
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 12; ++j) {
      z_k.At(i, j) = z_t.At(i, j % 8);  // aligned by construction
    }
  }
  nn::Adam opt(head.Parameters(), 1e-2);
  double first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    auto out = head.ComputeLoss(z_t, z_k, {});
    if (step == 0) first = out.loss;
    last = out.loss;
    opt.Step();
    opt.ZeroGrad();
  }
  EXPECT_LT(last, first);
}

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

// The head's text branch stops at its first layer (parameter gradients
// only). A reference built from the same layers runs the full backward
// through h_K, input gradient included, and discards it. Over two
// accumulating steps, with grouped negatives and lambda != 1, the loss,
// per-sample losses, grad_z_t and every parameter gradient must be
// equal bit for bit. The reference takes its weights from
// head.Parameters(), so that list must be h_T's layers, then h_K's.
TEST(MkiHeadTest, TextBranchMatchesFullBackward) {
  MkiHead::Options opts;
  opts.ts_feature_dim = 24;
  opts.text_feature_dim = 40;
  opts.hidden = 32;
  opts.shared_dim = 8;
  opts.temperature = 0.1;
  opts.lambda = 0.78;
  Rng rng(16);
  MkiHead head(opts, rng);

  nn::Sequential ref_t, ref_k;
  ref_t.Add(std::make_unique<nn::Linear>(24, 32, rng));
  ref_t.Add(std::make_unique<nn::ReLU>());
  ref_t.Add(std::make_unique<nn::Linear>(32, 8, rng));
  ref_k.Add(std::make_unique<nn::Linear>(40, 32, rng));
  ref_k.Add(std::make_unique<nn::ReLU>());
  ref_k.Add(std::make_unique<nn::Linear>(32, 8, rng));
  std::vector<nn::Parameter*> params = head.Parameters();
  std::vector<nn::Parameter*> ref_params = ref_t.Parameters();
  for (nn::Parameter* p : ref_k.Parameters()) ref_params.push_back(p);
  ASSERT_EQ(params.size(), ref_params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->value.shape(), ref_params[i]->value.shape()) << i;
    ref_params[i]->value = params[i]->value;
  }

  const size_t batch = 12;
  const std::vector<size_t> groups{0, 1, 2, 0, 3, 1, 4, 5, 2, 6, 7, 3};
  std::vector<float> weights(batch);
  nn::InfoNceResult ref_nce;
  MkiHead::Result out;
  for (int step = 0; step < 2; ++step) {
    nn::Tensor z_t({batch, 24}), z_k({batch, 40});
    for (float& v : z_t.mutable_data()) v = static_cast<float>(rng.Normal());
    for (float& v : z_k.mutable_data()) v = static_cast<float>(rng.Normal());
    for (float& w : weights) w = static_cast<float>(rng.Uniform(0.5, 2.0));

    head.ComputeLoss(z_t, z_k, weights, groups, &out);

    const nn::Tensor proj_t = ref_t.Forward(z_t, /*training=*/true);
    const nn::Tensor proj_k = ref_k.Forward(z_k, /*training=*/true);
    nn::InfoNce(proj_t, proj_k, opts.temperature, weights, groups,
                &ref_nce);
    const float lambda = static_cast<float>(opts.lambda);
    ref_nce.grad_a.ScaleInPlace(lambda);
    ref_nce.grad_b.ScaleInPlace(lambda);
    const nn::Tensor ref_grad_z_t = ref_t.Backward(ref_nce.grad_a);
    const nn::Tensor ref_grad_z_k = ref_k.Backward(ref_nce.grad_b);
    ASSERT_EQ(ref_grad_z_k.shape(), z_k.shape());

    EXPECT_EQ(out.loss, opts.lambda * ref_nce.mean_loss) << step;
    ASSERT_EQ(out.per_sample.size(), ref_nce.per_sample.size());
    EXPECT_EQ(std::memcmp(out.per_sample.data(), ref_nce.per_sample.data(),
                          batch * sizeof(float)),
              0)
        << step;
    EXPECT_TRUE(SameBits(out.grad_z_t, ref_grad_z_t)) << step;
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(SameBits(params[i]->grad, ref_params[i]->grad))
          << "step " << step << " parameter " << i;
    }
  }
}

TEST(SelectionTest, MajorityVote) {
  SelectorTrainingData train = MakeTask(15, 16);
  TrainerOptions opts = FastOptions();
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok());

  // Build a series whose windows are all class-1-shaped (fast sine).
  std::vector<float> values(32 * 6);
  for (size_t t = 0; t < values.size(); ++t) {
    values[t] = static_cast<float>(std::sin(1.4 * t));
  }
  ts::TimeSeries series("fast", std::move(values));
  ts::WindowOptions wo;
  wo.length = 32;
  wo.stride = 32;
  auto sel = SelectSeriesModel(**selector, series, wo, 3);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->model, 1);
  EXPECT_EQ(sel->num_windows, 6u);
  int total_votes = 0;
  for (int v : sel->votes) total_votes += v;
  EXPECT_EQ(total_votes, 6);
}

// One batched call over series of 6 windows, 1 padded window, none and
// 3 windows: each slot is what the one-series call gives for its series.
TEST(SelectionTest, BatchedMatchesPerSeries) {
  SelectorTrainingData train = MakeTask(15, 16);
  TrainerOptions opts = FastOptions();
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok());

  auto wave = [](size_t n, double freq) {
    std::vector<float> values(n);
    for (size_t t = 0; t < n; ++t) {
      values[t] = static_cast<float>(std::sin(freq * static_cast<double>(t)));
    }
    return values;
  };
  const std::vector<ts::TimeSeries> series = {
      ts::TimeSeries("fast", wave(32 * 6, 1.4)),
      ts::TimeSeries("short", wave(20, 0.2)),
      ts::TimeSeries("empty", std::vector<float>{}),
      ts::TimeSeries("slow", wave(32 * 3, 0.2))};
  const std::vector<const ts::TimeSeries*> batch = {&series[0], &series[1],
                                                    &series[2], &series[3]};
  ts::WindowOptions wo;
  wo.length = 32;
  wo.stride = 32;
  auto selections = SelectSeriesModels(**selector, batch, wo, 3);
  ASSERT_EQ(selections.size(), 4u);
  const size_t expected_windows[] = {6, 1, 0, 3};
  for (size_t i = 0; i < series.size(); ++i) {
    if (i == 2) continue;
    auto alone = SelectSeriesModel(**selector, series[i], wo, 3);
    ASSERT_TRUE(alone.ok()) << i << ": " << alone.status();
    ASSERT_TRUE(selections[i].ok()) << i << ": " << selections[i].status();
    EXPECT_EQ(selections[i]->model, alone->model) << i;
    EXPECT_EQ(selections[i]->votes, alone->votes) << i;
    EXPECT_EQ(selections[i]->num_windows, alone->num_windows) << i;
    EXPECT_EQ(selections[i]->num_windows, expected_windows[i]) << i;
  }
  ASSERT_FALSE(selections[2].ok());
  EXPECT_EQ(selections[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(selections[2].status().message(), "series produced no windows");

  for (const auto& selection : SelectSeriesModels(**selector, batch, wo, 0)) {
    ASSERT_FALSE(selection.ok());
    EXPECT_EQ(selection.status().message(), "num_classes must be positive");
  }
}

TEST(SelectionTest, RejectsZeroClasses) {
  SelectorTrainingData train = MakeTask(2, 17);
  TrainerOptions opts = FastOptions();
  opts.epochs = 1;
  auto selector = TrainSelector(train, opts, nullptr);
  ASSERT_TRUE(selector.ok());
  ts::TimeSeries series("x", std::vector<float>(64, 1.0f));
  ts::WindowOptions wo;
  wo.length = 32;
  EXPECT_FALSE(SelectSeriesModel(**selector, series, wo, 0).ok());
}

}  // namespace
}  // namespace kdsel::core
