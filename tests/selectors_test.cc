#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "selectors/backbone.h"
#include "selectors/classical.h"
#include "selectors/decision_tree.h"
#include "selectors/dtw.h"
#include "selectors/more_classical.h"
#include "selectors/rocket.h"
#include "selectors/selector.h"

namespace kdsel::selectors {
namespace {

/// A 3-class window-classification task with clearly distinct shapes:
/// class 0 = low-frequency sine, class 1 = high-frequency sine,
/// class 2 = noisy ramp. Any reasonable TSC method separates these.
TrainingData MakeShapeTask(size_t per_class, uint64_t seed,
                           size_t window = 32) {
  Rng rng(seed);
  TrainingData data;
  data.num_classes = 3;
  for (size_t i = 0; i < per_class; ++i) {
    for (int c = 0; c < 3; ++c) {
      std::vector<float> w(window);
      double phase = rng.Uniform(0, 6.28);
      for (size_t t = 0; t < window; ++t) {
        switch (c) {
          case 0:
            w[t] = static_cast<float>(std::sin(0.2 * t + phase) +
                                      0.1 * rng.Normal());
            break;
          case 1:
            w[t] = static_cast<float>(std::sin(1.3 * t + phase) +
                                      0.1 * rng.Normal());
            break;
          default:
            w[t] = static_cast<float>(0.08 * t + 0.2 * rng.Normal());
        }
      }
      data.windows.push_back(std::move(w));
      data.labels.push_back(c);
    }
  }
  return data;
}

double AccuracyOn(Selector& selector, const TrainingData& data) {
  auto pred = selector.Predict(data.windows);
  KDSEL_CHECK(pred.ok());
  size_t hits = 0;
  for (size_t i = 0; i < pred->size(); ++i) {
    hits += ((*pred)[i] == data.labels[i]);
  }
  return static_cast<double>(hits) / static_cast<double>(pred->size());
}

using SelectorFactory = std::function<std::unique_ptr<Selector>()>;

struct SelectorCase {
  std::string name;
  SelectorFactory make;
};

std::vector<SelectorCase> AllClassicalSelectors() {
  return {
      {"KNN",
       [] { return std::make_unique<KnnSelector>(KnnSelector::Options{}); }},
      {"SVC",
       [] { return std::make_unique<SvcSelector>(SvcSelector::Options{}); }},
      {"AdaBoost",
       [] {
         return std::make_unique<AdaBoostSelector>(AdaBoostSelector::Options{});
       }},
      {"RandomForest",
       [] {
         return std::make_unique<RandomForestSelector>(
             RandomForestSelector::Options{});
       }},
      {"Rocket",
       [] {
         return std::make_unique<RocketSelector>(RocketSelector::Options{});
       }},
      {"ED-1NN", [] { return std::make_unique<Ed1nnSelector>(); }},
      {"Logistic", [] { return std::make_unique<LogisticSelector>(); }},
      {"NearestCentroid",
       [] { return std::make_unique<NearestCentroidSelector>(); }},
      {"GaussianNB", [] { return std::make_unique<GaussianNbSelector>(); }},
      {"DTW-1NN", [] { return std::make_unique<DtwSelector>(); }},
  };
}

class ClassicalSelectorTest : public ::testing::TestWithParam<SelectorCase> {};

TEST_P(ClassicalSelectorTest, LearnsSeparableShapes) {
  auto selector = GetParam().make();
  EXPECT_EQ(selector->name(), GetParam().name);
  TrainingData train = MakeShapeTask(25, 1);
  ASSERT_TRUE(selector->Fit(train).ok());
  TrainingData test = MakeShapeTask(10, 2);
  EXPECT_GT(AccuracyOn(*selector, test), 0.7)
      << GetParam().name << " failed on a separable task";
}

TEST_P(ClassicalSelectorTest, PredictBeforeFitFails) {
  auto selector = GetParam().make();
  EXPECT_FALSE(selector->Predict({{1.0f, 2.0f}}).ok());
}

TEST_P(ClassicalSelectorTest, RejectsInvalidTrainingData) {
  auto selector = GetParam().make();
  TrainingData empty;
  empty.num_classes = 2;
  EXPECT_FALSE(selector->Fit(empty).ok());

  TrainingData mismatched = MakeShapeTask(3, 1);
  mismatched.labels.pop_back();
  EXPECT_FALSE(selector->Fit(mismatched).ok());

  TrainingData bad_label = MakeShapeTask(3, 1);
  bad_label.labels[0] = 99;
  EXPECT_FALSE(selector->Fit(bad_label).ok());
}

INSTANTIATE_TEST_SUITE_P(AllClassical, ClassicalSelectorTest,
                         ::testing::ValuesIn(AllClassicalSelectors()),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(DecisionTreeTest, FitsAxisAlignedSplit) {
  std::vector<std::vector<float>> rows{{0.f}, {1.f}, {2.f}, {10.f}, {11.f}};
  std::vector<int> labels{0, 0, 0, 1, 1};
  DecisionTree tree(DecisionTree::Options{});
  ASSERT_TRUE(tree.Fit(rows, labels, 2, {}).ok());
  EXPECT_EQ(tree.PredictOne({1.5f}), 0);
  EXPECT_EQ(tree.PredictOne({10.5f}), 1);
}

TEST(DecisionTreeTest, FitsXorWithDepth3) {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    float a = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    float b = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    rows.push_back({a + 0.05f * static_cast<float>(rng.Normal()),
                    b + 0.05f * static_cast<float>(rng.Normal())});
    labels.push_back((a != b) ? 1 : 0);
  }
  // Depth 2 can fail on XOR (zero Gini gain at the root makes the first
  // split arbitrary); depth 3 always has room to recover.
  DecisionTree::Options opts;
  opts.max_depth = 3;
  DecisionTree tree(opts);
  ASSERT_TRUE(tree.Fit(rows, labels, 2, {}).ok());
  auto pred = tree.Predict(rows);
  size_t hits = 0;
  for (size_t i = 0; i < pred.size(); ++i) hits += (pred[i] == labels[i]);
  EXPECT_GT(static_cast<double>(hits) / pred.size(), 0.9);
}

TEST(DecisionTreeTest, WeightsShiftTheMajority) {
  // Two identical points with different labels: weight decides.
  std::vector<std::vector<float>> rows{{1.0f}, {1.0f}};
  std::vector<int> labels{0, 1};
  DecisionTree tree(DecisionTree::Options{});
  ASSERT_TRUE(tree.Fit(rows, labels, 2, {0.1, 10.0}).ok());
  EXPECT_EQ(tree.PredictOne({1.0f}), 1);
}

TEST(DecisionTreeTest, RespectsMaxDepthOne) {
  TrainingData task = MakeShapeTask(10, 3, 8);
  std::vector<std::vector<float>> rows = task.windows;
  DecisionTree::Options opts;
  opts.max_depth = 1;
  DecisionTree tree(opts);
  ASSERT_TRUE(tree.Fit(rows, task.labels, 3, {}).ok());
  EXPECT_LE(tree.node_count(), 3u);  // root + two leaves
}

TEST(DecisionTreeTest, RejectsBadInput) {
  DecisionTree tree(DecisionTree::Options{});
  EXPECT_FALSE(tree.Fit({}, {}, 2, {}).ok());
  EXPECT_FALSE(tree.Fit({{1.0f}}, {0, 1}, 2, {}).ok());
  EXPECT_FALSE(tree.Fit({{1.0f}}, {0}, 2, {0.5, 0.5}).ok());
}

class BackboneTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BackboneTest, ForwardShapeAndDeterminism) {
  Rng rng(4);
  auto backbone = BuildBackbone(GetParam(), 32, rng);
  ASSERT_TRUE(backbone.ok());
  EXPECT_EQ((*backbone)->name(), GetParam());
  EXPECT_EQ((*backbone)->input_length(), 32u);
  EXPECT_GT((*backbone)->feature_dim(), 0u);

  nn::Tensor x({4, 32});
  Rng data_rng(5);
  for (float& v : x.mutable_data()) {
    v = static_cast<float>(data_rng.Normal());
  }
  nn::Tensor z1 = (*backbone)->Forward(x, /*training=*/false);
  EXPECT_EQ(z1.dim(0), 4u);
  EXPECT_EQ(z1.dim(1), (*backbone)->feature_dim());
  nn::Tensor z2 = (*backbone)->Forward(x, /*training=*/false);
  for (size_t i = 0; i < z1.size(); ++i) EXPECT_FLOAT_EQ(z1[i], z2[i]);
}

TEST_P(BackboneTest, HasTrainableParameters) {
  Rng rng(6);
  auto backbone = BuildBackbone(GetParam(), 32, rng);
  ASSERT_TRUE(backbone.ok());
  EXPECT_GT(nn::ParameterCount(**backbone), 100u);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneTest,
                         ::testing::ValuesIn(BackboneNames()),
                         [](const auto& info) { return info.param; });

TEST(BackboneFactoryTest, UnknownNameRejected) {
  Rng rng(1);
  EXPECT_FALSE(BuildBackbone("LSTMNet", 32, rng).ok());
}

TEST(BackboneFactoryTest, TransformerHandlesOddWindow) {
  Rng rng(1);
  // 30 is not divisible by the default patch size 8; the factory must
  // pick a compatible patch size rather than crash.
  auto backbone = BuildBackbone("Transformer", 30, rng);
  ASSERT_TRUE(backbone.ok());
  nn::Tensor x({2, 30});
  nn::Tensor z = (*backbone)->Forward(x, false);
  EXPECT_EQ(z.dim(0), 2u);
}

}  // namespace
}  // namespace kdsel::selectors
