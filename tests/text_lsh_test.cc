#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "lsh/simhash.h"
#include "text/text_encoder.h"

namespace kdsel {
namespace {

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  return dot / std::sqrt(na * nb);
}

TEST(TokenizeTest, LowercasesAndSplitsOnNonAlnum) {
  auto tokens = text::Tokenize("Hello, World! ECG-123 data");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "ecg");
  EXPECT_EQ(tokens[3], "123");
  EXPECT_EQ(tokens[4], "data");
}

TEST(TokenizeTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(text::Tokenize("").empty());
  EXPECT_TRUE(text::Tokenize("!!! ... ---").empty());
}

TEST(TextEncoderTest, OutputDimAndUnitNorm) {
  text::HashedTextEncoder encoder;
  auto v = encoder.Encode("a heart rate time series with two anomalies");
  EXPECT_EQ(v.size(), 768u);
  double norm = 0;
  for (float x : v) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
}

TEST(TextEncoderTest, DeterministicAcrossInstances) {
  text::HashedTextEncoder a, b;
  auto va = a.Encode("the same text");
  auto vb = b.Encode("the same text");
  for (size_t i = 0; i < va.size(); ++i) EXPECT_FLOAT_EQ(va[i], vb[i]);
}

TEST(TextEncoderTest, SimilarTextsCloserThanDissimilar) {
  text::HashedTextEncoder encoder;
  auto ecg1 = encoder.Encode(
      "This is a time series from dataset ECG, an electrocardiogram "
      "recording with ventricular anomalies. The length is 500.");
  auto ecg2 = encoder.Encode(
      "This is a time series from dataset ECG, an electrocardiogram "
      "recording with ventricular anomalies. The length is 900.");
  auto traffic = encoder.Encode(
      "Completely different words about freeway loop detectors and "
      "baseball game traffic surges in Los Angeles.");
  EXPECT_GT(Cosine(ecg1, ecg2), Cosine(ecg1, traffic) + 0.2);
}

TEST(TextEncoderTest, SharedVocabularyRaisesSimilarity) {
  text::HashedTextEncoder encoder;
  auto a = encoder.Encode("anomaly detection in sensor networks");
  auto b = encoder.Encode("anomaly detection in wireless networks");
  auto c = encoder.Encode("quarterly financial revenue projections");
  EXPECT_GT(Cosine(a, b), Cosine(a, c));
}

TEST(TextEncoderTest, EmptyTextIsZeroVector) {
  text::HashedTextEncoder encoder;
  auto v = encoder.Encode("");
  for (float x : v) EXPECT_EQ(x, 0.0f);
}

TEST(TextEncoderTest, BatchMatchesSingle) {
  text::HashedTextEncoder encoder;
  std::vector<std::string> texts{"first text", "second different text"};
  auto batch = encoder.EncodeBatch(texts);
  EXPECT_EQ(batch.dim(0), 2u);
  EXPECT_EQ(batch.dim(1), 768u);
  auto single = encoder.Encode(texts[1]);
  for (size_t j = 0; j < 768; ++j) {
    EXPECT_FLOAT_EQ(batch.At(1, j), single[j]);
  }
}

// Every caller gets the one process-wide encoder, and it embeds exactly
// as a freshly built default encoder does: same options, seed and draws.
TEST(TextEncoderTest, DefaultTextEncoderIsSharedAndExact) {
  const text::HashedTextEncoder& shared = text::DefaultTextEncoder();
  EXPECT_EQ(&shared, &text::DefaultTextEncoder());
  const text::HashedTextEncoder fresh;
  EXPECT_EQ(shared.options().vocab_dim, fresh.options().vocab_dim);
  EXPECT_EQ(shared.options().output_dim, fresh.options().output_dim);
  EXPECT_EQ(shared.options().seed, fresh.options().seed);
  const std::vector<std::string> texts{
      "This is a time series from dataset ECG, a standard "
      "electrocardiogram dataset.",
      "There are 3 anomalies in this series.", "", "anomalies anomaly"};
  const nn::Tensor a = shared.EncodeBatch(texts);
  const nn::Tensor b = fresh.EncodeBatch(texts);
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0);
}

TEST(TextEncoderTest, CustomDimensions) {
  text::HashedTextEncoder::Options opts;
  opts.output_dim = 128;
  opts.vocab_dim = 512;
  text::HashedTextEncoder encoder(opts);
  EXPECT_EQ(encoder.Encode("hi there").size(), 128u);
}

TEST(SimHashTest, DeterministicSignatures) {
  lsh::SimHash h(16, 14, 7);
  std::vector<float> x(16, 1.0f);
  EXPECT_EQ(h.Signature(x), h.Signature(x));
}

TEST(SimHashTest, SignatureUsesRequestedBits) {
  lsh::SimHash h(8, 10, 3);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    std::vector<float> x(8);
    for (float& v : x) v = static_cast<float>(rng.Normal());
    EXPECT_LT(h.Signature(x), uint64_t{1} << 10);
  }
}

TEST(SimHashTest, IdenticalVectorsShareSignature) {
  lsh::SimHash h(32, 14, 11);
  Rng rng(2);
  std::vector<float> x(32);
  for (float& v : x) v = static_cast<float>(rng.Normal());
  std::vector<float> y = x;
  EXPECT_EQ(h.Signature(x), h.Signature(y));
}

TEST(SimHashTest, SimilarVectorsAgreeOnMoreBitsThanDissimilar) {
  lsh::SimHash h(64, 32, 13);
  Rng rng(3);
  double similar_dist = 0, dissimilar_dist = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> x(64), near(64), far(64);
    for (size_t i = 0; i < 64; ++i) {
      x[i] = static_cast<float>(rng.Normal());
      near[i] = x[i] + static_cast<float>(rng.Normal(0.0, 0.1));
      far[i] = static_cast<float>(rng.Normal());
    }
    similar_dist += lsh::HammingDistance(h.Signature(x), h.Signature(near));
    dissimilar_dist += lsh::HammingDistance(h.Signature(x), h.Signature(far));
  }
  EXPECT_LT(similar_dist / trials + 4, dissimilar_dist / trials);
}

TEST(SimHashTest, HammingDistance) {
  EXPECT_EQ(lsh::HammingDistance(0b1010, 0b1010), 0);
  EXPECT_EQ(lsh::HammingDistance(0b1010, 0b0101), 4);
  EXPECT_EQ(lsh::HammingDistance(0, ~uint64_t{0}), 64);
}

TEST(SimHashTest, BuildBucketsGroupsDuplicates) {
  lsh::SimHash h(8, 14, 17);
  Rng rng(4);
  std::vector<std::vector<float>> rows;
  std::vector<float> base(8);
  for (float& v : base) v = static_cast<float>(rng.Normal());
  rows.push_back(base);
  rows.push_back(base);  // exact duplicate
  std::vector<float> other(8);
  for (float& v : other) v = static_cast<float>(rng.Normal());
  rows.push_back(other);

  auto buckets = lsh::BuildBuckets(h, rows);
  // The two duplicates must share a bucket.
  uint64_t sig = h.Signature(base);
  ASSERT_TRUE(buckets.count(sig));
  EXPECT_GE(buckets[sig].size(), 2u);
  size_t total = 0;
  for (const auto& [k, v] : buckets) total += v.size();
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace kdsel
