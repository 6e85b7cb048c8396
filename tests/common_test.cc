#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/csv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stringutil.h"

namespace kdsel {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kIoError, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Doubled(StatusOr<int> in) {
  KDSEL_ASSIGN_OR_RETURN(int v, std::move(in));
  return 2 * v;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  auto ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  auto err = Doubled(Status::Internal("boom"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Index(1000) == b.Index(1000)) ++same;
  }
  EXPECT_LT(same, 20);
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, IndexInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Index(17), 17u);
  }
}

TEST(RngTest, SampleReturnsDistinctIndices) {
  Rng rng(5);
  auto sample = rng.Sample(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t i : sample) EXPECT_LT(i, 50u);
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(5);
  auto sample = rng.Sample(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // The child stream should not replay the parent's stream.
  Rng b(42);
  (void)b.engine()();  // advance like Fork did
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.Index(1000000) == a.Index(1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_TRUE(StartsWith("ResNet+KDSelector", "ResNet"));
  EXPECT_FALSE(StartsWith("ResNet", "ResNet+"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kdsel_csv_test.csv").string();
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "x"}, {"2", "y"}};
  ASSERT_TRUE(WriteCsv(path, table).ok());
  auto loaded = ReadCsv(path, /*has_header=*/true);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, table.header);
  EXPECT_EQ(loaded->rows, table.rows);
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto result = ReadCsv("/nonexistent/path/file.csv", true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kdsel
