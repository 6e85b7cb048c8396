#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "selectors/backbone.h"

namespace kdsel {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

void AppendU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// One integer field of a `.weights` header: the tensor count, a rank
/// or a dimension.
struct HeaderField {
  size_t offset = 0;
  size_t width = 0;  ///< 8 for the count and dims, 4 for a rank.
};

/// Walks a valid `.weights` file (magic, u64 count, then per tensor a
/// u32 rank, u64 dims and the float payload): every header field, and
/// every offset where a header field or a payload ends.
void WalkWeights(const std::string& bytes, std::vector<HeaderField>* fields,
                 std::vector<size_t>* boundaries) {
  auto read = [&](size_t at, size_t width) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, width);
    return v;
  };
  size_t at = 4;
  boundaries->push_back(at);
  fields->push_back({at, 8});
  const uint64_t count = read(at, 8);
  at += 8;
  boundaries->push_back(at);
  for (uint64_t t = 0; t < count; ++t) {
    fields->push_back({at, 4});
    const uint64_t rank = read(at, 4);
    at += 4;
    boundaries->push_back(at);
    uint64_t total = 1;
    for (uint64_t d = 0; d < rank; ++d) {
      fields->push_back({at, 8});
      total *= read(at, 8);
      at += 8;
      boundaries->push_back(at);
    }
    at += total * sizeof(float);
    boundaries->push_back(at);
  }
  ASSERT_EQ(at, bytes.size());
}

std::unique_ptr<core::TrainedSelector> TrainTinySelector() {
  core::SelectorTrainingData data;
  data.num_classes = 2;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const int c = i % 2;
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.25 + 0.75 * c) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    data.windows.push_back(std::move(w));
    data.labels.push_back(c);
  }
  core::TrainerOptions opts;
  opts.backbone = "ConvNet";
  opts.epochs = 1;
  auto selector = core::TrainSelector(data, opts, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

class SelectorManagerFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("kdsel_load_failure");
    manager_ = std::make_unique<core::SelectorManager>(dir_);
    auto trained = TrainTinySelector();
    ASSERT_TRUE(manager_->Save(*trained, "good").ok());
    meta_path_ = dir_ + "/good.meta";
    weights_path_ = dir_ + "/good.weights";
    ASSERT_TRUE(fs::exists(meta_path_));
    ASSERT_TRUE(fs::exists(weights_path_));
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  std::unique_ptr<core::SelectorManager> manager_;
  std::string meta_path_;
  std::string weights_path_;
};

TEST_F(SelectorManagerFailureTest, IntactSelectorLoads) {
  auto loaded = manager_->Load("good");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->num_classes(), 2u);
  EXPECT_EQ((*loaded)->input_length(), 16u);
}

TEST_F(SelectorManagerFailureTest, MissingNameReturnsError) {
  auto loaded = manager_->Load("does_not_exist");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  // The message names the selector; the directory stays server-side.
  EXPECT_EQ(loaded.status().message(),
            "no saved selector named does_not_exist");
  EXPECT_EQ(manager_->Remove("does_not_exist").code(), StatusCode::kNotFound);
}

// Save's name rule holds for Load and Remove too: a name with a '/'
// (or none at all) never reaches the filesystem.
TEST_F(SelectorManagerFailureTest, NameWithSlashIsInvalid) {
  for (const std::string name : {"/etc/hostname", "../good", "sub/good", ""}) {
    auto loaded = manager_->Load(name);
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_EQ(manager_->Remove(name).code(), StatusCode::kInvalidArgument)
        << name;
  }
  EXPECT_TRUE(manager_->Load("good").ok());
}

TEST_F(SelectorManagerFailureTest, TruncatedWeightsReturnsError) {
  const std::string payload = ReadFile(weights_path_);
  ASSERT_GT(payload.size(), 16u);
  // Chop the payload at several points, including mid-header and
  // mid-tensor; every truncation must fail cleanly.
  for (const size_t keep :
       {size_t{0}, size_t{2}, size_t{9}, payload.size() / 2,
        payload.size() - 1}) {
    WriteFile(weights_path_, payload.substr(0, keep));
    auto loaded = manager_->Load("good");
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
  }
}

TEST_F(SelectorManagerFailureTest, CorruptedMagicReturnsError) {
  std::string payload = ReadFile(weights_path_);
  ASSERT_GT(payload.size(), 4u);
  payload[0] = 'X';
  payload[1] = 'Y';
  WriteFile(weights_path_, payload);
  EXPECT_FALSE(manager_->Load("good").ok());
}

// A missing, half-written or corrupt `.weights` next to a valid `.meta`
// is an IoError that names the selector and its file, never the
// directory (the message reaches serving clients).
class HalfWrittenCheckpointTest : public SelectorManagerFailureTest {
 protected:
  void ExpectIoErrorWithoutDirectory(const std::string& context) {
    auto loaded = manager_->Load("good");
    ASSERT_FALSE(loaded.ok()) << context;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
        << context << ": " << loaded.status();
    const std::string& message = loaded.status().message();
    EXPECT_EQ(message.rfind("saved selector good: ", 0), 0u)
        << context << ": " << message;
    EXPECT_NE(message.find("good.weights"), std::string::npos)
        << context << ": " << message;
    EXPECT_EQ(message.find(dir_), std::string::npos)
        << context << ": " << message;
  }
};

TEST_F(HalfWrittenCheckpointTest, MissingWeights) {
  fs::remove(weights_path_);
  ExpectIoErrorWithoutDirectory("missing");
}

TEST_F(HalfWrittenCheckpointTest, TruncatedWeights) {
  const std::string payload = ReadFile(weights_path_);
  ASSERT_GT(payload.size(), 16u);
  for (const size_t keep :
       {size_t{0}, size_t{2}, size_t{9}, payload.size() / 2,
        payload.size() - 1}) {
    WriteFile(weights_path_, payload.substr(0, keep));
    ExpectIoErrorWithoutDirectory("kept " + std::to_string(keep) + " bytes");
  }
}

TEST_F(HalfWrittenCheckpointTest, BadMagicWeights) {
  std::string payload = ReadFile(weights_path_);
  ASSERT_GT(payload.size(), 4u);
  payload[0] = 'X';
  payload[1] = 'Y';
  WriteFile(weights_path_, payload);
  ExpectIoErrorWithoutDirectory("bad magic");
}

TEST_F(SelectorManagerFailureTest, ArchitectureMismatchReturnsError) {
  // The weights on disk are for a ConvNet backbone; claiming a different
  // architecture in the metadata must be rejected at load time.
  WriteFile(meta_path_,
            "backbone=ResNet\ninput_length=16\nnum_classes=2\n"
            "display_name=good\n");
  EXPECT_FALSE(manager_->Load("good").ok());
  // Unknown architectures are rejected as well.
  WriteFile(meta_path_,
            "backbone=NoSuchNet\ninput_length=16\nnum_classes=2\n"
            "display_name=good\n");
  EXPECT_FALSE(manager_->Load("good").ok());
}

TEST_F(SelectorManagerFailureTest, ClassCountMismatchReturnsError) {
  // Classifier head shape no longer matches the stored tensors.
  WriteFile(meta_path_,
            "backbone=ConvNet\ninput_length=16\nnum_classes=5\n"
            "display_name=good\n");
  EXPECT_FALSE(manager_->Load("good").ok());
}

TEST_F(SelectorManagerFailureTest, MalformedMetaReturnsError) {
  WriteFile(meta_path_, "");
  EXPECT_FALSE(manager_->Load("good").ok());
  WriteFile(meta_path_, "backbone=ConvNet\ninput_length=banana\n");
  EXPECT_FALSE(manager_->Load("good").ok());
}

// Each of these used to take `kdsel serve` down on a reload or on the
// first select: a `.weights` header that claims more than the file
// holds, or a `.meta` that describes an architecture no selector has.
// They are IoErrors now, raised before anything is allocated for them.
TEST_F(SelectorManagerFailureTest, OversizedCheckpointsAreIoErrors) {
  const std::string meta = ReadFile(meta_path_);
  const std::string weights = ReadFile(weights_path_);
  auto expect_io_error = [&](const std::string& context) {
    auto loaded = manager_->Load("good");
    ASSERT_FALSE(loaded.ok()) << context;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
        << context << ": " << loaded.status();
    EXPECT_EQ(loaded.status().message().find(dir_), std::string::npos)
        << context << ": " << loaded.status();
  };

  // A tensor count of 2^63 over the real file.
  std::string patched = weights;
  const uint64_t huge_count = uint64_t{1} << 63;
  std::memcpy(patched.data() + 4, &huge_count, sizeof(huge_count));
  WriteFile(weights_path_, patched);
  expect_io_error("count 2^63");

  // One rank-2 tensor of 2^31 x 2^31 floats.
  std::string header = weights.substr(0, 4);
  AppendU64(header, 1);
  AppendU32(header, 2);
  AppendU64(header, uint64_t{1} << 31);
  AppendU64(header, uint64_t{1} << 31);
  WriteFile(weights_path_, header);
  expect_io_error("dims 2^31 x 2^31");

  WriteFile(weights_path_, weights);
  for (const std::string bad :
       {"backbone=ConvNet\ninput_length=16\nnum_classes=99999999999\n",
        "backbone=Transformer\ninput_length=99999999999\nnum_classes=2\n",
        "backbone=ConvNet\ninput_length=99999999999\nnum_classes=2\n"}) {
    WriteFile(meta_path_, bad + "display_name=good\n");
    expect_io_error(bad);
  }
  WriteFile(meta_path_, meta);
  EXPECT_TRUE(manager_->Load("good").ok());
}

// Save refuses what Load would refuse, so every checkpoint it writes
// loads again.
TEST_F(SelectorManagerFailureTest, SaveRefusesArchitecturesLoadRefuses) {
  Rng rng(5);
  auto build = [&](size_t input_length, size_t num_classes) {
    auto backbone = selectors::BuildBackbone("ConvNet", input_length, rng);
    KDSEL_CHECK(backbone.ok());
    auto classifier = std::make_unique<nn::Linear>(
        (*backbone)->feature_dim(), num_classes, rng);
    return core::TrainedSelector(std::move(backbone).value(),
                                 std::move(classifier), num_classes, "big");
  };
  using core::TrainedSelector;
  EXPECT_EQ(manager_->Save(build(TrainedSelector::kMaxInputLength + 1, 2),
                           "long")
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_->Save(build(16, TrainedSelector::kMaxClasses + 1), "wide")
                .code(),
            StatusCode::kInvalidArgument);
  const TrainedSelector edge = build(TrainedSelector::kMaxInputLength,
                                     TrainedSelector::kMaxClasses);
  ASSERT_TRUE(manager_->Save(edge, "edge").ok());
  auto loaded = manager_->Load("edge");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->input_length(), TrainedSelector::kMaxInputLength);
  EXPECT_EQ((*loaded)->num_classes(), TrainedSelector::kMaxClasses);
}

// Seeded corruption of a valid fp32 and a valid int8 `.weights`: byte
// flips, truncation at every header boundary, and every count, rank and
// dimension set to sizes no file holds. Each load returns a selector or
// a Status that keeps the directory out; none may throw or crash (the
// sanitizer job runs this too).
TEST_F(SelectorManagerFailureTest, CorruptWeightsLoadOrFailTyped) {
  auto fp32 = manager_->Load("good");
  ASSERT_TRUE(fp32.ok()) << fp32.status();
  std::vector<std::vector<float>> calibration;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.25 + 0.75 * (i % 2)) * static_cast<double>(t));
    }
    calibration.push_back(std::move(w));
  }
  auto int8 = (*fp32)->QuantizeInt8(calibration);
  ASSERT_TRUE(int8.ok()) << int8.status();
  ASSERT_TRUE(manager_->Save(**int8, "good8").ok());

  Rng rng(2026);
  for (const std::string name : {"good", "good8"}) {
    const std::string path = dir_ + "/" + name + ".weights";
    const std::string valid = ReadFile(path);
    std::vector<HeaderField> fields;
    std::vector<size_t> boundaries;
    WalkWeights(valid, &fields, &boundaries);
    ASSERT_FALSE(HasFatalFailure());
    auto load = [&](const std::string& bytes, const std::string& context) {
      WriteFile(path, bytes);
      auto loaded = manager_->Load(name);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().message().find(dir_), std::string::npos)
            << name << " " << context << ": " << loaded.status();
      }
      return loaded.ok();
    };

    for (const size_t cut : boundaries) {
      if (cut == valid.size()) continue;
      EXPECT_FALSE(load(valid.substr(0, cut), "cut " + std::to_string(cut)));
    }
    for (const HeaderField& field : fields) {
      for (const uint64_t value :
           {uint64_t{0}, uint64_t{5}, uint64_t{1} << 31, uint64_t{1} << 63,
            ~uint64_t{0}}) {
        std::string bytes = valid;
        std::memcpy(bytes.data() + field.offset, &value, field.width);
        load(bytes, "field at " + std::to_string(field.offset) +
                              " = " + std::to_string(value));
      }
    }
    for (int trial = 0; trial < 300; ++trial) {
      std::string bytes = valid;
      const int64_t flips = rng.Int(1, 4);
      for (int64_t f = 0; f < flips; ++f) {
        bytes[rng.Index(bytes.size())] ^= static_cast<char>(rng.Int(1, 255));
      }
      load(bytes, "flip trial " + std::to_string(trial));
    }
    EXPECT_TRUE(load(valid, "restored"));
  }
}

TEST(LoadModuleFailureTest, MissingFileReturnsError) {
  Rng rng(1);
  nn::Linear layer(4, 2, rng);
  EXPECT_FALSE(
      nn::LoadModule(layer, "/tmp/kdsel_no_such_dir/no_such_file.bin").ok());
}

TEST(LoadModuleFailureTest, ShapeMismatchReturnsError) {
  const std::string dir = TempDir("kdsel_module_shape");
  const std::string path = dir + "/linear.bin";
  Rng rng(1);
  nn::Linear saved(4, 2, rng);
  ASSERT_TRUE(nn::SaveModule(saved, path).ok());

  // Same tensor count (weight + bias) but different shapes.
  nn::Linear wider(4, 3, rng);
  EXPECT_FALSE(nn::LoadModule(wider, path).ok());
  nn::Linear narrower(3, 2, rng);
  EXPECT_FALSE(nn::LoadModule(narrower, path).ok());

  // Matching architecture still loads.
  nn::Linear same(4, 2, rng);
  EXPECT_TRUE(nn::LoadModule(same, path).ok());
  fs::remove_all(dir);
}

TEST(LoadModuleFailureTest, TensorCountMismatchReturnsError) {
  const std::string dir = TempDir("kdsel_module_count");
  const std::string path = dir + "/linear.bin";
  Rng rng(1);
  nn::Linear saved(4, 2, rng);
  ASSERT_TRUE(nn::SaveModule(saved, path).ok());

  nn::Sequential two_layers;
  two_layers.Add(std::make_unique<nn::Linear>(4, 2, rng));
  two_layers.Add(std::make_unique<nn::Linear>(2, 2, rng));
  EXPECT_FALSE(nn::LoadModule(two_layers, path).ok());
  fs::remove_all(dir);
}

TEST(LoadModuleFailureTest, TruncatedFileReturnsError) {
  const std::string dir = TempDir("kdsel_module_trunc");
  const std::string path = dir + "/linear.bin";
  Rng rng(1);
  nn::Linear saved(4, 2, rng);
  ASSERT_TRUE(nn::SaveModule(saved, path).ok());

  const std::string payload = ReadFile(path);
  ASSERT_GT(payload.size(), 8u);
  WriteFile(path, payload.substr(0, payload.size() - 4));
  nn::Linear target(4, 2, rng);
  EXPECT_FALSE(nn::LoadModule(target, path).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace kdsel
