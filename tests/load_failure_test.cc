#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "nn/layers.h"
#include "nn/serialize.h"

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
