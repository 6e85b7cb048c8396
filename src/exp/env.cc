#include "exp/env.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/stringutil.h"

namespace kdsel::exp {

namespace fs = std::filesystem;

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig config;
  const char* scale = std::getenv("KDSEL_BENCH_SCALE");
  if (scale && std::string(scale) == "paper") {
    config.series_per_family = 12;
    config.min_length = 800;
    config.max_length = 1600;
    config.epochs = 20;
  }
  const char* cache = std::getenv("KDSEL_CACHE_DIR");
  if (cache && *cache) config.cache_dir = cache;
  return config;
}

std::string ExperimentConfig::CacheKey() const {
  return StrFormat("perf_s%llu_n%zu_l%zu-%zu",
                   static_cast<unsigned long long>(seed), series_per_family,
                   min_length, max_length);
}

ts::WindowOptions BenchmarkEnvironment::window_options() const {
  ts::WindowOptions wo;
  wo.length = config_.window_length;
  wo.stride = config_.window_length;
  wo.z_normalize = true;
  return wo;
}

StatusOr<std::unique_ptr<BenchmarkEnvironment>> BenchmarkEnvironment::Create(
    const ExperimentConfig& config) {
  // Private constructor (factory-only type): make_unique cannot reach it.
  // kdsel-lint: allow(naked-new)
  std::unique_ptr<BenchmarkEnvironment> env(new BenchmarkEnvironment());
  KDSEL_RETURN_NOT_OK(env->Build(config));
  return env;
}

Status BenchmarkEnvironment::Build(const ExperimentConfig& config) {
  config_ = config;
  models_ = tsad::BuildDefaultModelSet(config.seed);

  datagen::BenchmarkOptions bo;
  bo.series_per_family = config.series_per_family;
  bo.min_length = config.min_length;
  bo.max_length = config.max_length;
  bo.seed = config.seed;
  KDSEL_ASSIGN_OR_RETURN(auto datasets, datagen::GenerateBenchmark(bo));

  std::map<std::string, std::vector<float>> perf_by_name;
  KDSEL_ASSIGN_OR_RETURN(bool cached, LoadCache(perf_by_name));
  if (!cached) {
    KDSEL_RETURN_NOT_OK(ComputePerformance(datasets, perf_by_name));
    KDSEL_RETURN_NOT_OK(StoreCache(perf_by_name));
  }

  // Split each dataset and pool the training halves (the benchmark's
  // recommended protocol: train on a combination of all datasets).
  for (const auto& ds : datasets) {
    auto split =
        ts::SplitSeries(ds, config.train_fraction, config.seed ^ 0x5eed);
    for (const auto& s : split.train) {
      auto it = perf_by_name.find(s.name());
      if (it == perf_by_name.end()) {
        return Status::Internal("missing performance row for " + s.name());
      }
      train_series_.push_back(s);
      train_performance_.push_back(it->second);
    }
    if (ds.name == "Dodgers" || ds.name == "Occupancy") continue;
    test_dataset_names_.push_back(ds.name);
    auto& test_vec = test_series_[ds.name];
    auto& perf_vec = test_performance_[ds.name];
    for (const auto& s : split.test) {
      auto it = perf_by_name.find(s.name());
      if (it == perf_by_name.end()) {
        return Status::Internal("missing performance row for " + s.name());
      }
      test_vec.push_back(s);
      perf_vec.push_back(it->second);
    }
  }
  return Status::OK();
}

Status BenchmarkEnvironment::ComputePerformance(
    const std::vector<ts::Dataset>& datasets,
    std::map<std::string, std::vector<float>>& by_name) {
  // Flatten every series and fan the whole (series, detector) grid
  // across the shared thread pool in one matrix build.
  std::vector<const ts::TimeSeries*> series;
  for (const auto& ds : datasets) {
    for (const auto& s : ds.series) series.push_back(&s);
  }
  std::fprintf(stderr,
               "[env] detector performance matrix: %zu series x %zu "
               "detectors on %zu threads...\n",
               series.size(), models_.size(), ParallelThreads());
  KDSEL_ASSIGN_OR_RETURN(auto matrix,
                         core::EvaluatePerformanceMatrix(
                             models_, series, metrics::Metric::kAucPr,
                             &detector_failures_));
  for (size_t i = 0; i < series.size(); ++i) {
    by_name[series[i]->name()] = std::move(matrix[i]);
  }
  size_t failures = 0;
  for (size_t f : detector_failures_) failures += f;
  if (failures > 0) {
    std::fprintf(stderr,
                 "[env] %zu (series, detector) pairs hit InvalidArgument and "
                 "scored worst-case 0.0\n",
                 failures);
  }
  return Status::OK();
}

StatusOr<bool> BenchmarkEnvironment::LoadCache(
    std::map<std::string, std::vector<float>>& by_name) {
  const std::string path =
      (fs::path(config_.cache_dir) / (config_.CacheKey() + ".csv")).string();
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;
  KDSEL_ASSIGN_OR_RETURN(auto table, ReadCsv(path, /*has_header=*/true));
  const size_t m = models_.size();
  for (const auto& row : table.rows) {
    if (row.size() != m + 1) return Status::IoError("bad cache row width");
    std::vector<float> perf(m);
    for (size_t j = 0; j < m; ++j) {
      auto value = ParseFloat(row[j + 1]);
      if (!value.ok()) {
        return Status::IoError("bad cache cell: " + value.status().message());
      }
      perf[j] = *value;
    }
    by_name[row[0]] = std::move(perf);
  }
  return true;
}

Status BenchmarkEnvironment::StoreCache(
    const std::map<std::string, std::vector<float>>& by_name) {
  std::error_code ec;
  fs::create_directories(config_.cache_dir, ec);
  if (ec) {
    return Status::IoError("cannot create cache dir: " + config_.cache_dir);
  }
  CsvTable table;
  table.header.push_back("series");
  for (const auto& model : models_) table.header.push_back(model->name());
  for (const auto& [name, perf] : by_name) {
    std::vector<std::string> row{name};
    for (float p : perf) row.push_back(StrFormat("%.6f", p));
    table.rows.push_back(std::move(row));
  }
  const std::string path =
      (fs::path(config_.cache_dir) / (config_.CacheKey() + ".csv")).string();
  return WriteCsv(path, table);
}

const std::vector<ts::TimeSeries>& BenchmarkEnvironment::test_series(
    const std::string& dataset) const {
  auto it = test_series_.find(dataset);
  KDSEL_CHECK(it != test_series_.end());
  return it->second;
}

const std::vector<std::vector<float>>& BenchmarkEnvironment::test_performance(
    const std::string& dataset) const {
  auto it = test_performance_.find(dataset);
  KDSEL_CHECK(it != test_performance_.end());
  return it->second;
}

StatusOr<core::SelectorTrainingData> BenchmarkEnvironment::BuildTrainingData()
    const {
  return core::BuildSelectorTrainingData(train_series_, train_performance_,
                                         window_options());
}

StatusOr<std::map<std::string, double>> BenchmarkEnvironment::EvaluateSelector(
    const selectors::Selector& selector) const {
  std::map<std::string, double> result;
  double sum = 0.0;
  for (const std::string& name : test_dataset_names_) {
    const auto& series = test_series(name);
    const auto& perf = test_performance(name);
    double dataset_sum = 0.0;
    for (size_t i = 0; i < series.size(); ++i) {
      KDSEL_ASSIGN_OR_RETURN(
          auto sel, core::SelectSeriesModel(selector, series[i],
                                            window_options(), num_models()));
      dataset_sum += perf[i][static_cast<size_t>(sel.model)];
    }
    const double mean =
        series.empty() ? 0.0 : dataset_sum / static_cast<double>(series.size());
    result[name] = mean;
    sum += mean;
  }
  result["Average"] =
      test_dataset_names_.empty()
          ? 0.0
          : sum / static_cast<double>(test_dataset_names_.size());
  return result;
}

StatusOr<std::map<std::string, double>>
BenchmarkEnvironment::EvaluateFixedModel(int model) const {
  std::map<std::string, double> result;
  double sum = 0.0;
  for (const std::string& name : test_dataset_names_) {
    const auto& perf = test_performance(name);
    double dataset_sum = 0.0;
    for (const auto& row : perf) {
      if (model < 0) {
        dataset_sum += *std::max_element(row.begin(), row.end());
      } else {
        dataset_sum += row[static_cast<size_t>(model)];
      }
    }
    const double mean =
        perf.empty() ? 0.0 : dataset_sum / static_cast<double>(perf.size());
    result[name] = mean;
    sum += mean;
  }
  result["Average"] =
      test_dataset_names_.empty()
          ? 0.0
          : sum / static_cast<double>(test_dataset_names_.size());
  return result;
}

}  // namespace kdsel::exp
