// The ConvNet selector shared by the serve and stream workloads, and the
// training-side per-layer numbers every workload reports.

#include <cstdio>

#include "core/trainer.h"
#include "datagen/benchmark.h"
#include "ts/window.h"
#include "workloads.h"

namespace perfbench {

kdsel::core::SelectorTrainingData FleetTrainingData(uint64_t seed, bool tiny) {
  kdsel::datagen::BenchmarkOptions bo;
  bo.series_per_family = tiny ? 1 : 3;
  bo.min_length = 512;
  bo.max_length = 512;
  bo.seed = Mix(seed, 0xf1ee7);
  auto datasets = kdsel::datagen::GenerateBenchmark(bo);
  if (!datasets.ok()) Die("fleet datagen: " + datasets.status().ToString());

  kdsel::ts::WindowOptions wo;
  wo.length = kFleetWindow;
  wo.stride = kFleetWindow;
  wo.z_normalize = true;
  kdsel::core::SelectorTrainingData data;
  data.num_classes = kFleetClasses;
  for (size_t f = 0; f < datasets->size(); ++f) {
    for (const auto& series : (*datasets)[f].series) {
      auto windows = kdsel::ts::ExtractWindows(series, 0, wo);
      if (!windows.ok()) Die("fleet windows: " + windows.status().ToString());
      for (auto& w : *windows) {
        data.windows.push_back(std::move(w.values));
        data.labels.push_back(static_cast<int>(f % kFleetClasses));
      }
    }
  }
  return data;
}

std::unique_ptr<kdsel::core::TrainedSelector> TrainFleetSelector(
    uint64_t seed, bool tiny, Tracer* tracer, uint64_t* visits) {
  const kdsel::core::SelectorTrainingData data = FleetTrainingData(seed, tiny);
  kdsel::core::TrainerOptions o;
  o.backbone = "ConvNet";
  o.epochs = tiny ? 1 : 4;
  o.batch_size = 64;
  o.seed = seed;
  uint64_t epoch_start = 0;
  if (tracer != nullptr && tracer->enabled()) {
    o.on_epoch_end = EpochSpans(*tracer, "fleet", &epoch_start);
  }
  kdsel::core::TrainStats stats;
  epoch_start = NowNsec();
  auto selector = kdsel::core::TrainSelector(data, o, &stats);
  if (!selector.ok()) Die("fleet train: " + selector.status().ToString());
  if (visits != nullptr) *visits = stats.samples_visited;
  return std::move(selector).value();
}

std::function<void(size_t)> EpochSpans(Tracer& tracer, const std::string& job,
                                       uint64_t* epoch_start) {
  return [&tracer, job, epoch_start](size_t epoch) {
    const uint64_t now = NowNsec();
    tracer.Add("core.epoch", *epoch_start, now,
               job + "/epoch-" + std::to_string(epoch));
    *epoch_start = now;
  };
}

void ReportTraining(const Tracer& tracer, uint64_t visits, Outcome& out) {
  const std::vector<double> epochs_s = tracer.Durations("core.epoch");
  if (epochs_s.empty()) out.Fail("the traced training recorded no epoch");
  out.Layer("core.epoch_ms", 1e3 * Median(epochs_s), "ms");
  out.Layer("core.epochs", static_cast<double>(epochs_s.size()), "count");
  out.Layer("core.visits", static_cast<double>(visits), "count");
}

}  // namespace perfbench
