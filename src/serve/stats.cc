#include "serve/stats.h"

namespace kdsel::serve {

Json LatencyHistogramJson(const LatencyHistogram& histogram) {
  const obs::Histogram::Summary s = histogram.Summarize();
  Json out = Json::Object();
  out.Set("count", Json::Number(static_cast<double>(s.count)));
  out.Set("min_us", Json::Number(s.min));
  out.Set("max_us", Json::Number(s.max));
  out.Set("mean_us", Json::Number(s.mean));
  out.Set("p50_us", Json::Number(s.p50));
  out.Set("p95_us", Json::Number(s.p95));
  out.Set("p99_us", Json::Number(s.p99));
  out.Set("p999_us", Json::Number(s.p999));
  return out;
}

Json EndpointStats::ToJson() const {
  Json out = Json::Object();
  out.Set("completed", Json::Number(static_cast<double>(completed.load())));
  out.Set("failed", Json::Number(static_cast<double>(failed.load())));
  out.Set("queue_wait", LatencyHistogramJson(queue_wait));
  out.Set("selection", LatencyHistogramJson(selection));
  out.Set("detection", LatencyHistogramJson(detection));
  out.Set("total", LatencyHistogramJson(total));
  return out;
}

void ServerStats::RecordBatch(size_t size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(size, std::memory_order_relaxed);
  uint64_t current = max_batch_seen_.load(std::memory_order_relaxed);
  while (size > current && !max_batch_seen_.compare_exchange_weak(
                               current, size, std::memory_order_relaxed)) {
  }
}

uint64_t ServerStats::completed() const {
  uint64_t sum = 0;
  for (const auto& e : endpoints_) sum += e.completed.load();
  return sum;
}

uint64_t ServerStats::failed() const {
  uint64_t sum = 0;
  for (const auto& e : endpoints_) sum += e.failed.load();
  return sum;
}

double ServerStats::MeanBatchSize() const {
  const uint64_t batches = batches_.load();
  if (batches == 0) return 0.0;
  return static_cast<double>(batched_requests_.load()) /
         static_cast<double>(batches);
}

double ServerStats::ShedRate() const {
  const uint64_t shed = shed_.load();
  const uint64_t arrived = shed + submitted_.load();
  if (arrived == 0) return 0.0;
  return static_cast<double>(shed) / static_cast<double>(arrived);
}

Json ServerStats::ToJson() const {
  Json out = Json::Object();
  out.Set("submitted", Json::Number(static_cast<double>(submitted_.load())));
  out.Set("rejected", Json::Number(static_cast<double>(rejected_.load())));
  out.Set("shed", Json::Number(static_cast<double>(shed_.load())));
  out.Set("shed_rate", Json::Number(ShedRate()));
  out.Set("completed", Json::Number(static_cast<double>(completed())));
  out.Set("failed", Json::Number(static_cast<double>(failed())));
  out.Set("reloads", Json::Number(static_cast<double>(reloads_.load())));
  Json batching = Json::Object();
  batching.Set("batches", Json::Number(static_cast<double>(batches_.load())));
  batching.Set("batched_requests",
               Json::Number(static_cast<double>(batched_requests_.load())));
  batching.Set("mean_batch_size", Json::Number(MeanBatchSize()));
  batching.Set("max_batch_size",
               Json::Number(static_cast<double>(max_batch_seen_.load())));
  batching.Set("rows_total", Json::Number(static_cast<double>(rows_total())));
  out.Set("batching", batching);
  Json variants = Json::Object();
  variants.Set("fp32",
               Json::Number(static_cast<double>(fp32_requests_.load())));
  variants.Set("int8",
               Json::Number(static_cast<double>(int8_requests_.load())));
  out.Set("variants", variants);
  Json endpoints = Json::Object();
  endpoints.Set("select", endpoint(Endpoint::kSelect).ToJson());
  endpoints.Set("detect", endpoint(Endpoint::kDetect).ToJson());
  out.Set("endpoints", endpoints);
  return out;
}

}  // namespace kdsel::serve
