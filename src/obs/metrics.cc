#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

namespace kdsel::obs {

namespace {

/// fetch_add for atomic<double> (no native RMW before C++20 on all
/// stdlibs; a CAS loop is portable and uncontended enough for stats).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

/// Formats a double as JSON (finite shortest-ish form; non-finite
/// values have no JSON spelling and collapse to 0).
void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "0";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

/// Metric names are restricted identifiers, but escape defensively so
/// the snapshot is valid JSON no matter what gets registered.
void AppendQuoted(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// `kdsel.<layer>.<name>` -> `kdsel_<layer>_<name>`: the Prometheus
/// exposition format allows only [a-zA-Z0-9_:] in metric names, and the
/// documented contract maps every other byte to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

Histogram::Histogram() {
  for (Bank& bank : banks_) {
    for (auto& b : bank.buckets) b.store(0, std::memory_order_relaxed);
  }
  end_epoch_[0].store(0);
  end_epoch_[1].store(kPhaseBit);
}

size_t Histogram::BucketIndex(double value) {
  if (value < 1.0) return 0;
  // 4 buckets per octave: index = floor(4 * log2(v)) + 1.
  const double idx = 4.0 * std::log2(value);
  const size_t bucket = static_cast<size_t>(idx) + 1;
  return bucket >= kBuckets ? kBuckets - 1 : bucket;
}

double Histogram::BucketLowerBound(size_t index) {
  if (index == 0) return 0.0;
  return std::exp2(static_cast<double>(index - 1) / 4.0);
}

void Histogram::Record(double value) {
  if (!(value >= 0.0)) value = 0.0;  // Also catches NaN.
  // Entering names the bank; leaving tells a draining reader that this
  // sample is complete in it. The two epoch RMWs order the bank updates
  // between them against the reader that folds the bank in.
  const size_t phase = start_epoch_.fetch_add(1) >> 63;
  Bank& bank = banks_[phase];
  bank.buckets[BucketIndex(value)].fetch_add(1);
  AtomicAdd(bank.sum, value);
  AtomicMin(bank.min, value);
  AtomicMax(bank.max, value);
  end_epoch_[phase].fetch_add(1);
}

void Histogram::Drain() const KDSEL_REQUIRES(read_mu_) {
  // Only readers flip, and they hold read_mu_, so the phase is stable.
  const size_t retired = start_epoch_.load() >> 63;
  const uint64_t next_start = retired == 0 ? kPhaseBit : 0;
  // The next phase's records finish against its start value; the
  // previous flip already waited out the records that last used it.
  end_epoch_[retired ^ 1].store(next_start);
  const uint64_t entered = start_epoch_.exchange(next_start);
  // Wait for the records that entered the retired phase to leave it.
  while (end_epoch_[retired].load() != entered) std::this_thread::yield();

  // The retired bank is quiescent until a later flip reactivates it;
  // that flip's exchange publishes the zeroing below to its records.
  Bank& bank = banks_[retired];
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t n = bank.buckets[i].load();
    if (n == 0) continue;
    bank.buckets[i].store(0);
    totals_.counts[i] += n;
    totals_.samples += n;
  }
  totals_.sum += bank.sum.exchange(0.0);
  totals_.min = std::min(
      totals_.min, bank.min.exchange(std::numeric_limits<double>::infinity()));
  totals_.max = std::max(totals_.max, bank.max.exchange(0.0));
}

double Histogram::PercentileFrom(const Totals& totals, double q) {
  if (totals.samples == 0) return 0.0;
  const uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(totals.samples)));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += totals.counts[i];
    if (seen >= target && totals.counts[i] > 0) {
      // Geometric midpoint of the bucket, clamped to observed range.
      const double lo = BucketLowerBound(i);
      const double hi = BucketLowerBound(i + 1);
      const double mid = std::sqrt(std::max(lo, 0.5) * hi);
      return std::min(std::max(mid, totals.min), totals.max);
    }
  }
  return totals.max;
}

Histogram::Summary Histogram::Summarize() const {
  std::lock_guard<std::mutex> lock(read_mu_);
  Drain();
  Summary s;
  s.samples = totals_.samples;
  s.count = totals_.samples;
  if (totals_.samples == 0) return s;
  s.min = totals_.min;
  s.max = totals_.max;
  s.mean = totals_.sum / static_cast<double>(totals_.samples);
  s.p50 = PercentileFrom(totals_, 0.50);
  s.p95 = PercentileFrom(totals_, 0.95);
  s.p99 = PercentileFrom(totals_, 0.99);
  s.p999 = PercentileFrom(totals_, 0.999);
  return s;
}

double Histogram::Percentile(double q) const {
  std::lock_guard<std::mutex> lock(read_mu_);
  Drain();
  return PercentileFrom(totals_, q);
}

uint64_t Histogram::SampleCount() const {
  std::lock_guard<std::mutex> lock(read_mu_);
  Drain();
  return totals_.samples;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(read_mu_);
  Drain();
  totals_ = Totals{};
}

MetricsRegistry& MetricsRegistry::Global() {
  // Immortal by design (see header): worker threads and thread-local
  // cache destructors may still record during static teardown, so the
  // registry must never be destroyed. The one object is reachable
  // through this static pointer, so LeakSanitizer does not flag it.
  static MetricsRegistry* registry =
      new MetricsRegistry();  // kdsel-lint: allow(naked-new)
  return *registry;
}

template <typename T>
T& MetricsRegistry::GetOrCreateLocked(
    std::map<std::string, std::unique_ptr<T>>& slot, const std::string& name)
    KDSEL_REQUIRES(mu_) {
  auto it = slot.find(name);
  if (it == slot.end()) {
    it = slot.emplace(name, std::make_unique<T>()).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreateLocked(counters_, name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreateLocked(gauges_, name);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreateLocked(histograms_, name);
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    out += ':';
    out += std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    out += ':';
    AppendNumber(out, gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    const Histogram::Summary s = histogram->Summarize();
    out += ":{\"count\":" + std::to_string(s.count);
    out += ",\"samples\":" + std::to_string(s.samples);
    out += ",\"min\":";
    AppendNumber(out, s.min);
    out += ",\"max\":";
    AppendNumber(out, s.max);
    out += ",\"mean\":";
    AppendNumber(out, s.mean);
    out += ",\"p50\":";
    AppendNumber(out, s.p50);
    out += ",\"p95\":";
    AppendNumber(out, s.p95);
    out += ",\"p99\":";
    AppendNumber(out, s.p99);
    out += ",\"p999\":";
    AppendNumber(out, s.p999);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  auto append_number = [&](double value) {
    AppendNumber(out, value);
    out += '\n';
  };
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    append_number(gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = PrometheusName(name);
    const Histogram::Summary s = histogram->Summarize();
    out += "# TYPE " + prom + " summary\n";
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}, {"0.999", s.p999}};
    for (const auto& [label, value] : quantiles) {
      out += prom + "{quantile=\"" + label + "\"} ";
      append_number(value);
    }
    out += prom + "_sum ";
    append_number(s.mean * static_cast<double>(s.samples));
    out += prom + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

void MetricsRegistry::ResetValuesForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace kdsel::obs
