// Workload `stream`: a sensor fleet feeding StreamScorer::ProcessBatch.
//
// A few thousand series arrive as interleaved bursts: each ProcessBatch
// call carries one 64-point burst from every series of one group, and
// the groups take turns. Periodic re-selection runs every 8192 points
// per series; warm-up staggers the series so that each batch carries a
// similar share of re-scores. A quarter of the series switch regime
// halfway through the timed part, which triggers drift re-selection.
// Bursts are generated between the timed calls.
//
//   latency_ms        median ProcessBatch wall time (event emission),
//   throughput_per_s  points ingested per second inside ProcessBatch.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/families.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "stream/scorer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kdsel::stream::PointEvent;
using kdsel::stream::StreamEvent;

/// Points ingested per second on the reference host (4 vCPUs, 1 pool
/// thread); --seconds buys this many points. A constant, so the work
/// depends only on the arguments and the event counts are exact for a
/// seed.
constexpr double kPointsPerSecond = 8.0e6;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Sizes {
  size_t series = 2048;
  size_t group = 256;  ///< Series per batch.
  size_t burst = 64;   ///< Points per series per batch.
  size_t interval = 8192;  ///< Periodic re-selection cadence.
  size_t period = 8192;    ///< Length of the generated base signals.
  size_t batches = 0;
};

/// Deterministic point source for every series of the fleet.
class Fleet {
 public:
  Fleet(const Sizes& z, uint64_t seed) : z_(z) {
    const auto& families = kdsel::datagen::AllFamilies();
    const size_t nf = families.size();
    for (size_t f = 0; f < nf; ++f) {
      kdsel::Rng rng(Mix(seed, 1000 + f));
      std::vector<float> a = Detrended(
          kdsel::datagen::GenerateBaseSignal(families[f], z.period, rng));
      std::vector<float> b = Detrended(kdsel::datagen::GenerateBaseSignal(
          families[(f + nf / 2) % nf], z.period, rng));
      const double sd = std::max(Std(a), Std(b));
      for (float& v : b) v += static_cast<float>(4.0 * sd + 1.0);
      regime_a_.push_back(std::move(a));
      regime_b_.push_back(std::move(b));
      noise_scale_.push_back(static_cast<float>(0.05 * sd));
    }
    kdsel::Rng noise_rng(Mix(seed, 7));
    noise_.resize(size_t{1} << 16);
    for (float& v : noise_) v = static_cast<float>(noise_rng.Normal());
    for (size_t s = 0; s < z.series; ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "fleet-%05zu", s);
      names_.push_back(name);
      phase_.push_back(Mix(seed, 2 * s) % (2 * z.period));
      noise_off_.push_back(Mix(seed, 2 * s + 1));
    }
    pos_.assign(z.series, 0);
    switch_at_.assign(z.series, UINT64_MAX);
  }

  /// Number of points ingested so far for series `s`.
  uint64_t position(size_t s) const { return pos_[s]; }
  /// Series `s` switches regime once it reaches point `at`.
  void SwitchAt(size_t s, uint64_t at) { switch_at_[s] = at; }

  /// Appends the next `n` points of series `s` to `out`.
  void Burst(size_t s, size_t n, std::vector<PointEvent>& out) {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(PointEvent{names_[s], Value(s, pos_[s] + i)});
    }
    pos_[s] += n;
  }

  /// Batch `j` of the timed part: one burst from every series of group
  /// j mod (series / group).
  void Batch(size_t j, std::vector<PointEvent>& out) {
    out.clear();
    const size_t g = j % (z_.series / z_.group);
    for (size_t s = g * z_.group; s < (g + 1) * z_.group; ++s) {
      Burst(s, z_.burst, out);
    }
  }

 private:
  static std::vector<float> Detrended(std::vector<float> v) {
    // Least-squares line removal, so the ping-pong replay below stays
    // stationary and only the deliberate regime switches look like drift.
    const double n = static_cast<double>(v.size());
    double st = 0.0, sv = 0.0, stt = 0.0, stv = 0.0;
    for (size_t t = 0; t < v.size(); ++t) {
      const double x = static_cast<double>(t);
      st += x;
      sv += v[t];
      stt += x * x;
      stv += x * v[t];
    }
    const double denom = n * stt - st * st;
    const double slope = denom != 0.0 ? (n * stv - st * sv) / denom : 0.0;
    const double icpt = (sv - slope * st) / n;
    for (size_t t = 0; t < v.size(); ++t) {
      v[t] -= static_cast<float>(icpt + slope * static_cast<double>(t));
    }
    return v;
  }

  static double Std(const std::vector<float>& v) {
    double mean = 0.0;
    for (float x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double var = 0.0;
    for (float x : v) var += (x - mean) * (x - mean);
    return std::sqrt(var / static_cast<double>(v.size()));
  }

  float Value(size_t s, uint64_t pos) const {
    const size_t f = s % regime_a_.size();
    const auto& table = pos >= switch_at_[s] ? regime_b_[f] : regime_a_[f];
    // Replay the base signal forwards then backwards: continuous at the
    // turning points, so the replay adds no artificial jumps.
    uint64_t k = (phase_[s] + pos) % (2 * z_.period);
    if (k >= z_.period) k = 2 * z_.period - 1 - k;
    const size_t noise = (noise_off_[s] + pos) & (noise_.size() - 1);
    return table[k] + noise_scale_[f] * noise_[noise];
  }

  Sizes z_;
  std::vector<std::vector<float>> regime_a_;
  std::vector<std::vector<float>> regime_b_;
  std::vector<float> noise_scale_;
  std::vector<float> noise_;
  std::vector<std::string> names_;
  std::vector<uint64_t> phase_;
  std::vector<uint64_t> noise_off_;
  std::vector<uint64_t> pos_;
  std::vector<uint64_t> switch_at_;
};

/// Everything one set-up builds; the registry outlives the scorer.
struct StreamSetup {
  std::unique_ptr<kdsel::serve::SelectorRegistry> registry;
  std::unique_ptr<kdsel::stream::StreamScorer> scorer;
  std::unique_ptr<Fleet> fleet;
};

StreamSetup SetUp(const RunOptions& opts, const Sizes& z) {
  StreamSetup st;
  st.registry = std::make_unique<kdsel::serve::SelectorRegistry>(
      kdsel::core::SelectorManager(opts.out_dir + "/selectors"));
  auto selector = TrainFleetSelector(opts.seed, opts.tiny);
  kdsel::Status reg = st.registry->Register("fleet", std::move(selector));
  if (!reg.ok()) Die("register: " + reg.ToString());

  kdsel::stream::StreamOptions so;
  so.selector = "fleet";
  so.rescore_interval = z.interval;
  st.scorer = std::make_unique<kdsel::stream::StreamScorer>(st.registry.get(),
                                                            std::move(so));
  st.fleet = std::make_unique<Fleet>(z, opts.seed);

  // Warm-up: the groups come online one batch each and reach their
  // initial selection, then series k of each group is fed k/group of a
  // re-score interval more, so the periodic re-scores of a group spread
  // evenly over its batches.
  std::vector<PointEvent> batch;
  auto flush = [&] {
    auto events = st.scorer->ProcessBatch(batch);
    if (!events.ok()) Die("warm-up: " + events.status().ToString());
    batch.clear();
  };
  for (size_t s = 0; s < z.series; ++s) {
    st.fleet->Burst(s, kFleetWindow, batch);
    if ((s + 1) % z.group == 0) flush();
  }
  std::vector<size_t> extra(z.series);
  for (size_t s = 0; s < z.series; ++s) {
    extra[s] = (s % z.group) * z.interval / z.group;
  }
  const size_t chunk = 8 * z.burst;
  for (bool more = true; more;) {
    more = false;
    for (size_t s = 0; s < z.series; ++s) {
      const size_t n = std::min(chunk, extra[s]);
      if (n == 0) continue;
      st.fleet->Burst(s, n, batch);
      extra[s] -= n;
      more = true;
      if (batch.size() >= 32768) flush();
    }
  }
  if (!batch.empty()) flush();

  // A quarter of the fleet switches regime halfway through the timed part.
  const uint64_t per_series =
      z.batches / (z.series / z.group) * static_cast<uint64_t>(z.burst);
  for (size_t s = 3; s < z.series; s += 4) {
    st.fleet->SwitchAt(s, st.fleet->position(s) + per_series / 2);
  }
  return st;
}

/// Batches per block of the points/s median (32 cycles of the groups).
constexpr size_t kRateBlock = 256;

struct Pass {
  std::vector<double> batch_s;
  std::vector<double> batch_points;
  uint64_t offered = 0;
  uint64_t ingested = 0;
  uint64_t failed_points = 0;
  uint64_t batch_errors = 0;
  uint64_t selections = 0;
  uint64_t drifts = 0;
  uint64_t bad_models = 0;
  double points_per_s = 0.0;        ///< Median over blocks of batches.
  double total_points_per_s = 0.0;  ///< All points / all ProcessBatch time.
  double batch_p50_ms = 0.0;
  double steal_pct = 0.0;
};

Pass RunPass(StreamSetup& st, const Sizes& z, Tracer& tracer) {
  Pass pass;
  std::vector<PointEvent> batch;
  batch.reserve(z.group * z.burst);
  const uint64_t ingested0 = st.scorer->points_ingested();
  double busy = 0.0;
  const CpuTimes cpu0 = ReadCpuTimes();
  for (size_t j = 0; j < z.batches; ++j) {
    st.fleet->Batch(j, batch);
    pass.offered += batch.size();
    const int64_t span = tracer.Begin("stream.ProcessBatch",
                                      "batch-" + std::to_string(j));
    const double t0 = NowS();
    auto events = st.scorer->ProcessBatch(batch);
    const double dt = NowS() - t0;
    tracer.End(span);
    busy += dt;
    pass.batch_s.push_back(dt);
    pass.batch_points.push_back(events.ok() ? static_cast<double>(batch.size())
                                            : 0.0);
    if (!events.ok()) {
      ++pass.batch_errors;
      pass.failed_points += batch.size();
      continue;
    }
    for (const StreamEvent& e : *events) {
      if (e.kind == StreamEvent::Kind::kDrift) {
        ++pass.drifts;
      } else {
        ++pass.selections;
        if (e.model < 0 || e.model >= static_cast<int>(kFleetClasses)) {
          ++pass.bad_models;
        }
      }
    }
  }
  pass.steal_pct = StealPct(cpu0, ReadCpuTimes());
  pass.ingested = st.scorer->points_ingested() - ingested0;
  pass.total_points_per_s = static_cast<double>(pass.ingested) / busy;
  pass.points_per_s =
      MedianBlockRate(pass.batch_points, pass.batch_s, kRateBlock);
  pass.batch_p50_ms = 1e3 * Median(pass.batch_s);
  return pass;
}

void CheckPass(const Pass& pass, Outcome& out) {
  if (pass.offered - pass.failed_points != pass.ingested) {
    out.Fail("stream ingested " + std::to_string(pass.ingested) + " of " +
             std::to_string(pass.offered - pass.failed_points) +
             " accepted points");
  }
  if (pass.bad_models > 0) out.Fail("selection event with an invalid model id");
  if (pass.selections == 0) out.Fail("no selection events");
}

}  // namespace

Outcome RunStream(const RunOptions& opts) {
  Outcome out;
  Tracer tracer(opts.trace);
  Sizes z;
  if (opts.tiny) {
    z.series = 64;
    z.group = 32;
    z.burst = 16;
    z.interval = 512;
    z.period = 1024;
  }
  const size_t cycle = z.series / z.group;
  const double points = opts.seconds * (opts.tiny ? 2.0e5 : kPointsPerSecond);
  const size_t per_batch = z.group * z.burst;
  z.batches = static_cast<size_t>(std::ceil(points / static_cast<double>(
                                                         per_batch * cycle))) *
              cycle;

  // Set up kSetups times; the median is the set-up time, the last set-up
  // is the one measured.
  std::vector<double> setup_s;
  StreamSetup st;
  double t0 = opts.process_start_s;
  for (int k = 0; k < kSetups; ++k) {
    st = StreamSetup{};
    st = SetUp(opts, z);
    const double now = NowS();
    setup_s.push_back(now - t0);
    t0 = now;
  }

  Tracer untraced(false);
  const Pass pass = RunPass(st, z, untraced);
  const double rss_mb = PeakRssMb();  // Before the traced set-up.
  CheckPass(pass, out);
  out.attempted += pass.offered;
  out.failed += pass.failed_points;
  out.E2e("setup_s", Median(setup_s), "s");
  out.E2e("latency_ms", pass.batch_p50_ms, "ms");
  out.E2e("throughput_per_s", pass.points_per_s, "1/s");
  out.Diag("timed_steal_pct", pass.steal_pct);
  out.Diag("total_points_per_s", pass.total_points_per_s);
  out.Diag("batches", static_cast<double>(z.batches));
  out.Diag("series", static_cast<double>(z.series));
  out.Diag("selection_events", static_cast<double>(pass.selections));
  out.Diag("drift_events", static_cast<double>(pass.drifts));
  out.Diag("batch_errors", static_cast<double>(pass.batch_errors));
  out.Diag("batch_p99_ms", 1e3 * Quantile(pass.batch_s, 0.99));
  out.Diag("batch_samples", static_cast<double>(pass.batch_s.size()));

  if (opts.trace) {
    const LayerCounters counters;
    auto& reg = kdsel::obs::MetricsRegistry::Global();
    auto& rescore_us = reg.GetHistogram("kdsel.stream.rescore_us");
    rescore_us.Reset();
    const uint64_t rescores0 = reg.GetCounter("kdsel.stream.rescores").Value();
    const uint64_t recomputes0 =
        reg.GetCounter("kdsel.stream.recomputes").Value();
    Pass traced;
    {
      StreamSetup traced_setup = SetUp(opts, z);
      kdsel::obs::StartTracing();
      traced = RunPass(traced_setup, z, tracer);
      kdsel::obs::StopTracing();
    }
    CheckPass(traced, out);
    if (traced.selections != pass.selections) {
      out.Fail("selection event counts differ between the traced and "
               "untraced runs");
    }
    if (traced.drifts != pass.drifts) {
      out.Fail("drift event counts differ between the traced and untraced "
               "runs");
    }
    // The stream layer runs only in this workload, so its breakdown goes
    // to the diagnostics line of the traced run.
    const auto summary = rescore_us.Summarize();
    double busy = 0.0;
    for (double s : traced.batch_s) busy += s;
    const double rescore_total_s =
        summary.mean * static_cast<double>(summary.count) * 1e-6;
    out.Diag("stream.ingest_ns_per_point",
             1e9 * (busy - rescore_total_s) /
                 static_cast<double>(traced.ingested));
    out.Diag("stream.rescores",
             static_cast<double>(
                 reg.GetCounter("kdsel.stream.rescores").Value() - rescores0));
    out.Diag("stream.rescore_ms", rescore_us.Percentile(0.5) / 1e3);
    out.Diag("stream.recomputes",
             static_cast<double>(
                 reg.GetCounter("kdsel.stream.recomputes").Value() -
                 recomputes0));
    out.Diag("stream.batch_p99_ms", 1e3 * Quantile(traced.batch_s, 0.99));
    out.Layer("host.steal_pct", traced.steal_pct, "%");
    out.Layer("obs.trace_overhead_pct.latency_ms",
              100.0 * (traced.batch_p50_ms - pass.batch_p50_ms) /
                  pass.batch_p50_ms,
              "%");
    out.Layer("obs.trace_overhead_pct.throughput_per_s",
              100.0 * (pass.points_per_s - traced.points_per_s) /
                  pass.points_per_s,
              "%");
    ProbeFleet(opts, tracer, out);
    counters.Report(out);
    const std::string path = opts.out_dir + "/trace-stream-" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.Write(path)) out.Fail("cannot write " + path);
    out.Diag("trace_file", path);
  }
  out.E2e("rss_mb", rss_mb, "MB");
  return out;
}

}  // namespace perfbench
