#include "net/shedder.h"

namespace kdsel::net {

Shedder::Shedder(ShedderOptions options)
    : options_(options),
      state_gauge_(
          obs::MetricsRegistry::Global().GetGauge("kdsel.net.shed_state")),
      window_p99_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "kdsel.net.shed_window_p99_us")),
      transitions_counter_(obs::MetricsRegistry::Global().GetCounter(
          "kdsel.net.shed_transitions")),
      shed_counter_(obs::MetricsRegistry::Global().GetCounter(
          "kdsel.net.shed_requests")) {}

KDSEL_HOT void Shedder::RecordLatency(double us) { window_.Record(us); }

KDSEL_HOT bool Shedder::Admit(int64_t now_us) {
  if (options_.slo_us <= 0.0) return true;
  if (now_us >= next_eval_us_.load(std::memory_order_relaxed)) {
    Evaluate(now_us);
  }
  if (shedding_.load(std::memory_order_relaxed)) {
    shed_count_.fetch_add(1, std::memory_order_relaxed);
    shed_counter_.Increment();
    return false;
  }
  return true;
}

void Shedder::Evaluate(int64_t now_us) {
  // One evaluator per interval; concurrent shards skip and use the
  // current state rather than queueing on the lock.
  std::unique_lock<std::mutex> lock(eval_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (now_us < next_eval_us_.load(std::memory_order_relaxed)) return;

  // Two snapshots of the same window; a RecordLatency() racing between
  // them skews the pair by at most one sample, which cannot matter at
  // min_samples granularity.
  const uint64_t samples = window_.SampleCount();
  const double p99 = window_.Percentile(0.99);
  const bool was_shedding = shedding_.load(std::memory_order_relaxed);
  bool now_shedding = was_shedding;
  if (!was_shedding) {
    if (samples >= options_.min_samples && p99 > options_.slo_us) {
      now_shedding = true;
    }
  } else {
    // While shedding, the window only sees the draining backlog. Recover
    // when the drain's p99 clears the exit threshold -- or when nothing
    // completed at all this window (backlog empty: no evidence left).
    if (samples == 0 || p99 < options_.exit_fraction * options_.slo_us) {
      now_shedding = false;
    }
  }
  if (now_shedding != was_shedding) {
    shedding_.store(now_shedding, std::memory_order_relaxed);
    transitions_.fetch_add(1, std::memory_order_relaxed);
    transitions_counter_.Increment();
  }
  window_p99_.store(p99, std::memory_order_relaxed);
  window_p99_gauge_.Set(p99);
  state_gauge_.Set(now_shedding ? 1.0 : 0.0);
  window_.Reset();
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  next_eval_us_.store(now_us + options_.eval_interval_us,
                      std::memory_order_relaxed);
}

}  // namespace kdsel::net
