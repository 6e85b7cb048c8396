#ifndef KDSEL_OBS_FLIGHT_RECORDER_H_
#define KDSEL_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.h"

namespace kdsel::obs {

/// One request as remembered by the flight recorder: trace id, the
/// per-stage latency decomposition and the admission verdict. Fixed-size
/// POD storage (the trace id is an inline char array, not a string) so
/// recording never allocates.
struct FlightRecord {
  static constexpr size_t kTraceBytes = 24;  ///< Incl. NUL; 23 id chars.

  enum class Verdict : uint8_t {
    kOk = 0,        ///< Served; stage timings are populated.
    kError = 1,     ///< Refused with a structured error reply.
    kShed = 2,      ///< Refused by SLO admission control / queue full.
    kOverflow = 3,  ///< Line exceeded the length cap.
  };

  char trace[kTraceBytes] = {};  ///< NUL-terminated, possibly truncated.
  /// Ingress -> this line parsed, including the lines parsed ahead of it
  /// in the same read.
  double parse_us = 0.0;
  /// Parsed -> submit (admission and the rest of the read's lines), a
  /// residual so the five stages sum to total_us by construction.
  double queue_us = 0.0;
  double batch_wait_us = 0.0;    ///< Submit -> a worker took the request.
  double compute_us = 0.0;       ///< Worker took it -> response ready.
  double write_us = 0.0;         ///< Response ready -> reply flushed.
  double total_us = 0.0;         ///< Ingress -> reply flushed.
  Verdict verdict = Verdict::kOk;
  bool int8_variant = false;  ///< Served by the int8 selector sibling.
};

const char* FlightVerdictName(FlightRecord::Verdict verdict);

/// Always-on ring of recent request records plus a retained slowest-N
/// set, so a tail-latency outlier observed from outside (bench p999, a
/// client timeout) can be explained after the fact without having had
/// tracing enabled in advance.
///
/// Record() is allocation-free in steady state (both pools are sized at
/// construction) and takes one short critical section -- a struct copy
/// plus, for candidates beating the current slowest-N floor, a scan of
/// the N-element pool. Safe to call from shard and worker threads.
///
/// Retention: the ring keeps the most recent `recent_capacity` records
/// (the tail sample); the slowest pool keeps the `slowest_capacity`
/// largest `total_us` seen since construction, so the worst request of
/// a run survives any amount of later traffic.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t recent_capacity = 256,
                          size_t slowest_capacity = 16);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const FlightRecord& record);

  /// Total records ever seen (not capped by the ring).
  uint64_t recorded() const;

  /// Largest total_us retained in the slowest pool (0 when empty).
  double SlowestTotalUs() const;

  /// Point-in-time dump as JSON text:
  ///   {"recorded":N,
  ///    "recent":[{"trace":..,"verdict":..,"variant":..,stage timings}],
  ///    "slowest":[...]}
  /// `recent` is oldest-to-newest within the retained tail; `slowest`
  /// is descending by total_us. Valid JSON, spliceable into larger
  /// documents (same contract as MetricsRegistry::SnapshotJson).
  std::string DumpJson() const;

  /// Snapshots for tests: the retained tail (oldest first) and the
  /// slowest pool (descending by total_us).
  std::vector<FlightRecord> RecentSnapshot() const;
  std::vector<FlightRecord> SlowestSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<FlightRecord> recent_ KDSEL_GUARDED_BY(mu_);  ///< Ring.
  size_t recent_size_ KDSEL_GUARDED_BY(mu_) = 0;
  size_t next_ KDSEL_GUARDED_BY(mu_) = 0;  ///< Ring write cursor.
  uint64_t recorded_ KDSEL_GUARDED_BY(mu_) = 0;
  std::vector<FlightRecord> slowest_ KDSEL_GUARDED_BY(mu_);  ///< Pool.
  size_t slowest_size_ KDSEL_GUARDED_BY(mu_) = 0;
  size_t slowest_min_ KDSEL_GUARDED_BY(mu_) = 0;  ///< Pool floor index.
};

}  // namespace kdsel::obs

#endif  // KDSEL_OBS_FLIGHT_RECORDER_H_
