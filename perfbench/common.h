// Shared plumbing of the perfbench binary: run options, the result
// record every workload fills, the benchmark's own span recorder, and
// small statistics / host-diagnostic helpers.
//
// The benchmark reaches the library only through its public headers;
// everything here is benchmark-side bookkeeping.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few seconds (self-test only).
  bool tiny = false;
  /// Self-test hook: corrupt one serve reply's model_id before the
  /// correctness check, which must then fail the run.
  bool tamper_model_id = false;
  /// Where the traced run writes its span file.
  std::string out_dir = ".bench_build/perfbench-out";
  /// obs::NowSeconds() at the top of main(); set-up time starts here.
  double process_start_s = 0.0;
};

/// A metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `e2e` is printed with tracing off,
/// `layer` with tracing on; `diagnostics` goes to a separate stdout line
/// in both modes.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> diagnostics;

  /// Marks the run incorrect; the reason goes to stderr and diagnostics.
  void Fail(const std::string& why);
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = Metric{value, unit};
  }
  void Diag(const std::string& name, double value);
  void Diag(const std::string& name, const std::string& value) {
    diagnostics[name] = "\"" + value + "\"";
  }
};

/// The benchmark's own span recorder. Spans are recorded from the
/// benchmark's files around each call into a layer; they live in memory
/// and are written out once at exit. Not thread-safe: every span is
/// recorded from the driving thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  ///< Index of the enclosing span, -1 at the root.
    std::string id;       ///< Job or request id ("" when not applicable).
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested under the innermost open one; returns a handle
  /// for End(), or -1 when tracing is off.
  int64_t Begin(const std::string& name, const std::string& id = "");
  void End(int64_t handle);

  /// Records an already-finished span (overlapping requests of an open
  /// loop) under the innermost open span.
  void Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
           const std::string& id = "");

  /// RAII helper around Begin/End.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, const std::string& id = "")
        : tracer_(tracer), handle_(tracer.Begin(name, id)) {}
    ~Scope() { tracer_.End(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int64_t handle_;
  };

  /// Per span name: summed duration, summed self time (duration minus
  /// the part covered by child spans) and span count.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Durations (seconds) of every span called `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the spans (plus the program's own KDSEL_SPAN events, when
  /// tracing of those was on) as chrome://tracing JSON, followed by the
  /// per-name self-time summary.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Median of `values` (0 for an empty set).
double Median(std::vector<double> values);

/// Exact q-quantile (q in [0,1]) by linear interpolation on sorted data.
double Quantile(std::vector<double> values, double q);

/// Median over consecutive blocks of `block` entries of
/// sum(amount) / sum(seconds): a rate that one slow host episode cannot
/// move, unlike the plain total ratio. A trailing partial block counts
/// only when it is the sole block.
double MedianBlockRate(const std::vector<double>& amount,
                       const std::vector<double>& seconds, size_t block);

/// Highest percentile of `n` samples that still has at least ten samples
/// beyond it, from the ladder 50/90/99/99.9/99.99 (0 when n < 20).
double TailQuantile(size_t n);

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

/// Aggregate CPU jiffies from /proc/stat, for the steal share of a phase.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t idle = 0;  ///< idle + iowait.
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
/// Percentage of the guest's non-idle CPU time that the hypervisor
/// stole between two samples (0 when nothing ran).
double StealPct(const CpuTimes& begin, const CpuTimes& end);

/// Monotonic time in seconds / nanoseconds (the library's obs clock).
double NowS();
uint64_t NowNsec();

/// Formats a double with every significant digit for the JSON output.
std::string Num(double value);

/// Deterministic 64-bit mix of a seed and a stream index.
uint64_t Mix(uint64_t seed, uint64_t index);

/// Fails the process on a non-OK status during set-up: a benchmark whose
/// set-up cannot run has no meaningful result.
[[noreturn]] void Die(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
