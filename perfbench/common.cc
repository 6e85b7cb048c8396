#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/clock.h"
#include "obs/trace.h"

namespace perfbench {

void Outcome::Fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", why.c_str());
}

void Outcome::Diag(const std::string& name, double value) {
  diagnostics[name] = Num(value);
}

int64_t Tracer::Begin(const std::string& name, const std::string& id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.start_ns = NowNsec();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int64_t handle = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(handle);
  return handle;
}

void Tracer::End(int64_t handle) {
  if (handle < 0) return;
  spans_[static_cast<size_t>(handle)].end_ns = NowNsec();
  // Spans close in LIFO order; tolerate a stray out-of-order End.
  auto it = std::find(open_.rbegin(), open_.rend(), handle);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
                 const std::string& id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  // Children of each span, for the covered-interval union.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, Totals> totals;
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    intervals.clear();
    for (size_t c : children[i]) {
      const uint64_t b = std::max(spans_[c].start_ns, s.start_ns);
      const uint64_t e = std::min(spans_[c].end_ns, s.end_ns);
      if (e > b) intervals.emplace_back(b, e);
    }
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0;
    uint64_t cur_b = 0;
    uint64_t cur_e = 0;
    for (const auto& [b, e] : intervals) {
      if (b > cur_e) {
        covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    covered += cur_e - cur_b;
    Totals& t = totals[s.name];
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
    ++t.count;
  }
  return totals;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

namespace {

void AppendEscaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
}

}  // namespace

bool Tracer::Write(const std::string& path) const {
  if (!enabled_) return true;
  uint64_t base = UINT64_MAX;
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  const std::vector<kdsel::obs::TraceEvent> program =
      kdsel::obs::CollectTraceEvents();
  for (const auto& e : program) base = std::min(base, e.start_ns);
  if (base == UINT64_MAX) base = 0;

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };
  // Benchmark spans: tid 0, with parent index and job/request id.
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string ev = "{\"name\":\"";
    AppendEscaped(ev, s.name);
    ev += "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" +
          Num(static_cast<double>(s.start_ns - base) / 1e3) +
          ",\"dur\":" + Num(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
          ",\"args\":{\"span\":" + std::to_string(i) +
          ",\"parent\":" + std::to_string(s.parent) + ",\"id\":\"";
    AppendEscaped(ev, s.id);
    ev += "\"}}";
    emit(ev);
  }
  // The program's own KDSEL_SPAN sites, nested under benchmark spans by
  // time (their thread ids are offset past the benchmark's tid 0).
  for (const auto& e : program) {
    std::string ev = "{\"name\":\"";
    AppendEscaped(ev, e.name == nullptr ? "" : e.name);
    ev += "\",\"cat\":\"program\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
          std::to_string(e.tid + 1) +
          ",\"ts\":" + Num(static_cast<double>(e.start_ns - base) / 1e3) +
          ",\"dur\":" + Num(static_cast<double>(e.dur_ns) / 1e3) + "}";
    emit(ev);
  }
  out += "\n],\"selfTime\":{";
  first = true;
  for (const auto& [name, t] : Summarize()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendEscaped(out, name);
    out += "\":{\"total_s\":" + Num(t.total_s) + ",\"self_s\":" +
           Num(t.self_s) + ",\"count\":" + std::to_string(t.count) + "}";
  }
  out += "},\"programSpansDropped\":" +
         std::to_string(kdsel::obs::DroppedTraceEvents()) + "}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << out;
  return static_cast<bool>(file);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double MedianBlockRate(const std::vector<double>& amount,
                       const std::vector<double>& seconds, size_t block) {
  std::vector<double> rates;
  const size_t n = std::min(amount.size(), seconds.size());
  for (size_t b = 0; b < n; b += block) {
    const size_t e = std::min(n, b + block);
    if (e - b < block && !rates.empty()) break;
    double a = 0.0;
    double s = 0.0;
    for (size_t i = b; i < e; ++i) {
      a += amount[i];
      s += seconds[i];
    }
    if (s > 0.0) rates.push_back(a / s);
  }
  return Median(rates);
}

double TailQuantile(size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (i == 3 || i == 4) t.idle += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTimes& begin, const CpuTimes& end) {
  const uint64_t busy = (end.total - end.idle) - (begin.total - begin.idle);
  if (busy == 0) return 0.0;
  return 100.0 * static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(busy);
}

double NowS() { return kdsel::obs::NowSeconds(); }
uint64_t NowNsec() { return kdsel::obs::NowNs(); }

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Die(const std::string& what) {
  std::fprintf(stderr, "[perfbench] fatal: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace perfbench
