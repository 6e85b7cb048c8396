#include "obs/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kdsel::obs {

namespace {

void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "0";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  out += buffer;
}

/// Trace ids are sanitized at the protocol boundary, but escape
/// defensively so the dump stays valid JSON whatever was recorded.
void AppendQuoted(std::string& out, const char* text) {
  out += '"';
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
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

void AppendRecord(std::string& out, const FlightRecord& record) {
  out += "{\"trace\":";
  AppendQuoted(out, record.trace);
  out += ",\"verdict\":\"";
  out += FlightVerdictName(record.verdict);
  out += "\",\"variant\":\"";
  out += record.int8_variant ? "int8" : "fp32";
  out += "\",\"parse_us\":";
  AppendNumber(out, record.parse_us);
  out += ",\"queue_us\":";
  AppendNumber(out, record.queue_us);
  out += ",\"batch_wait_us\":";
  AppendNumber(out, record.batch_wait_us);
  out += ",\"compute_us\":";
  AppendNumber(out, record.compute_us);
  out += ",\"write_us\":";
  AppendNumber(out, record.write_us);
  out += ",\"total_us\":";
  AppendNumber(out, record.total_us);
  out += '}';
}

void AppendRecords(std::string& out, const std::vector<FlightRecord>& records) {
  out += '[';
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ',';
    AppendRecord(out, records[i]);
  }
  out += ']';
}

}  // namespace

const char* FlightVerdictName(FlightRecord::Verdict verdict) {
  switch (verdict) {
    case FlightRecord::Verdict::kOk:
      return "ok";
    case FlightRecord::Verdict::kError:
      return "error";
    case FlightRecord::Verdict::kShed:
      return "shed";
    case FlightRecord::Verdict::kOverflow:
      return "overflow";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t recent_capacity, size_t slowest_capacity)
    : recent_(std::max<size_t>(recent_capacity, 1)),
      slowest_(std::max<size_t>(slowest_capacity, 1)) {}

void FlightRecorder::Record(const FlightRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  recent_[next_] = record;
  next_ = (next_ + 1) % recent_.size();
  recent_size_ = std::min(recent_size_ + 1, recent_.size());

  if (slowest_size_ < slowest_.size()) {
    slowest_[slowest_size_++] = record;
    // Pool just grew; re-derive which entry is the floor.
    slowest_min_ = 0;
    for (size_t i = 1; i < slowest_size_; ++i) {
      if (slowest_[i].total_us < slowest_[slowest_min_].total_us) {
        slowest_min_ = i;
      }
    }
    return;
  }
  if (record.total_us <= slowest_[slowest_min_].total_us) return;
  slowest_[slowest_min_] = record;
  for (size_t i = 0; i < slowest_size_; ++i) {
    if (slowest_[i].total_us < slowest_[slowest_min_].total_us) {
      slowest_min_ = i;
    }
  }
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

double FlightRecorder::SlowestTotalUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  double slowest = 0.0;
  for (size_t i = 0; i < slowest_size_; ++i) {
    slowest = std::max(slowest, slowest_[i].total_us);
  }
  return slowest;
}

std::vector<FlightRecord> FlightRecorder::RecentSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightRecord> out;
  out.reserve(recent_size_);
  // Oldest retained record sits at the write cursor once the ring wraps.
  const size_t start =
      recent_size_ < recent_.size() ? 0 : next_ % recent_.size();
  for (size_t i = 0; i < recent_size_; ++i) {
    out.push_back(recent_[(start + i) % recent_.size()]);
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::SlowestSnapshot() const {
  std::vector<FlightRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.assign(slowest_.begin(),
               slowest_.begin() + static_cast<std::ptrdiff_t>(slowest_size_));
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.total_us > b.total_us;
            });
  return out;
}

std::string FlightRecorder::DumpJson() const {
  const std::vector<FlightRecord> recent = RecentSnapshot();
  const std::vector<FlightRecord> slowest = SlowestSnapshot();
  std::string out = "{\"recorded\":";
  out += std::to_string(recorded());
  out += ",\"recent\":";
  AppendRecords(out, recent);
  out += ",\"slowest\":";
  AppendRecords(out, slowest);
  out += '}';
  return out;
}

}  // namespace kdsel::obs
