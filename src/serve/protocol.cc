#include "serve/protocol.h"

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "serve/json.h"

namespace kdsel::serve {

namespace {

std::string FormatIntArray(const std::vector<int>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(values[i]);
  }
  out.push_back(']');
  return out;
}

std::string FormatUs(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  return buf;
}

/// Appends `,"trace":"<id>"` when `trace` is non-empty. The id is in
/// the SanitizeTraceId charset by contract, so raw splicing is safe.
void AppendTrace(std::string& out, const std::string& trace) {
  if (trace.empty()) return;
  out += ",\"trace\":\"";
  out += trace;
  out += '"';
}

/// Ids travel as JSON numbers (doubles): beyond 2^53 they are no longer
/// exact, and past int64_t the conversion itself is undefined.
constexpr double kMaxWireId = 9007199254740992.0;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// ScanSelectLine's cursor. Every reader returns false to decline the
/// line, and none of them produces an error of its own.
class SelectScanner {
 public:
  explicit SelectScanner(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool Scan(WireRequest* request);

 private:
  /// json.cc's whitespace set.
  void SkipWhitespace() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  /// A string without escapes; its raw bytes are what the strict parser
  /// would decode.
  bool ReadString(std::string_view* out) {
    if (!Consume('"')) return false;
    const char* begin = p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') return false;
      ++p_;
    }
    if (p_ == end_) return false;
    *out = std::string_view(begin, static_cast<size_t>(p_ - begin));
    ++p_;
    return true;
  }

  bool ReadBool(bool* out) {
    const size_t left = static_cast<size_t>(end_ - p_);
    if (left >= 4 && std::string_view(p_, 4) == "true") {
      *out = true;
      p_ += 4;
      return true;
    }
    if (left >= 5 && std::string_view(p_, 5) == "false") {
      *out = false;
      p_ += 5;
      return true;
    }
    return false;
  }

  /// One number in JSON's grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?
  /// ([eE][-+]?[0-9]+)?, read to the nearest double by from_chars, as
  /// strtod reads it. Declines a double that overflows or leaves the
  /// normal range, where strtod sets ERANGE; DBL_MIN and DBL_MAX
  /// themselves too, so no rounding at either edge has to agree. Of a
  /// longer strict token ("01", "1e5e5") it reads a prefix, and the
  /// caller, finding no ',', ']' or '}' after it, declines the line.
  bool ReadNumber(double* out) {
    const char* begin = p_;
    const char* q = p_;
    if (q < end_ && *q == '-') ++q;
    if (q == end_ || !IsDigit(*q)) return false;
    bool nonzero = *q != '0';
    if (*q++ != '0') {
      while (q < end_ && IsDigit(*q)) ++q;
    }
    if (q < end_ && *q == '.') {
      const char* digits = ++q;
      while (q < end_ && IsDigit(*q)) nonzero |= *q++ != '0';
      if (q == digits) return false;
    }
    if (q < end_ && (*q == 'e' || *q == 'E')) {
      ++q;
      if (q < end_ && (*q == '+' || *q == '-')) ++q;
      const char* digits = q;
      while (q < end_ && IsDigit(*q)) ++q;
      if (q == digits) return false;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, q, value);
    if (ec != std::errc() || ptr != q) return false;
    if (nonzero &&
        !(std::fabs(value) > DBL_MIN && std::fabs(value) < DBL_MAX)) {
      return false;
    }
    *out = value;
    p_ = q;
    return true;
  }

  /// A non-empty array of numbers, each handed to `take`, which
  /// returns false to decline it.
  template <typename Take>
  bool ReadNumbers(Take take) {
    if (!Consume('[')) return false;
    do {
      SkipWhitespace();
      double value = 0.0;
      if (!ReadNumber(&value) || !take(value)) return false;
      SkipWhitespace();
    } while (Consume(','));
    return Consume(']');
  }

  const char* p_;
  const char* end_;
};

bool SelectScanner::Scan(WireRequest* request) {
  // One bit per member: a key seen twice is the strict parser's (its
  // last value wins there).
  enum : unsigned {
    kOp = 1u << 0,
    kId = 1u << 1,
    kSelector = 1u << 2,
    kVariant = 1u << 3,
    kDetect = 1u << 4,
    kScores = 1u << 5,
    kTrace = 1u << 6,
    kName = 1u << 7,
    kValues = 1u << 8,
    kLabels = 1u << 9,
  };
  unsigned seen = 0;
  double id = -1.0;
  std::string_view op = "select";
  std::string_view selector;
  std::string_view variant = "fp32";
  std::string_view trace;
  std::string_view name = "wire";
  bool detect = true;
  bool scores = false;
  std::vector<float> values;
  std::vector<uint8_t> labels;

  SkipWhitespace();
  if (!Consume('{')) return false;
  do {
    SkipWhitespace();
    std::string_view key;
    if (!ReadString(&key)) return false;
    SkipWhitespace();
    if (!Consume(':')) return false;
    SkipWhitespace();
    unsigned bit = 0;
    bool read = false;
    if (key == "values") {
      bit = kValues;
      // Decimal to double, then double to float, as the strict path
      // narrows. Parsing straight to float rounds once instead of twice
      // and can land on the other neighbour.
      read = ReadNumbers([&values](double value) {
        values.push_back(static_cast<float>(value));
        return std::isfinite(values.back());
      });
    } else if (key == "op") {
      bit = kOp;
      read = ReadString(&op);
    } else if (key == "id") {
      bit = kId;
      read = ReadNumber(&id);
    } else if (key == "selector") {
      bit = kSelector;
      read = ReadString(&selector);
    } else if (key == "variant") {
      bit = kVariant;
      read = ReadString(&variant);
    } else if (key == "detect") {
      bit = kDetect;
      read = ReadBool(&detect);
    } else if (key == "scores") {
      bit = kScores;
      read = ReadBool(&scores);
    } else if (key == "trace") {
      bit = kTrace;
      read = ReadString(&trace);
    } else if (key == "name") {
      bit = kName;
      read = ReadString(&name);
    } else if (key == "labels") {
      bit = kLabels;
      read = ReadNumbers([&labels](double value) {
        labels.push_back(value != 0.0 ? 1 : 0);
        return true;
      });
    }
    // An unknown key is the strict parser's to skip.
    if (!read || (seen & bit) != 0) return false;
    seen |= bit;
    SkipWhitespace();
  } while (Consume(','));
  if (!Consume('}')) return false;
  SkipWhitespace();
  if (p_ != end_) return false;

  // What the strict parser would refuse, it also gets to word.
  if (op != "select" || !(std::fabs(id) <= kMaxWireId) || selector.empty() ||
      (variant != "fp32" && variant != "int8") || values.empty()) {
    return false;
  }
  request->op = WireRequest::Op::kSelect;
  request->id = static_cast<int64_t>(id);
  request->selector.assign(selector);
  if (variant == "int8") request->selector += ".int8";
  request->detect = detect;
  request->want_scores = scores;
  request->trace = SanitizeTraceId(trace);
  request->series = ts::TimeSeries(std::string(name), std::move(values));
  return (seen & kLabels) == 0 ||
         request->series.SetLabels(std::move(labels)).ok();
}

}  // namespace

std::string SanitizeTraceId(std::string_view raw) {
  if (raw.empty() || raw.size() > 23) return std::string();
  for (char c : raw) {
    if (!IsTraceChar(c)) return std::string();
  }
  return std::string(raw);
}

bool ScanSelectLine(std::string_view line, WireRequest* request) {
  return SelectScanner(line).Scan(request);
}

StatusOr<WireRequest> ParseRequestLine(const std::string& line,
                                       int64_t* error_id) {
  // Selects the strict parser served: nonzero means real traffic left
  // the scanner's subset.
  static obs::Counter& fallbacks =
      obs::MetricsRegistry::Global().GetCounter("kdsel.serve.select_fallbacks");
  WireRequest request;
  if (ScanSelectLine(line, &request)) {
    if (error_id != nullptr) *error_id = request.id;
    return request;
  }
  auto parsed = ParseRequestLineStrict(line, error_id);
  if (parsed.ok() && parsed->op == WireRequest::Op::kSelect) {
    fallbacks.Increment();
  }
  return parsed;
}

StatusOr<WireRequest> ParseRequestLineStrict(const std::string& line,
                                             int64_t* error_id) {
  if (error_id != nullptr) *error_id = -1;
  KDSEL_ASSIGN_OR_RETURN(Json doc, Json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const double id = doc.GetNumber("id", -1);
  if (!(std::fabs(id) <= kMaxWireId)) {
    return Status::InvalidArgument("\"id\" must lie within +-2^53");
  }
  WireRequest request;
  request.id = static_cast<int64_t>(id);
  // From here on the line is a JSON object: any later validation error
  // can still be attributed to the request the client sent.
  if (error_id != nullptr) *error_id = request.id;

  const std::string op = doc.GetString("op", "select");
  if (op == "select") {
    request.op = WireRequest::Op::kSelect;
  } else if (op == "list") {
    request.op = WireRequest::Op::kList;
  } else if (op == "reload") {
    request.op = WireRequest::Op::kReload;
  } else if (op == "stats") {
    // The stats reply is the "ops" snapshot; a "view" here is ignored.
    request.op = WireRequest::Op::kOps;
    request.view = "snapshot";
  } else if (op == "ops") {
    request.op = WireRequest::Op::kOps;
  } else if (op == "quit") {
    request.op = WireRequest::Op::kQuit;
  } else {
    return Status::InvalidArgument("unknown op '" + op + "'");
  }

  request.selector = doc.GetString("selector", "");
  request.detect = doc.GetBool("detect", true);
  request.want_scores = doc.GetBool("scores", false);
  // An over-long or out-of-charset trace id is dropped rather than
  // rejected: tracing must never turn a valid request into an error.
  request.trace = SanitizeTraceId(doc.GetString("trace", ""));

  if (op == "ops") {
    request.view = doc.GetString("view", "snapshot");
    if (request.view != "snapshot" && request.view != "flight" &&
        request.view != "prometheus") {
      return Status::InvalidArgument(
          "unknown view '" + request.view +
          "' (expected \"snapshot\", \"flight\" or \"prometheus\")");
    }
  }

  if (request.op == WireRequest::Op::kSelect) {
    if (request.selector.empty()) {
      return Status::InvalidArgument("select request needs \"selector\"");
    }
    // A/B variant routing: "int8" rewrites the lookup to the quantized
    // sibling (saved/registered as `<name>.int8`), so both variants stay
    // independently hot-reloadable registry entries.
    const std::string variant = doc.GetString("variant", "fp32");
    if (variant == "int8") {
      request.selector += ".int8";
    } else if (variant != "fp32") {
      return Status::InvalidArgument("unknown variant '" + variant +
                                     "' (expected \"fp32\" or \"int8\")");
    }
    const Json* values = doc.Find("values");
    if (values == nullptr || !values->is_array() || values->items().empty()) {
      return Status::InvalidArgument(
          "select request needs a non-empty \"values\" array");
    }
    std::vector<float> floats;
    floats.reserve(values->items().size());
    for (const Json& v : values->items()) {
      if (!v.is_number()) {
        return Status::InvalidArgument("\"values\" must contain only numbers");
      }
      // A double beyond float range would narrow to +-inf, and
      // z-normalization would turn its windows into NaN.
      const float narrowed = static_cast<float>(v.as_number());
      if (!std::isfinite(narrowed)) {
        return Status::OutOfRange("\"values\"[" +
                                  std::to_string(floats.size()) +
                                  "] does not fit in a float");
      }
      floats.push_back(narrowed);
    }
    request.series =
        ts::TimeSeries(doc.GetString("name", "wire"), std::move(floats));

    if (const Json* labels = doc.Find("labels"); labels != nullptr) {
      if (!labels->is_array()) {
        return Status::InvalidArgument("\"labels\" must be an array");
      }
      std::vector<uint8_t> parsed;
      parsed.reserve(labels->items().size());
      for (const Json& l : labels->items()) {
        if (!l.is_number()) {
          return Status::InvalidArgument("\"labels\" must contain 0/1");
        }
        parsed.push_back(l.as_number() != 0.0 ? 1 : 0);
      }
      KDSEL_RETURN_NOT_OK(request.series.SetLabels(std::move(parsed)));
    }
  }
  return request;
}

std::string FormatSelectResponse(int64_t id, const SelectResponse& response,
                                 bool labeled, bool want_scores,
                                 const std::string& trace) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"ok\":true";
  out += ",\"model\":";
  AppendJsonString(out, response.result.model_name);
  out += ",\"model_id\":" + std::to_string(response.result.selected_model);
  out += ",\"votes\":" + FormatIntArray(response.result.votes);
  out += ",\"num_windows\":" + std::to_string(response.num_windows);
  if (labeled && !response.result.anomaly_scores.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", response.result.auc_pr);
    out += ",\"auc_pr\":";
    out += buf;
  }
  out += ",\"queue_us\":" + FormatUs(response.timing.queue_us);
  out += ",\"select_us\":" + FormatUs(response.timing.select_us);
  out += ",\"detect_us\":" + FormatUs(response.timing.detect_us);
  out += ",\"total_us\":" + FormatUs(response.timing.total_us);
  out += ",\"batch_size\":" + std::to_string(response.timing.batch_size);
  if (want_scores) {
    out += ",\"scores\":";
    AppendJsonFloatArray(out, response.result.anomaly_scores);
  }
  AppendTrace(out, trace);
  out.push_back('}');
  return out;
}

std::string FormatErrorResponse(int64_t id, const Status& status,
                                const std::string& trace) {
  std::string out =
      "{\"id\":" + std::to_string(id) + ",\"ok\":false,\"error\":";
  AppendJsonString(out, status.ToString());
  AppendTrace(out, trace);
  out.push_back('}');
  return out;
}

std::string FormatOkResponse(int64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true}";
}

std::string FormatListResponse(int64_t id, SelectorRegistry& registry) {
  Json names = Json::Array();
  for (const auto& name : registry.ResidentNames()) {
    names.Append(Json::Str(name));
  }
  Json disk = Json::Array();
  if (auto on_disk = registry.DiskNames(); on_disk.ok()) {
    for (const auto& name : *on_disk) disk.Append(Json::Str(name));
  }
  Json reply = Json::Object();
  reply.Set("id", Json::Number(static_cast<double>(id)));
  reply.Set("ok", Json::Bool(true));
  reply.Set("resident", names);
  reply.Set("on_disk", disk);
  return reply.Dump();
}

std::string FormatOpsResponse(int64_t id, const std::string& view,
                              const InferenceServer& server,
                              const OpsExtras& extras) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"ok\":true";
  if (view == "flight") {
    out += ",\"flight\":" + extras.flight_json;
  } else if (view == "prometheus") {
    out += ",\"prometheus\":";
    AppendJsonString(out, obs::MetricsRegistry::Global().RenderPrometheus());
  } else {  // "snapshot"
    out += ",\"stats\":" + server.stats().ToJsonString();
    out += ",\"metrics\":" + obs::MetricsRegistry::Global().SnapshotJson();
    out += ",\"shedder\":" + extras.shedder_json;
  }
  out.push_back('}');
  return out;
}

}  // namespace kdsel::serve
