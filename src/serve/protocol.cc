#include "serve/protocol.h"

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

}  // namespace

std::string SanitizeTraceId(const std::string& raw) {
  if (raw.empty() || raw.size() > 23) return std::string();
  for (char c : raw) {
    if (!IsTraceChar(c)) return std::string();
  }
  return raw;
}

StatusOr<WireRequest> ParseRequestLine(const std::string& line,
                                       int64_t* error_id) {
  if (error_id != nullptr) *error_id = -1;
  KDSEL_ASSIGN_OR_RETURN(Json doc, Json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  // Ids travel as JSON numbers (doubles): beyond 2^53 they are no longer
  // exact, and past int64_t the conversion itself is undefined.
  const double id = doc.GetNumber("id", -1);
  if (!(std::fabs(id) <= 9007199254740992.0)) {
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
    request.op = WireRequest::Op::kStats;
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

  if (request.op == WireRequest::Op::kOps) {
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
      floats.push_back(static_cast<float>(v.as_number()));
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

std::string FormatStatsResponse(int64_t id, const InferenceServer& server) {
  // SnapshotJson() is already valid JSON text, spliced verbatim.
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"stats\":" +
         server.stats().ToJsonString() + ",\"metrics\":" +
         obs::MetricsRegistry::Global().SnapshotJson() + "}";
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
