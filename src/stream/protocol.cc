#include "stream/protocol.h"

#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/json.h"

namespace kdsel::stream {

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

std::string FormatStatistic(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  return buf;
}

}  // namespace

StatusOr<StreamRequest> ParseStreamLine(const std::string& line) {
  KDSEL_ASSIGN_OR_RETURN(serve::Json doc, serve::Json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("stream input must be a JSON object");
  }
  StreamRequest request;

  // "op" may be omitted for point events; "points" is accepted as an
  // explicit alias so every line can carry a uniform "op" key.
  const std::string op = doc.GetString("op", "");
  if (!op.empty() && op != "points") {
    if (op == "reload") {
      request.op = StreamRequest::Op::kReload;
    } else if (op == "stats") {
      request.op = StreamRequest::Op::kStats;
    } else if (op == "quit") {
      request.op = StreamRequest::Op::kQuit;
    } else {
      return Status::InvalidArgument("unknown op '" + op + "'");
    }
    return request;
  }

  request.op = StreamRequest::Op::kPoints;
  request.series = doc.GetString("series", "");
  if (request.series.empty()) {
    return Status::InvalidArgument("point event needs \"series\"");
  }
  const serve::Json* values = doc.Find("values");
  if (values != nullptr) {
    if (!values->is_array() || values->items().empty()) {
      return Status::InvalidArgument("\"values\" must be a non-empty array");
    }
    request.values.reserve(values->items().size());
    for (const serve::Json& item : values->items()) {
      if (!item.is_number()) {
        return Status::InvalidArgument("\"values\" must hold numbers");
      }
      const float narrowed = static_cast<float>(item.as_number());
      if (!std::isfinite(narrowed)) {
        return Status::OutOfRange("\"values\"[" +
                                  std::to_string(request.values.size()) +
                                  "] does not fit in a float");
      }
      request.values.push_back(narrowed);
    }
    return request;
  }
  const serve::Json* value = doc.Find("value");
  if (value == nullptr || !value->is_number()) {
    return Status::InvalidArgument(
        "point event needs a numeric \"value\" or \"values\" array");
  }
  const float narrowed = static_cast<float>(value->as_number());
  if (!std::isfinite(narrowed)) {
    return Status::OutOfRange("\"value\" does not fit in a float");
  }
  request.values.push_back(narrowed);
  return request;
}

std::string FormatStreamEvent(const StreamEvent& event) {
  std::string line = "{\"event\":";
  if (event.kind == StreamEvent::Kind::kDrift) {
    line += "\"drift\",\"series\":";
    serve::AppendJsonString(line, event.series);
    line += ",\"point\":" + std::to_string(event.point);
    line += ",\"statistic\":" + FormatStatistic(event.statistic);
    line.push_back('}');
    return line;
  }
  line += "\"selection\",\"series\":";
  serve::AppendJsonString(line, event.series);
  line += ",\"point\":" + std::to_string(event.point);
  line += ",\"model\":";
  serve::AppendJsonString(line, event.model_name);
  line += ",\"model_id\":" + std::to_string(event.model);
  line += ",\"votes\":" + FormatIntArray(event.votes);
  line += ",\"num_windows\":" + std::to_string(event.num_windows);
  line += ",\"reason\":";
  serve::AppendJsonString(line, event.reason);
  line += ",\"changed\":";
  line += event.changed ? "true" : "false";
  line += ",\"selector_version\":" + std::to_string(event.selector_version);
  line.push_back('}');
  return line;
}

std::string FormatStreamError(const Status& status) {
  std::string line = "{\"event\":\"error\",\"error\":";
  serve::AppendJsonString(line, status.ToString());
  line.push_back('}');
  return line;
}

Status RunStreamLoop(std::istream& in, std::ostream& out, StreamScorer& scorer,
                     serve::SelectorRegistry& registry,
                     const StreamLoopOptions& options) {
  std::vector<PointEvent> batch;
  batch.reserve(options.max_batch);

  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    auto events = scorer.ProcessBatch(batch);
    batch.clear();
    KDSEL_RETURN_NOT_OK(events.status());
    for (const StreamEvent& event : events.value()) {
      out << FormatStreamEvent(event) << '\n';
    }
    out.flush();
    return Status::OK();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = ParseStreamLine(line);
    if (!parsed.ok()) {
      out << FormatStreamError(parsed.status()) << '\n';
      out.flush();
      continue;
    }
    StreamRequest& request = parsed.value();
    switch (request.op) {
      case StreamRequest::Op::kPoints:
        for (float value : request.values) {
          batch.push_back(PointEvent{request.series, value});
        }
        if (batch.size() >= options.max_batch) KDSEL_RETURN_NOT_OK(flush());
        break;
      case StreamRequest::Op::kReload: {
        KDSEL_RETURN_NOT_OK(flush());
        const Status status = registry.ReloadAll();
        if (status.ok()) {
          out << "{\"event\":\"reload\",\"ok\":true}" << '\n';
        } else {
          out << FormatStreamError(status) << '\n';
        }
        out.flush();
        break;
      }
      case StreamRequest::Op::kStats: {
        KDSEL_RETURN_NOT_OK(flush());
        // SnapshotJson() is already valid JSON text, spliced verbatim.
        out << "{\"event\":\"stats\",\"series\":"
            << std::to_string(scorer.series_count()) << ",\"points\":"
            << std::to_string(scorer.points_ingested()) << ",\"metrics\":"
            << obs::MetricsRegistry::Global().SnapshotJson() << "}" << '\n';
        out.flush();
        break;
      }
      case StreamRequest::Op::kQuit:
        return flush();
    }
  }
  return flush();
}

}  // namespace kdsel::stream
