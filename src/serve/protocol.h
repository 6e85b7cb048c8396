#ifndef KDSEL_SERVE_PROTOCOL_H_
#define KDSEL_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>

#include "serve/server.h"

namespace kdsel::serve {

/// One parsed line of the newline-delimited JSON wire protocol.
///
/// Requests (one JSON object per line):
///   {"op":"select","id":1,"selector":"mysel","values":[...],
///    "labels":[0,1,...],"detect":true,"scores":false,"name":"s1",
///    "trace":"req-001"}
///   {"op":"list","id":2}            -- resident + on-disk selector names
///   {"op":"reload","id":3,"selector":"mysel"}  -- omit selector: reload all
///   {"op":"stats","id":4}           -- same as the "snapshot" ops view
///   {"op":"ops","id":5,"view":"snapshot"}  -- live telemetry (see below)
///   {"op":"quit"}                   -- drain and exit (EOF works too)
///
/// An "id" must lie within +-2^53 (JSON numbers are doubles). Responses
/// echo the request id. Select replies and the errors for unparseable
/// lines also echo a trace id: the request's "trace" when it supplied
/// a usable one, else one the server generated:
///   {"id":1,"ok":true,"model":"IForest","model_id":4,"votes":[...],
///    "num_windows":8,"auc_pr":0.91,"queue_us":...,"select_us":...,
///    "detect_us":...,"total_us":...,"batch_size":3,"scores":[...],
///    "trace":"req-001"}
///   {"id":1,"ok":false,"error":"NotFound: ...","trace":"req-001"}
///
/// The "ops" op exposes live telemetry; "view" selects the payload:
///   "snapshot" (default) -- stats + metrics + shedder state as JSON
///   "flight"             -- flight-recorder dump (recent + slowest)
///   "prometheus"         -- MetricsRegistry rendered as Prometheus text
struct WireRequest {
  enum class Op { kSelect, kList, kReload, kOps, kQuit };

  Op op = Op::kSelect;
  int64_t id = -1;
  std::string selector;
  bool detect = true;        ///< Run the selected detector.
  bool want_scores = false;  ///< Include per-point scores in the response.
  std::string trace;         ///< Sanitized client trace id; may be empty.
  std::string view;          ///< "ops" payload selector (validated).
  ts::TimeSeries series;
};

/// The trace-id charset, [A-Za-z0-9._:-]. It is what makes splicing an
/// id raw into a reply JSON-safe, including one the net layer peeked
/// from an unparsed line.
inline bool IsTraceChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' ||
         c == '-';
}

/// Validates a client-supplied trace id: at most 23 characters, every
/// one of them an IsTraceChar. Returns the id unchanged when it is
/// acceptable and "" otherwise (an unusable id is dropped, not an
/// error: the server falls back to generating one).
std::string SanitizeTraceId(std::string_view raw);

/// Parses one request line: ScanSelectLine first, then, for every line
/// it declines, ParseRequestLineStrict. The result, the error text and
/// `error_id` are always the strict parser's. Selects that take the
/// second path count in `kdsel.serve.select_fallbacks`.
StatusOr<WireRequest> ParseRequestLine(const std::string& line,
                                       int64_t* error_id = nullptr);

/// The reference parser: builds a Json document, then reads the request
/// from it. Unknown fields are ignored; unknown ops and malformed JSON
/// are errors. A select value whose float is not finite is OutOfRange.
///
/// When `error_id` is non-null it receives the id to echo in an error
/// reply for this line: the request's "id" whenever the line was at
/// least a JSON object carrying one (e.g. a select with a bad "values"
/// array), -1 when even that much could not be recovered. This keeps a
/// pipelined client able to correlate failures mid-session instead of
/// seeing every malformed line collapse to id -1. An id outside +-2^53
/// is itself the error, reported under id -1.
StatusOr<WireRequest> ParseRequestLineStrict(const std::string& line,
                                             int64_t* error_id = nullptr);

/// The select fast path: one pass over the line that reads "values" and
/// "labels" straight into `request->series`, with no Json document.
/// Returns true only when ParseRequestLineStrict would return an equal
/// request. It returns false, leaving `request` unspecified, for every
/// line it cannot prove that for: control ops, string escapes, unknown
/// or repeated keys, numbers outside JSON's grammar or the normal double
/// range, and every line the strict parser refuses. It never produces an
/// error of its own.
bool ScanSelectLine(std::string_view line, WireRequest* request);

/// Response formatting (each returns a complete line WITHOUT the '\n').
/// A non-empty `trace` is echoed as a trailing "trace" field; it must
/// already be sanitized (SanitizeTraceId charset), it is spliced raw.
std::string FormatSelectResponse(int64_t id, const SelectResponse& response,
                                 bool labeled, bool want_scores,
                                 const std::string& trace = "");
std::string FormatErrorResponse(int64_t id, const Status& status,
                                const std::string& trace = "");
std::string FormatOkResponse(int64_t id);

/// Control-op replies.
std::string FormatListResponse(int64_t id, SelectorRegistry& registry);

/// Transport-owned telemetry spliced into an "ops" reply as pre-rendered
/// JSON text. Keeping these opaque lets serve stay below net in the
/// dependency graph.
struct OpsExtras {
  std::string shedder_json;  ///< Shedder state object.
  std::string flight_json;   ///< FlightRecorder::DumpJson().
};

/// Formats one "ops" reply for the given (already validated) view.
std::string FormatOpsResponse(int64_t id, const std::string& view,
                              const InferenceServer& server,
                              const OpsExtras& extras);

}  // namespace kdsel::serve

#endif  // KDSEL_SERVE_PROTOCOL_H_
