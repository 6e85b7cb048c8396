#include "net/server.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <utility>

#include "net/listener.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace kdsel::net {

namespace {

/// Monotonic microseconds on the codebase-wide obs timebase.
int64_t NowUs() { return static_cast<int64_t>(obs::NowNs() / 1000); }

/// The canned shed reply: cheap to build by construction (no JSON
/// formatter), identical whether the refusal came from the SLO shedder
/// or from submit-queue backpressure. `trace` must be in the sanitized
/// trace charset (it is spliced raw); "" omits the field.
std::string OverloadedLine(int64_t id, const char* trace = "") {
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"ok\":false,\"error\":\"overloaded\"";
  if (trace[0] != '\0') {
    out += ",\"trace\":\"";
    out += trace;
    out += '"';
  }
  out += '}';
  return out;
}

/// The trace id a request travels under: `client` when non-empty (it
/// is already in the sanitized charset), else a deterministic
/// server-generated `s<shard>-<per-shard sequence>`. Shard-thread only
/// (the sequence lives on the Shard).
void PickTrace(const char* client, size_t shard_index, uint64_t& trace_seq,
               char out[obs::FlightRecord::kTraceBytes]) {
  if (client[0] != '\0') {
    std::snprintf(out, obs::FlightRecord::kTraceBytes, "%s", client);
  } else {
    std::snprintf(out, obs::FlightRecord::kTraceBytes, "s%zu-%llu",
                  shard_index, static_cast<unsigned long long>(++trace_seq));
  }
}

/// listen(2) backlog per shard socket.
constexpr int kListenBacklog = 1024;

/// Backpressure: a connection whose pending output exceeds this many
/// bytes stops being read; reading resumes below half of it.
constexpr size_t kMaxWriteBufferBytes = size_t{4} << 20;

/// Drain deadline for peers that stop reading during shutdown: sockets
/// whose pending output cannot be written within this budget are closed
/// with the output dropped (in-flight inference completions are always
/// awaited regardless; only unwritable bytes are abandoned).
constexpr int64_t kStopFlushBudgetUs = 5 * 1000 * 1000;

/// Longest id the peek accumulates: 18 decimal digits always fit an
/// int64_t. A longer one is treated as absent.
constexpr int kMaxPeekIdDigits = 18;

/// epoll tags carry the connection key (its read fd) in the low 32
/// bits; this bit marks an event from an adopted pair's separate write
/// fd, whose hang-up must not trigger a read.
constexpr uint64_t kOutSideTag = uint64_t{1} << 32;

bool IsSocket(int fd) {
  struct stat st = {};
  return fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
}

/// One write toward `fd` that cannot stall the shard thread. An adopted
/// pipe or tty may be blocking and is shared with the parent, so it is
/// written only while poll(2) reports room, at most PIPE_BUF bytes at a
/// time: a writable pipe takes that much whole. (A regular file always
/// polls ready.)
ssize_t WriteSome(int fd, bool socket, const char* data, size_t size) {
  if (socket) return send(fd, data, size, MSG_NOSIGNAL | MSG_DONTWAIT);
  pollfd pfd = {};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  const int ready = poll(&pfd, 1, 0);
  if (ready <= 0) {
    if (ready == 0) errno = EAGAIN;
    return -1;
  }
  return write(fd, data, std::min<size_t>(size, PIPE_BUF));
}

/// True when `token` appears at `pos` as a JSON key (preceded only by
/// `{` or `,` modulo whitespace, followed by a colon).
bool IsTopLevelKey(const std::string& line, size_t pos, size_t len) {
  size_t before = pos;
  while (before > 0 && std::isspace(static_cast<unsigned char>(
                           line[before - 1]))) {
    --before;
  }
  if (before == 0 || (line[before - 1] != '{' && line[before - 1] != ',')) {
    return false;
  }
  size_t after = pos + len;
  while (after < line.size() &&
         std::isspace(static_cast<unsigned char>(line[after]))) {
    ++after;
  }
  return after < line.size() && line[after] == ':';
}

/// Scans for `"key":` at top level-ish positions and returns the index
/// just past the colon, or npos.
size_t FindKeyValue(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\"";
  size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    if (IsTopLevelKey(line, pos, needle.size())) {
      size_t after = pos + needle.size();
      while (after < line.size() &&
             std::isspace(static_cast<unsigned char>(line[after]))) {
        ++after;
      }
      return after + 1;  // Past the colon (IsTopLevelKey verified it).
    }
    pos += 1;
  }
  return std::string::npos;
}

}  // namespace

KDSEL_HOT LinePeek PeekRequestLine(const std::string& line) {
  LinePeek peek;
  size_t pos = FindKeyValue(line, "op");
  if (pos != std::string::npos) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    // Anything other than the string "select" (including malformed
    // values) is not shed on the fast path; the full parser owns it.
    peek.is_select =
        line.compare(pos, 8, "\"select\"") == 0;
  }
  pos = FindKeyValue(line, "id");
  if (pos != std::string::npos) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    bool negative = false;
    if (pos < line.size() && line[pos] == '-') {
      negative = true;
      ++pos;
    }
    int64_t value = 0;
    int digits = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      if (digits < kMaxPeekIdDigits) value = value * 10 + (line[pos] - '0');
      ++digits;
      ++pos;
    }
    if (digits > 0 && digits <= kMaxPeekIdDigits) {
      peek.id = negative ? -value : value;
    }
  }
  pos = FindKeyValue(line, "trace");
  if (pos != std::string::npos) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos < line.size() && line[pos] == '"') {
      ++pos;
      size_t out = 0;
      bool usable = false;
      while (pos < line.size()) {
        const char c = line[pos];
        if (c == '"') {
          usable = true;  // Closing quote reached within budget.
          break;
        }
        // Escapes, exotic characters and over-long ids all disqualify
        // the peek (the id is dropped, not an error): only ids that can
        // be spliced raw are worth recovering on the fast path.
        if (!serve::IsTraceChar(c) ||
            out + 1 >= obs::FlightRecord::kTraceBytes) {
          break;
        }
        peek.trace[out++] = c;
        ++pos;
      }
      peek.trace[usable ? out : 0] = '\0';
    }
  }
  return peek;
}

NetServer::NetServer(serve::InferenceServer* server, NetServerOptions options)
    : server_(server), options_(std::move(options)), shedder_([&] {
        ShedderOptions shed = options_.shedder;
        shed.slo_us = options_.slo_ms * 1000.0;
        return shed;
      }()) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Adopt(int in_fd, int out_fd) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (started_ || adopted_.first >= 0) {
    return Status::FailedPrecondition("adopt one fd pair, before Start()");
  }
  struct stat st = {};
  if (fstat(in_fd, &st) != 0 || fstat(out_fd, &st) != 0) {
    return Status::InvalidArgument(std::string("adopted fd: ") +
                                   std::strerror(errno));
  }
  adopted_ = {in_fd, out_fd};
  return Status::OK();
}

Status NetServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (server_ == nullptr) {
    return Status::InvalidArgument("net server needs an inference server");
  }
  if (started_) return Status::FailedPrecondition("net server already started");
  if (options_.shards == 0) {
    return Status::InvalidArgument("shards must be positive");
  }
  if (options_.max_line_bytes == 0) {
    return Status::InvalidArgument("max_line_bytes must be positive");
  }
  // Without an adopted fd pair the listener is all there is to serve, so
  // an empty address is rejected like any other malformed one.
  const bool listening = !options_.listen.empty() || adopted_.first < 0;
  HostPort address;
  if (listening) {
    KDSEL_ASSIGN_OR_RETURN(address, ParseHostPort(options_.listen));
  }

  auto cleanup = [&] {
    for (auto& shard : shards_) {
      if (shard->listen_fd >= 0) close(shard->listen_fd);
      if (shard->epoll_fd >= 0) close(shard->epoll_fd);
      if (shard->wake_fd >= 0) close(shard->wake_fd);
    }
    shards_.clear();
    if (adopted_done_fd_ >= 0) close(adopted_done_fd_);
    adopted_done_fd_ = -1;
  };

  for (size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;

    auto listener = listening ? OpenReusePortListener(address, kListenBacklog)
                              : StatusOr<int>(-1);
    if (!listener.ok()) {
      cleanup();
      return listener.status();
    }
    shard->listen_fd = *listener;
    if (listening && i == 0) {
      // Resolve an ephemeral-port request so the remaining shards (and
      // the caller) bind/see the same concrete port.
      auto port = LocalPort(shard->listen_fd);
      if (!port.ok()) {
        close(shard->listen_fd);
        cleanup();
        return port.status();
      }
      port_ = *port;
      address.port = *port;
    }

    shard->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    shard->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->wake_fd < 0) {
      Status status = Status::IoError(std::string("epoll_create1/eventfd: ") +
                                      std::strerror(errno));
      shards_.push_back(std::move(shard));
      cleanup();
      return status;
    }
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(shard->listen_fd);
    epoll_event wake = {};
    wake.events = EPOLLIN;
    wake.data.u64 = static_cast<uint64_t>(shard->wake_fd);
    if ((listening && epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD,
                                shard->listen_fd, &ev) != 0) ||
        epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->wake_fd, &wake) != 0) {
      Status status =
          Status::IoError(std::string("epoll_ctl: ") + std::strerror(errno));
      shards_.push_back(std::move(shard));
      cleanup();
      return status;
    }
    shards_.push_back(std::move(shard));
  }

  if (const auto [in_fd, out_fd] = adopted_; in_fd >= 0) {
    Shard& first = *shards_.front();
    auto conn = std::make_unique<Conn>();
    conn->adopted = true;
    conn->in.fd = in_fd;
    conn->in.socket = IsSocket(in_fd);
    conn->out.fd = out_fd;
    conn->out.socket = IsSocket(out_fd);
    conn->gen = ++first.next_gen;
    adopted_done_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (adopted_done_fd_ < 0 || !Arm(first, *conn, EPOLLIN, 0)) {
      Status status = Status::IoError(std::string("eventfd/epoll_ctl: ") +
                                      std::strerror(errno));
      cleanup();
      return status;
    }
    first.conns[in_fd] = std::move(conn);
  }

  for (auto& shard : shards_) {
    shard->thread = std::thread(&NetServer::ShardLoop, this, std::ref(*shard));
  }
  started_ = true;
  return Status::OK();
}

void NetServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  for (auto& shard : shards_) {
    [[maybe_unused]] ssize_t n = write(shard->wake_fd, &one, sizeof(one));
  }
  for (auto& shard : shards_) {
    shard->thread.join();
    close(shard->epoll_fd);
    close(shard->wake_fd);
  }
  if (adopted_done_fd_ >= 0) close(adopted_done_fd_);
  adopted_done_fd_ = -1;
}

void NetServer::PushCompletion(Shard& shard, Completion completion) {
  // The wake write happens under the lock on purpose: once the shard
  // has drained this completion from the queue (which requires the
  // lock), the eventfd write has already retired, so the shard can
  // never exit with a write to its wake_fd still in flight.
  std::lock_guard<std::mutex> lock(shard.done_mu);
  shard.done.push_back(std::move(completion));
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(shard.wake_fd, &one, sizeof(one));
}

void NetServer::EnqueueReady(Conn& conn, std::string line) {
  Slot slot;
  slot.kind = Slot::Kind::kReady;
  slot.line = std::move(line);
  conn.slots.push_back(std::move(slot));
}

void NetServer::EnqueueTraced(Conn& conn, std::string line,
                              obs::FlightRecord::Verdict verdict,
                              int64_t ingress_us, const char* trace) {
  EnqueueReady(conn, std::move(line));
  ReqMeta& meta = conn.slots.back().meta;
  meta.traced = true;
  meta.verdict = verdict;
  meta.ingress_us = ingress_us;
  std::memcpy(meta.trace, trace, sizeof(meta.trace));
}

void NetServer::AcceptReady(Shard& shard) {
  static obs::Counter& accepted =
      obs::MetricsRegistry::Global().GetCounter("kdsel.net.connections");
  for (;;) {
    const int fd = accept4(shard.listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      // EMFILE/ENFILE: out of descriptors; the pending connection stays
      // in the backlog and is retried on the next accept wake.
      break;
    }
    // Best effort: NDJSON request/response is latency-bound, but a
    // kernel refusing TCP_NODELAY is not fatal.
    Status nodelay = SetNoDelay(fd);
    (void)nodelay;
    auto conn = std::make_unique<Conn>();
    conn->in.fd = fd;
    conn->out.fd = fd;
    conn->gen = ++shard.next_gen;
    if (!Arm(shard, *conn, EPOLLIN, 0)) {
      close(fd);
      continue;
    }
    shard.conns[fd] = std::move(conn);
    accepted.Increment();
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::ProcessLine(
    Shard& shard, Conn& conn, const std::string& line, int64_t now_us,
    std::vector<serve::InferenceServer::AsyncItem>& submits) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;

  // SLO admission control, before the full JSON parse: refusing a
  // request must stay cheap precisely when the server has no capacity
  // to spare. The refusal still carries a trace id (peeked from the raw
  // bytes or generated) so shed requests are attributable end to end.
  if (options_.slo_ms > 0.0) {
    const LinePeek peek = PeekRequestLine(line);
    if (peek.is_select && !shedder_.Admit(now_us)) {
      server_->stats().RecordShed();
      char trace[obs::FlightRecord::kTraceBytes];
      PickTrace(peek.trace, shard.index, shard.trace_seq, trace);
      EnqueueTraced(conn, OverloadedLine(peek.id, trace),
                    obs::FlightRecord::Verdict::kShed, now_us, trace);
      return;
    }
  }

  int64_t error_id = -1;
  auto parsed = serve::ParseRequestLine(line, &error_id);
  if (!parsed.ok()) {
    // Rare path: one extra structural scan recovers the client's trace
    // id from the unparseable line when it has a usable one.
    char trace[obs::FlightRecord::kTraceBytes];
    PickTrace(PeekRequestLine(line).trace, shard.index, shard.trace_seq,
              trace);
    EnqueueTraced(conn,
                  serve::FormatErrorResponse(error_id, parsed.status(), trace),
                  obs::FlightRecord::Verdict::kError, now_us, trace);
    return;
  }
  serve::WireRequest& request = *parsed;
  serve::SelectorRegistry& registry = server_->registry();

  switch (request.op) {
    case serve::WireRequest::Op::kQuit:
      // Drain in-flight replies, then close. Remaining buffered input
      // is discarded by the caller.
      conn.stop_reading = true;
      conn.saw_quit = true;
      break;
    case serve::WireRequest::Op::kList:
      EnqueueReady(conn, serve::FormatListResponse(request.id, registry));
      break;
    case serve::WireRequest::Op::kReload: {
      Status status =
          request.selector.empty() ? registry.ReloadAll()
                                   : registry.Load(request.selector);
      if (status.ok()) server_->stats().RecordReload();
      EnqueueReady(conn, status.ok()
                             ? serve::FormatOkResponse(request.id)
                             : serve::FormatErrorResponse(request.id, status));
      break;
    }
    case serve::WireRequest::Op::kOps: {
      Slot slot;
      slot.kind = Slot::Kind::kOps;
      slot.id = request.id;
      slot.view = request.view;
      conn.slots.push_back(std::move(slot));
      break;
    }
    case serve::WireRequest::Op::kSelect: {
      static obs::Counter& requests =
          obs::MetricsRegistry::Global().GetCounter("kdsel.net.requests");
      requests.Increment();
      const int64_t parsed_us = NowUs();
      char trace[obs::FlightRecord::kTraceBytes];
      PickTrace(request.trace.c_str(), shard.index, shard.trace_seq, trace);
      const uint64_t seq = conn.base_seq + conn.slots.size();
      Slot slot;
      slot.kind = Slot::Kind::kPending;
      slot.id = request.id;
      slot.meta.traced = true;
      slot.meta.ingress_us = now_us;
      slot.meta.parse_us =
          static_cast<float>(std::max<int64_t>(parsed_us - now_us, 0));
      std::memcpy(slot.meta.trace, trace, sizeof(trace));
      conn.slots.push_back(std::move(slot));
      ++conn.pending;
      shard.outstanding.fetch_add(1, std::memory_order_relaxed);

      serve::InferenceServer::AsyncItem item;
      item.request.selector = request.selector;
      item.request.run_detection = request.detect;
      const bool labeled = request.series.has_labels();
      const bool want_scores = request.want_scores;
      item.request.series = std::move(request.series);
      const int64_t id = request.id;
      const int fd = conn.in.fd;
      const uint64_t gen = conn.gen;
      std::string trace_echo(trace);
      Shard* shard_ptr = &shard;
      const bool slo = options_.slo_ms > 0.0;
      item.done = [this, shard_ptr, fd, gen, seq, id, labeled, want_scores,
                   trace_echo = std::move(trace_echo),
                   slo](StatusOr<serve::SelectResponse> response) {
        Completion completion;
        completion.fd = fd;
        completion.gen = gen;
        completion.seq = seq;
        if (response.ok()) {
          if (slo) shedder_.RecordLatency(response->timing.total_us);
          const serve::RequestTiming& timing = response->timing;
          completion.verdict = obs::FlightRecord::Verdict::kOk;
          completion.int8_variant = response->int8;
          completion.done_us = timing.done_us;
          completion.batch_wait_us = static_cast<float>(timing.queue_us);
          completion.compute_us = static_cast<float>(timing.compute_us);
          completion.line = serve::FormatSelectResponse(id, *response, labeled,
                                                        want_scores,
                                                        trace_echo);
        } else if (response.status().code() ==
                   StatusCode::kResourceExhausted) {
          // Backpressure from the bounded submit queue is load shedding
          // by another door: same cheap reply, same counter, and no
          // latency sample (the request never ran).
          server_->stats().RecordShed();
          completion.verdict = obs::FlightRecord::Verdict::kShed;
          completion.line = OverloadedLine(id, trace_echo.c_str());
        } else {
          completion.verdict = obs::FlightRecord::Verdict::kError;
          completion.line = serve::FormatErrorResponse(id, response.status(),
                                                       trace_echo);
        }
        PushCompletion(*shard_ptr, std::move(completion));
      };
      submits.push_back(std::move(item));
      break;
    }
  }
}

void NetServer::ReadReady(
    Shard& shard, Conn& conn, int64_t now_us,
    std::vector<serve::InferenceServer::AsyncItem>& submits) {
  char buffer[64 * 1024];
  while (!conn.stop_reading && !conn.dead) {
    const ssize_t n =
        conn.in.socket ? recv(conn.in.fd, buffer, sizeof(buffer), MSG_DONTWAIT)
                       : read(conn.in.fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn.rbuf.append(buffer, static_cast<size_t>(n));
      // A pipe or tty may be blocking: one read per readiness report.
      if (!conn.in.socket || static_cast<size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) {
      conn.stop_reading = true;  // EOF; half-close: keep flushing replies.
      // A last line without its '\n' still runs.
      if (!conn.rbuf.empty() && conn.rbuf.back() != '\n') {
        conn.rbuf.push_back('\n');
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn.dead = true;
    return;
  }
  ConsumeLines(shard, conn, now_us, submits);
}

void NetServer::ConsumeLines(
    Shard& shard, Conn& conn, int64_t now_us,
    std::vector<serve::InferenceServer::AsyncItem>& submits) {
  // A connection never has more selects in flight than the submission
  // queue holds, so a file read in one go waits for room instead of
  // being refused as "overloaded".
  const size_t max_in_flight = server_->options().queue_capacity;
  conn.throttled = false;
  size_t start = 0;
  for (;;) {
    if (conn.pending >= max_in_flight) {
      conn.throttled = true;
      break;
    }
    const size_t newline = conn.rbuf.find('\n', start);
    if (newline == std::string::npos) break;
    size_t end = newline;
    if (end > start && conn.rbuf[end - 1] == '\r') --end;
    if (end - start > options_.max_line_bytes) {
      LineOverflow(shard, conn);
      start = conn.rbuf.size();
      break;
    }
    const std::string line = conn.rbuf.substr(start, end - start);
    start = newline + 1;
    ProcessLine(shard, conn, line, now_us, submits);
    if (conn.saw_quit) {
      // quit: everything after it on the wire is intentionally dropped.
      // (EOF is different: lines received before the FIN all run.)
      start = conn.rbuf.size();
      break;
    }
  }
  conn.rbuf.erase(0, start);

  // Unless throttled, what is left is one partial line.
  if (!conn.throttled && !conn.stop_reading &&
      conn.rbuf.size() > options_.max_line_bytes) {
    LineOverflow(shard, conn);
    conn.rbuf.clear();
  }
}

/// Rejects a line (complete or still accumulating) past the length cap:
/// one error reply, then the connection drains its queue and closes.
/// The line is abusive by definition, so no trace peek: the refusal is
/// recorded under a generated trace id.
void NetServer::LineOverflow(Shard& shard, Conn& conn) {
  static obs::Counter& overflows =
      obs::MetricsRegistry::Global().GetCounter("kdsel.net.line_overflows");
  overflows.Increment();
  char trace[obs::FlightRecord::kTraceBytes];
  PickTrace("", shard.index, shard.trace_seq, trace);
  const Status error = Status::InvalidArgument(
      "line exceeds " + std::to_string(options_.max_line_bytes) + " bytes");
  EnqueueTraced(conn, serve::FormatErrorResponse(-1, error, trace),
                obs::FlightRecord::Verdict::kOverflow, NowUs(), trace);
  conn.stop_reading = true;  // Error reply flushes, then the conn closes.
}

void NetServer::DrainCompletions(Shard& shard) {
  uint64_t counter = 0;
  [[maybe_unused]] ssize_t n =
      read(shard.wake_fd, &counter, sizeof(counter));
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(shard.done_mu);
    done.swap(shard.done);
  }
  for (Completion& completion : done) {
    shard.outstanding.fetch_sub(1, std::memory_order_relaxed);
    auto it = shard.conns.find(completion.fd);
    if (it == shard.conns.end() || it->second->gen != completion.gen) {
      continue;  // The connection died before its reply resolved.
    }
    Conn& conn = *it->second;
    const uint64_t index = completion.seq - conn.base_seq;
    if (index >= conn.slots.size()) continue;  // Defensive; cannot happen.
    Slot& slot = conn.slots[static_cast<size_t>(index)];
    slot.kind = Slot::Kind::kReady;
    slot.line = std::move(completion.line);
    slot.meta.done_us = completion.done_us;
    slot.meta.batch_wait_us = completion.batch_wait_us;
    slot.meta.compute_us = completion.compute_us;
    // Queue is the ingress->done span minus the parse, the wait for a
    // worker and compute: the rest of the read's lines and the submit.
    // Charging the residual makes the five stages sum to the e2e total
    // exactly, so per-stage p50s reconcile against the kdsel.net.e2e
    // histogram.
    if (completion.done_us > 0 &&
        completion.verdict == obs::FlightRecord::Verdict::kOk) {
      const double span_us = static_cast<double>(
          std::max<int64_t>(completion.done_us - slot.meta.ingress_us, 0));
      slot.meta.queue_us = static_cast<float>(
          std::max(span_us - slot.meta.parse_us - completion.batch_wait_us -
                       completion.compute_us,
                   0.0));
    }
    slot.meta.verdict = completion.verdict;
    slot.meta.int8_variant = completion.int8_variant;
    --conn.pending;
  }
}

void NetServer::FlushConn(Shard& shard, Conn& conn) {
  if (conn.dead) {
    CloseConn(shard, conn);
    return;
  }
  // Release the ready prefix in submission order. Traced slots park
  // their metadata in the shard scratch; they are recorded below, after
  // the send loop, under ONE write timestamp per flush (so tracing adds
  // one clock read per FlushConn, not per request), or earlier, ahead
  // of a lazily formatted reply.
  shard.flush_scratch.clear();
  while (!conn.slots.empty()) {
    Slot& front = conn.slots.front();
    if (front.kind == Slot::Kind::kPending) break;
    if (front.kind == Slot::Kind::kOps) {
      // Formatted only now, when every earlier reply has left the
      // queue; the replies released just ahead of it are recorded
      // first, so the snapshot counts every one of them.
      RecordFlushed(shard);
      front.line = serve::FormatOpsResponse(
          front.id, front.view, *server_, {ShedderJson(), flight_.DumpJson()});
    }
    if (front.meta.traced) shard.flush_scratch.push_back(front.meta);
    conn.wbuf += front.line;
    conn.wbuf.push_back('\n');
    conn.slots.pop_front();
    ++conn.base_seq;
  }

  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = WriteSome(conn.out.fd, conn.out.socket,
                                conn.wbuf.data() + conn.woff,
                                conn.wbuf.size() - conn.woff);
    if (n > 0) {
      conn.woff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(shard, conn);  // Peer gone; replies are undeliverable.
    return;  // Scratch metas are dropped with their unsent replies.
  }
  if (conn.woff == conn.wbuf.size() && !conn.wbuf.empty()) {
    conn.wbuf.clear();
    conn.woff = 0;
  }

  RecordFlushed(shard);

  if (conn.stop_reading && conn.slots.empty() &&
      conn.woff == conn.wbuf.size()) {
    CloseConn(shard, conn);
    return;
  }

  // Backpressure: a peer that stops reading its replies stops being
  // read. Resume at half the cap so the edge does not chatter.
  const size_t backlog = conn.wbuf.size() - conn.woff;
  if (!conn.paused && backlog > kMaxWriteBufferBytes) {
    conn.paused = true;
  } else if (conn.paused && backlog < kMaxWriteBufferBytes / 2) {
    conn.paused = false;
  }

  const bool reading = !conn.stop_reading && !conn.paused && !conn.throttled;
  Arm(shard, conn, reading ? uint32_t{EPOLLIN} : 0u,
      backlog > 0 ? uint32_t{EPOLLOUT} : 0u);
}

bool NetServer::Arm(Shard& shard, Conn& conn, uint32_t in, uint32_t out) {
  // Interest drops to no registration at all, so a hung-up pipe end the
  // loop has no use for cannot keep waking it.
  auto set = [&](Side& side, uint64_t tag, uint32_t want) {
    if (want == side.armed) return true;
    if (side.polled) {
      epoll_event ev = {};
      ev.events = want;
      ev.data.u64 = tag;
      const int op = side.armed == 0 ? EPOLL_CTL_ADD
                     : want == 0     ? EPOLL_CTL_DEL
                                     : EPOLL_CTL_MOD;
      if (epoll_ctl(shard.epoll_fd, op, side.fd, &ev) != 0) {
        // A regular file or /dev/null: epoll refuses it, it is always
        // ready.
        if (errno != EPERM) return false;
        side.polled = false;
      }
    }
    side.armed = want;
    return true;
  };
  const uint64_t key = static_cast<uint32_t>(conn.in.fd);
  if (conn.in.fd == conn.out.fd) return set(conn.in, key, in | out);
  return set(conn.in, key, in) && set(conn.out, key | kOutSideTag, out);
}

void NetServer::CloseConn(Shard& shard, Conn& conn) {
  const int key = conn.in.fd;
  Arm(shard, conn, 0, 0);
  if (conn.adopted) {
    // The fds stay open: they belong to the caller (stdin/stdout).
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(adopted_done_fd_, &one, sizeof(one));
  } else {
    close(key);
  }
  shard.conns.erase(key);  // Invalidates `conn`.
}

void NetServer::RecordFlushed(Shard& shard) {
  static obs::Histogram& parse_h =
      obs::MetricsRegistry::Global().GetHistogram("kdsel.net.stage.parse");
  static obs::Histogram& queue_h =
      obs::MetricsRegistry::Global().GetHistogram("kdsel.net.stage.queue");
  static obs::Histogram& batch_wait_h =
      obs::MetricsRegistry::Global().GetHistogram("kdsel.net.stage.batch_wait");
  static obs::Histogram& compute_h =
      obs::MetricsRegistry::Global().GetHistogram("kdsel.net.stage.compute");
  static obs::Histogram& write_h =
      obs::MetricsRegistry::Global().GetHistogram("kdsel.net.stage.write");
  static obs::Histogram& e2e_h =
      obs::MetricsRegistry::Global().GetHistogram("kdsel.net.e2e");

  if (shard.flush_scratch.empty()) return;
  const int64_t flushed_us = NowUs();
  for (const ReqMeta& meta : shard.flush_scratch) {
    obs::FlightRecord record;
    std::memcpy(record.trace, meta.trace, sizeof(record.trace));
    record.verdict = meta.verdict;
    record.int8_variant = meta.int8_variant;
    record.total_us = static_cast<double>(
        std::max<int64_t>(flushed_us - meta.ingress_us, 0));
    if (meta.verdict == obs::FlightRecord::Verdict::kOk) {
      record.parse_us = meta.parse_us;
      record.queue_us = meta.queue_us;
      record.batch_wait_us = meta.batch_wait_us;
      record.compute_us = meta.compute_us;
      // Response ready (worker stamp) -> reply handed to the send loop.
      record.write_us = meta.done_us > 0
                            ? static_cast<double>(std::max<int64_t>(
                                  flushed_us - meta.done_us, 0))
                            : 0.0;
      // Stage histograms only see served requests: a refusal's zeros
      // would drag every stage p50 toward the shed rate instead of
      // describing the pipeline.
      parse_h.Record(record.parse_us);
      queue_h.Record(record.queue_us);
      batch_wait_h.Record(record.batch_wait_us);
      compute_h.Record(record.compute_us);
      write_h.Record(record.write_us);
      e2e_h.Record(record.total_us);
    }
    flight_.Record(record);
  }
  shard.flush_scratch.clear();
}

std::string NetServer::ShedderJson() const {
  auto format_us = [](double us) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", us);
    return std::string(buf);
  };
  std::string out = "{\"enabled\":";
  out += options_.slo_ms > 0.0 ? "true" : "false";
  out += ",\"state\":\"";
  out += shedder_.shedding() ? "shed" : "admit";
  out += "\",\"slo_us\":" + format_us(shedder_.options().slo_us);
  out += ",\"window_p99_us\":" + format_us(shedder_.window_p99());
  out += ",\"transitions\":" + std::to_string(shedder_.transitions());
  out += ",\"shed\":" + std::to_string(shedder_.shed_count());
  out += ",\"evaluations\":" + std::to_string(shedder_.evaluations());
  out += '}';
  return out;
}

void NetServer::ShardLoop(Shard& shard) {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  std::vector<serve::InferenceServer::AsyncItem> submits;
  bool draining = false;
  int64_t drain_deadline_us = 0;

  for (;;) {
    // Sides epoll refused (a regular file, /dev/null) are always ready:
    // while the adopted connection wants I/O on one, its event is made
    // up here and the wait below does not block.
    int made_up = 0;
    const auto adopted = adopted_.first >= 0
                             ? shard.conns.find(adopted_.first)
                             : shard.conns.end();
    if (adopted != shard.conns.end()) {
      const Conn& conn = *adopted->second;
      const uint32_t ready = (conn.in.polled ? 0 : conn.in.armed) |
                             (conn.out.polled ? 0 : conn.out.armed);
      if (ready != 0) {
        events[0].events = ready;
        events[0].data.u64 = static_cast<uint32_t>(adopted_.first);
        made_up = 1;
      }
    }
    const int timeout_ms = made_up > 0 ? 0 : draining ? 50 : -1;
    const int waited = epoll_wait(shard.epoll_fd, events + made_up,
                                  kMaxEvents - made_up, timeout_ms);
    if (waited < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd broken; nothing sane left to do.
    }
    const int n = made_up + waited;
    const int64_t now_us = NowUs();

    bool completions = false;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      const int fd = static_cast<int>(static_cast<uint32_t>(tag));
      if (fd == shard.wake_fd) {
        completions = true;  // Drained once, below, after socket work.
        continue;
      }
      if (fd == shard.listen_fd) {
        AcceptReady(shard);
        continue;
      }
      auto it = shard.conns.find(fd);
      if (it == shard.conns.end()) continue;
      Conn& conn = *it->second;
      uint32_t ready = events[i].events;
      if (ready & (EPOLLERR | EPOLLHUP)) {
        if (!conn.adopted) {
          // Half-close (EPOLLHUP with pending replies) still flushes;
          // hard errors surface through read()/send() below.
          conn.stop_reading = true;
        } else if ((tag & kOutSideTag) == 0) {
          // A pipe whose writer left: read what it still holds, then EOF.
          ready |= EPOLLIN;
        }
      }
      if (ready & EPOLLIN) {
        ReadReady(shard, conn, now_us, submits);
      }
      FlushConn(shard, conn);  // May close and erase `conn`.
    }

    if (completions) {
      DrainCompletions(shard);
      // Ready slots may now head several queues; flush every conn with
      // no pending front rather than tracking touched fds.
      for (auto it = shard.conns.begin(); it != shard.conns.end();) {
        Conn& conn = *it->second;
        ++it;  // FlushConn may erase the current entry.
        // Completions made in-flight room: run the lines held back.
        if (conn.throttled) ConsumeLines(shard, conn, now_us, submits);
        FlushConn(shard, conn);
      }
    }

    if (!submits.empty()) {
      server_->SubmitBatch(std::move(submits));
      submits.clear();
    }

    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline_us = now_us + kStopFlushBudgetUs;
      if (shard.listen_fd >= 0) {
        epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, shard.listen_fd, nullptr);
        close(shard.listen_fd);
        shard.listen_fd = -1;
      }
      for (auto it = shard.conns.begin(); it != shard.conns.end();) {
        Conn& conn = *it->second;
        ++it;
        conn.stop_reading = true;
        conn.rbuf.clear();  // Lines not yet run are not accepted.
        FlushConn(shard, conn);  // Closes idle conns outright.
      }
    }

    if (draining) {
      if (NowUs() > drain_deadline_us) {
        // Peers refusing to read their replies do not hold shutdown
        // hostage; whatever remains unwritten is dropped.
        while (!shard.conns.empty()) {
          CloseConn(shard, *shard.conns.begin()->second);
        }
      }
      if (shard.conns.empty() &&
          shard.outstanding.load(std::memory_order_relaxed) == 0) {
        // Late completions for force-closed conns were already drained;
        // with outstanding at zero no callback will touch wake_fd again,
        // so Stop() can close it safely after join.
        break;
      }
    }
  }
}

}  // namespace kdsel::net
