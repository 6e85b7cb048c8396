#ifndef KDSEL_NET_SERVER_H_
#define KDSEL_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "net/shedder.h"
#include "obs/flight_recorder.h"
#include "serve/server.h"

namespace kdsel::net {

/// Tuning knobs for the serving front end.
struct NetServerOptions {
  /// IPv4 "host:port" to listen on. Port 0 binds an ephemeral port
  /// (query it with port() after Start()). Empty opens no listening
  /// socket: the server then serves only its adopted fd pair, and
  /// Start() fails if none was adopted.
  std::string listen = "127.0.0.1:0";
  /// Shard threads. Each owns its own SO_REUSEPORT listening socket,
  /// epoll instance and connections; shards share nothing but the
  /// InferenceServer behind them.
  size_t shards = 1;
  /// p99 SLO target for accepted requests in milliseconds; <= 0 turns
  /// admission control off.
  double slo_ms = 0.0;
  /// A connection whose current line exceeds this many bytes is sent
  /// one error reply and closed (protocol abuse / runaway input).
  size_t max_line_bytes = 1 << 20;
  /// Hysteresis/eval tuning for the shedder; slo_us is derived from
  /// slo_ms by Start().
  ShedderOptions shedder;
};

/// Cheap structural peek at a request line, used for the shed fast
/// path: while overloaded, select requests are refused from the raw
/// bytes without paying for a full JSON parse. Heuristic by design (a
/// quoted string containing `"op"` can fool it); admitted requests
/// still go through the strict parser, so correctness never depends on
/// the peek.
struct LinePeek {
  bool is_select = true;  ///< "op" missing (the default op) or "select".
  int64_t id = -1;        ///< Top-level "id" when scannable.
  /// Top-level "trace" when scannable AND entirely in the sanitized
  /// charset ([A-Za-z0-9._:-], <= 23 chars); empty otherwise. The
  /// charset restriction is what makes splicing the peeked bytes into a
  /// shed reply JSON-safe without a full parse.
  char trace[obs::FlightRecord::kTraceBytes] = {};
};
LinePeek PeekRequestLine(const std::string& line);

/// The one request pipeline of the NDJSON serving protocol, for every
/// transport.
///
/// N shard threads, each with its own SO_REUSEPORT listener and epoll
/// loop, speak the protocol of serve/protocol.h over TCP with
/// non-blocking reads/writes and per-connection bounded buffers. An
/// adopted fd pair (Adopt(): `kdsel serve` passes stdin/stdout) is one
/// more connection of shard 0 and takes the same line, slot and flush
/// path. Responses go back in per-connection submission order. Select
/// requests are handed to the InferenceServer in one batch per epoll
/// wake (one submission-lock acquisition), and completions flow back to
/// the owning shard through an eventfd, so no thread ever parks on a
/// future. A connection stops being read while its in-flight selects
/// fill the InferenceServer's queue_capacity, so a file read in one go
/// is throttled rather than refused.
///
/// Admission control: when `slo_ms` is set, a Shedder watches the
/// windowed p99 of accepted requests and, while overloaded, refuses new
/// select requests with `{"id":N,"ok":false,"error":"overloaded"}`
/// (counted as `shed` in ServerStats) before they consume parse or
/// inference capacity.
///
/// Observability: every select (and every refusal) carries a trace id
/// -- the client's "trace" field when it passes SanitizeTraceId, else a
/// generated `s<shard>-<seq>` -- which is echoed on the reply and keyed
/// into an always-on flight recorder together with the request's stage
/// decomposition (parse/queue/batch_wait/compute/write). Stage latencies feed
/// the `kdsel.net.stage.*` histograms; the `ops` op (see
/// serve/protocol.h) exports all of it live. See DESIGN.md "Request
/// observability".
///
/// Lifecycle: Adopt() an fd pair if any, then Start() binds and spawns
/// shards; Stop() closes the listeners, stops reading, drains every
/// in-flight request, flushes what the peers will accept, and joins.
/// Stop this front end BEFORE stopping the InferenceServer, so
/// in-flight completions can drain.
class NetServer {
 public:
  /// The inference server must outlive this object and be Start()ed.
  NetServer(serve::InferenceServer* server, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Serves an open fd pair as one more connection of shard 0; call at most
  /// once, before Start(). `in_fd` may equal `out_fd` (a socket). The fds stay
  /// the caller's and may share their file description with a parent shell or
  /// tty: they are never closed and their O_NONBLOCK flag is never set. Sockets
  /// get MSG_DONTWAIT calls instead; a pipe or tty gets one read() per
  /// readiness report and PIPE_BUF-sized write()s while poll(2) reports room. A
  /// regular file or /dev/null, which epoll refuses, counts as always ready.
  Status Adopt(int in_fd, int out_fd);

  Status Start();
  void Stop();

  /// An eventfd that turns readable once the adopted connection has
  /// closed (its input hit EOF or `quit`, and every reply was written);
  /// -1 when nothing was adopted. Poll it together with a shutdown
  /// signal to wait for the end of a stdin session.
  int adopted_done_fd() const { return adopted_done_fd_; }

  /// Bound port (after Start(); resolves a port-0 request).
  uint16_t port() const { return port_; }
  const NetServerOptions& options() const { return options_; }
  Shedder& shedder() { return shedder_; }
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// The shard-side flight recorder (for tests and the "ops" op).
  obs::FlightRecorder& flight_recorder() { return flight_; }

 private:
  /// Per-request observability riding along with a response slot from
  /// ingress until the reply bytes are handed to the kernel. POD with
  /// an inline trace id so slots stay allocation-free to annotate.
  struct ReqMeta {
    char trace[obs::FlightRecord::kTraceBytes] = {};
    int64_t ingress_us = 0;  ///< Epoll-wake stamp when the line arrived.
    int64_t done_us = 0;     ///< Worker completion stamp (selects only).
    /// Ingress -> this line parsed (selects only).
    float parse_us = 0.0f;
    /// Parsed -> submit: the rest of the read's lines and the submit. A
    /// residual by construction, so parse + queue + batch_wait + compute
    /// + write == total.
    float queue_us = 0.0f;
    /// Submit -> a worker took the request (waiting for a free worker).
    float batch_wait_us = 0.0f;
    float compute_us = 0.0f;  ///< Worker took the request -> response ready.
    obs::FlightRecord::Verdict verdict = obs::FlightRecord::Verdict::kError;
    bool int8_variant = false;
    bool traced = false;  ///< Record stage metrics + flight on flush.
  };

  /// One response slot; replies leave in slot order per connection.
  struct Slot {
    enum class Kind {
      kPending,  ///< Select in flight; `line` arrives via completion.
      kReady,    ///< `line` is final.
      kOps,      ///< Telemetry reply, formatted lazily when it reaches
                 ///< the flush front, so it covers every earlier reply.
    };
    Kind kind = Kind::kReady;
    int64_t id = -1;
    std::string line;
    std::string view;  ///< "ops" payload selector (kOps only).
    ReqMeta meta;
  };

  /// One direction of a connection: an accepted socket uses one fd for
  /// both, an adopted pair has two.
  struct Side {
    int fd = -1;
    /// Events wanted: registered with epoll, or, when !polled, served on
    /// every loop pass.
    uint32_t armed = 0;
    bool socket = true;  ///< recv/send with MSG_DONTWAIT; else read/write.
    bool polled = true;  ///< false: epoll refused the fd (always ready).
  };

  struct Conn {
    Side in;   ///< in.fd keys the connection in Shard::conns.
    Side out;  ///< out.fd == in.fd except for adopted pairs.
    bool adopted = false;   ///< Caller-owned fds (see Adopt()).
    uint64_t gen = 0;
    std::string rbuf;       ///< Unconsumed input.
    std::string wbuf;       ///< Pending output.
    size_t woff = 0;        ///< Consumed prefix of wbuf.
    uint64_t base_seq = 0;  ///< Sequence number of slots.front().
    std::deque<Slot> slots;
    size_t pending = 0;     ///< Slots still waiting on a completion.
    bool stop_reading = false;  ///< EOF or quit seen (or server stopping).
    bool saw_quit = false;      ///< quit op: discard any later input too.
    bool paused = false;        ///< Reads off due to write backpressure.
    /// Reads and line processing off: `pending` reached the
    /// InferenceServer's queue_capacity.
    bool throttled = false;
    bool dead = false;          ///< Hard error: close, dropping output.
  };

  /// A resolved select request on its way back to the shard thread.
  struct Completion {
    int fd = -1;
    uint64_t gen = 0;
    uint64_t seq = 0;
    std::string line;
    // Stage attribution from the inference side, merged into the slot's
    // ReqMeta by DrainCompletions (which derives queue_us as the
    // ingress->submit residual, so it is not carried here).
    int64_t done_us = 0;
    float batch_wait_us = 0.0f;  ///< The serve-side RequestTiming::queue_us.
    float compute_us = 0.0f;
    obs::FlightRecord::Verdict verdict = obs::FlightRecord::Verdict::kError;
    bool int8_variant = false;
  };

  struct Shard {
    size_t index = 0;
    int listen_fd = -1;
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: completions arrived or Stop() called.
    std::thread thread;
    uint64_t next_gen = 0;  ///< Generation source for connections.
    uint64_t trace_seq = 0;  ///< Source for generated trace ids.
    std::map<int, std::unique_ptr<Conn>> conns;  ///< Shard-thread only.
    std::mutex done_mu;
    std::vector<Completion> done KDSEL_GUARDED_BY(done_mu);
    /// Select slots submitted but not yet seen back by this shard; the
    /// loop only exits once this drains (the InferenceServer resolves
    /// every accepted request, so this always terminates).
    std::atomic<uint64_t> outstanding{0};
    /// FlushConn's reusable staging area for traced slot metadata
    /// (shard-thread only; reused so flushing never allocates in steady
    /// state).
    std::vector<ReqMeta> flush_scratch;
  };

  void ShardLoop(Shard& shard);
  void AcceptReady(Shard& shard);
  /// Brings the epoll interest of both sides of `conn` to `in`/`out`.
  /// False when epoll refused a side for a reason other than EPERM.
  bool Arm(Shard& shard, Conn& conn, uint32_t in, uint32_t out);
  void ReadReady(Shard& shard, Conn& conn, int64_t now_us,
                 std::vector<serve::InferenceServer::AsyncItem>& submits);
  /// Runs the complete lines buffered in rbuf until the in-flight
  /// selects reach queue_capacity (then `throttled`) or quit.
  void ConsumeLines(Shard& shard, Conn& conn, int64_t now_us,
                    std::vector<serve::InferenceServer::AsyncItem>& submits);
  void ProcessLine(Shard& shard, Conn& conn, const std::string& line,
                   int64_t now_us,
                   std::vector<serve::InferenceServer::AsyncItem>& submits);
  void DrainCompletions(Shard& shard);
  void PushCompletion(Shard& shard, Completion completion);
  /// Moves ready slots into wbuf, writes what the socket accepts,
  /// updates epoll interest (EPOLLOUT, read pause/resume) and closes
  /// the connection when it is finished or broken.
  void FlushConn(Shard& shard, Conn& conn);
  void CloseConn(Shard& shard, Conn& conn);
  void EnqueueReady(Conn& conn, std::string line);
  /// EnqueueReady for a refusal traced like a select: its flight record
  /// lands when the reply is flushed. `trace` holds kTraceBytes chars.
  void EnqueueTraced(Conn& conn, std::string line,
                     obs::FlightRecord::Verdict verdict, int64_t ingress_us,
                     const char* trace);
  void LineOverflow(Shard& shard, Conn& conn);
  /// Records stage histograms and flight records for the traced slots
  /// parked in the shard's flush scratch, under one timestamp, and
  /// empties it.
  void RecordFlushed(Shard& shard);
  /// Renders the shedder's current state as a JSON object for "ops"
  /// snapshot replies.
  std::string ShedderJson() const;

  serve::InferenceServer* server_;
  NetServerOptions options_;
  Shedder shedder_;
  obs::FlightRecorder flight_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::pair<int, int> adopted_{-1, -1};  ///< {in, out} to serve at Start().
  int adopted_done_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};

  std::mutex lifecycle_mu_;
  bool started_ KDSEL_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ KDSEL_GUARDED_BY(lifecycle_mu_) = false;
};

}  // namespace kdsel::net

#endif  // KDSEL_NET_SERVER_H_
