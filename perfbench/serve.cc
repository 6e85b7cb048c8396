// Workload `serve`: the demo system's online selection over loopback TCP.
//
// Set-up trains the ConvNet fleet selector, registers it and its int8
// sibling (`fleet.int8`), and starts an InferenceServer (2 workers, the
// `kdsel serve` batching defaults) behind one NetServer shard. One
// client thread on 4 connections sends select-only requests
// (`detect:false`) that alternate between the fp32 and int8 variants.
// Every request carries a series no earlier request of the run carried,
// drawn from the 16 datagen families with 768-1280 points (12-20
// windows of 64); the client materializes each series just before
// sending it. The timed part has two phases: an open loop at a fixed
// rate (about a quarter of capacity), each request timed from its due
// time, then a saturating closed loop with 8 requests in flight per
// connection. After the run every OK reply's model_id is checked
// against the offline selection (Predict + VoteSeriesSelection) of the
// same series with the same variant.
//
//   latency_ms        median fixed-rate latency, from each due time,
//   throughput_per_s  closed-loop OK replies per second.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/selection.h"
#include "datagen/families.h"
#include "net/listener.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "ts/window.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Open-loop rate: about a quarter of the closed-loop capacity measured
/// on the reference host (4 vCPUs). Fixed, so a faster server shows as
/// lower latency at the same load rather than as a different load.
constexpr double kOpenRate = 300.0;
constexpr size_t kConnections = 4;
constexpr size_t kClosedWindow = 8;  ///< In flight per connection.
constexpr size_t kServeWorkers = 2;
constexpr int kWarmupBursts = 3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

enum class Phase { kWarmup = 0, kOpen = 1, kClosed = 2 };

kdsel::ts::WindowOptions FleetWindows() {
  kdsel::ts::WindowOptions wo;
  wo.length = kFleetWindow;
  wo.stride = kFleetWindow;
  wo.z_normalize = true;
  return wo;
}

/// The series of request `index`: family index mod 16, 768-1280 points.
kdsel::ts::TimeSeries RequestSeries(uint64_t seed, uint64_t index, bool tiny) {
  const auto& families = kdsel::datagen::AllFamilies();
  const uint64_t h = Mix(seed ^ 0x5e47e, index);
  const size_t length = tiny ? 128 + h % 129 : 768 + h % 513;
  kdsel::Rng rng(h);
  auto series = kdsel::datagen::GenerateSeries(
      families[index % families.size()], length, static_cast<size_t>(index),
      rng);
  if (!series.ok()) Die("request series: " + series.status().ToString());
  return std::move(series).value();
}

bool IsInt8(uint64_t index) { return index % 2 == 1; }

uint64_t HashValues(const std::vector<float>& values) {
  uint64_t h = 1469598103934665603ull;
  for (float v : values) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

struct Reply {
  uint64_t index = 0;
  int model_id = -1;
};

struct PhaseCounts {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t error = 0;
  uint64_t refused = 0;
  uint64_t unanswered = 0;
  /// Closed loop: times (since the phase start) of the OK replies that
  /// arrived before the deadline.
  std::vector<double> ok_at_s;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< Open loop: send time minus due time.
  double seconds = 0.0;
  double steal_pct = 0.0;
};

/// The single client thread's view of its connections.
class Client {
 public:
  Client(uint64_t seed, bool tiny, uint64_t* next_index,
         std::unordered_set<uint64_t>* seen, std::vector<Reply>* replies,
         Tracer* tracer)
      : seed_(seed),
        tiny_(tiny),
        next_index_(next_index),
        seen_(seen),
        replies_(replies),
        tracer_(tracer) {}

  kdsel::Status Connect(uint16_t port) {
    for (size_t i = 0; i < kConnections; ++i) {
      KDSEL_ASSIGN_OR_RETURN(int fd,
                             kdsel::net::ConnectTcp({"127.0.0.1", port}));
      KDSEL_RETURN_NOT_OK(kdsel::net::SetNonBlocking(fd));
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
    return kdsel::Status::OK();
  }

  void Close() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  /// Fixed-rate phase: `n` requests spaced 1/rate apart, round-robin over
  /// the connections, each timed from its due time.
  PhaseCounts OpenLoop(double rate, size_t n) {
    PhaseCounts pc;
    counts_ = &pc;
    phase_ = Phase::kOpen;
    const double interval_ns = 1e9 / rate;
    const uint64_t start = NowNsec() + 2'000'000;
    auto due = [&](size_t k) {
      return start +
             static_cast<uint64_t>(interval_ns * static_cast<double>(k));
    };
    const uint64_t deadline = due(n) + 5'000'000'000ull;
    const CpuTimes cpu0 = ReadCpuTimes();
    size_t k = 0;
    Prepare();
    for (;;) {
      uint64_t now = NowNsec();
      while (k < n && due(k) <= now) {
        pc.late_ms.push_back(static_cast<double>(now - due(k)) * 1e-6);
        Send(conns_[k % kConnections], due(k));
        ++k;
        Prepare();
        now = NowNsec();
      }
      if (k >= n && Outstanding() == 0) break;
      if (now >= deadline) break;
      const uint64_t wake = k < n ? due(k) : deadline;
      Poll(wake > now ? wake - now : 0);
    }
    pc.seconds = static_cast<double>(NowNsec() - start) * 1e-9;
    pc.steal_pct = StealPct(cpu0, ReadCpuTimes());
    Abandon();
    counts_ = nullptr;
    return pc;
  }

  /// Saturating phase: keeps `window` requests in flight per connection
  /// for `seconds`, then drains.
  PhaseCounts ClosedLoop(double seconds, size_t window, Phase phase) {
    PhaseCounts pc;
    counts_ = &pc;
    phase_ = phase;
    const uint64_t start = NowNsec();
    phase_start_ = start;
    deadline_ = start + static_cast<uint64_t>(seconds * 1e9);
    const CpuTimes cpu0 = ReadCpuTimes();
    refill_ = true;
    for (Conn& c : conns_) {
      for (size_t w = 0; w < window; ++w) {
        Prepare();
        Send(c, NowNsec());
      }
    }
    while (NowNsec() < deadline_) Poll(deadline_ - NowNsec());
    pc.seconds = static_cast<double>(NowNsec() - start) * 1e-9;
    pc.steal_pct = StealPct(cpu0, ReadCpuTimes());
    refill_ = false;
    const uint64_t drain_deadline = NowNsec() + 5'000'000'000ull;
    while (Outstanding() > 0 && NowNsec() < drain_deadline) {
      Poll(drain_deadline - NowNsec());
    }
    Abandon();
    counts_ = nullptr;
    return pc;
  }

  /// Traced requests carry a `trace` id and are recorded as spans.
  void set_traced(bool traced) { traced_ = traced; }
  bool duplicate() const { return duplicate_; }
  uint64_t stray() const { return stray_; }
  uint64_t bad_trace() const { return bad_trace_; }
  /// Mean client time to materialize and encode one request.
  double prepare_us() const {
    return prepared_ == 0
               ? 0.0
               : prepare_ns_ / 1e3 / static_cast<double>(prepared_);
  }

  /// Sends `n` requests at once (round-robin over the connections, one
  /// write per connection) and waits for every reply.
  PhaseCounts Burst(size_t n) {
    PhaseCounts pc;
    counts_ = &pc;
    phase_ = Phase::kWarmup;
    for (size_t i = 0; i < n; ++i) {
      Prepare();
      Conn& c = conns_[i % kConnections];
      c.wbuf += prepared_line_;
      c.inflight.push_back(Inflight{prepared_index_, NowNsec(), false});
      ++pc.sent;
    }
    for (Conn& c : conns_) Flush(c);
    const uint64_t deadline = NowNsec() + 5'000'000'000ull;
    while (Outstanding() > 0 && NowNsec() < deadline) {
      Poll(deadline - NowNsec());
    }
    Abandon();
    counts_ = nullptr;
    return pc;
  }

  /// Sends one control op on connection 0 (idle) and returns its reply.
  std::string Control(const std::string& line) {
    Conn& c = conns_[0];
    control_reply_.clear();
    awaiting_control_ = true;
    c.wbuf += line;
    c.wbuf += '\n';
    c.inflight.push_back(Inflight{UINT64_MAX, 0, true});
    const uint64_t deadline = NowNsec() + 5'000'000'000ull;
    while (awaiting_control_ && NowNsec() < deadline) {
      Poll(deadline - NowNsec());
    }
    return control_reply_;
  }

 private:
  struct Inflight {
    uint64_t index = 0;
    uint64_t due_ns = 0;
    bool control = false;
  };
  struct Conn {
    int fd = -1;
    std::string wbuf;
    size_t woff = 0;
    std::string rbuf;
    std::deque<Inflight> inflight;
  };

  /// Materializes the next request line (outside any timed interval of
  /// the open loop: it runs right after the previous send).
  void Prepare() {
    const uint64_t prepare_start = NowNsec();
    const uint64_t index = (*next_index_)++;
    kdsel::ts::TimeSeries series = RequestSeries(seed_, index, tiny_);
    if (!seen_->insert(HashValues(series.values())).second) duplicate_ = true;
    std::string& line = prepared_line_;
    line.clear();
    line += "{\"op\":\"select\",\"id\":";
    line += std::to_string(index);
    line += ",\"selector\":\"fleet\",\"variant\":\"";
    line += IsInt8(index) ? "int8" : "fp32";
    line += "\",\"detect\":false";
    if (traced_) line += ",\"trace\":\"r" + std::to_string(index) + "\"";
    line += ",\"values\":[";
    char buf[32];
    bool first = true;
    for (float v : series.values()) {
      if (!first) line.push_back(',');
      first = false;
      auto res = std::to_chars(buf, buf + sizeof(buf), v);
      line.append(buf, res.ptr);
    }
    line += "]}\n";
    prepared_index_ = index;
    prepare_ns_ += NowNsec() - prepare_start;
    ++prepared_;
  }

  void Send(Conn& c, uint64_t due_ns) {
    c.wbuf += prepared_line_;
    c.inflight.push_back(Inflight{prepared_index_, due_ns, false});
    ++counts_->sent;
    Flush(c);
  }

  void Flush(Conn& c) {
    while (c.woff < c.wbuf.size()) {
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
      if (n > 0) {
        c.woff += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;  // EAGAIN: POLLOUT resumes it.
      }
    }
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    }
  }

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.inflight.size();
    return n;
  }

  /// Requests still in flight at the end of a phase count as unanswered.
  void Abandon() {
    for (Conn& c : conns_) {
      for (const Inflight& f : c.inflight) {
        if (!f.control) ++counts_->unanswered;
      }
      c.inflight.clear();
    }
  }

  void Poll(uint64_t timeout_ns) {
    pollfd fds[kConnections];
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN;
      if (conns_[i].woff < conns_[i].wbuf.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
    const int ready = ::ppoll(fds, conns_.size(), &ts, nullptr);
    if (ready <= 0) return;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & POLLOUT) Flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) Read(conns_[i]);
    }
  }

  void Read(Conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.rbuf.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    const uint64_t now = NowNsec();
    size_t begin = 0;
    for (;;) {
      const size_t nl = c.rbuf.find('\n', begin);
      if (nl == std::string::npos) break;
      HandleLine(c, c.rbuf.substr(begin, nl - begin), now);
      begin = nl + 1;
    }
    c.rbuf.erase(0, begin);
  }

  void HandleLine(Conn& c, const std::string& line, uint64_t now) {
    if (c.inflight.empty()) {
      ++stray_;
      return;
    }
    const Inflight f = c.inflight.front();
    c.inflight.pop_front();
    if (f.control) {
      control_reply_ = line;
      awaiting_control_ = false;
      return;
    }
    auto doc = kdsel::serve::Json::Parse(line);
    const bool parsed = doc.ok() && doc->is_object();
    const bool ok = parsed && doc->GetBool("ok", false);
    const double id = parsed ? doc->GetNumber("id", -1.0) : -1.0;
    if (ok && id == static_cast<double>(f.index)) {
      ++counts_->ok;
      const double lat_ms = static_cast<double>(now - f.due_ns) * 1e-6;
      counts_->latency_ms.push_back(lat_ms);
      if (phase_ == Phase::kClosed && now < deadline_) {
        counts_->ok_at_s.push_back(static_cast<double>(now - phase_start_) *
                                   1e-9);
      }
      replies_->push_back(
          Reply{f.index, static_cast<int>(doc->GetNumber("model_id", -1))});
      if (traced_) {
        const std::string trace = doc->GetString("trace", "");
        if (trace != "r" + std::to_string(f.index)) ++bad_trace_;
        tracer_->Add(phase_ == Phase::kOpen ? "serve.request.open"
                                            : "serve.request.closed",
                     f.due_ns, now, trace);
      }
    } else if (parsed && doc->GetString("error", "").find("overloaded") !=
                             std::string::npos) {
      ++counts_->refused;
    } else {
      ++counts_->error;
      if (errors_logged_++ < 3) {
        std::fprintf(stderr, "[perfbench] serve error reply: %.200s\n",
                     line.c_str());
      }
    }
    if (refill_ && NowNsec() < deadline_) {
      Prepare();
      Send(c, NowNsec());
    }
  }

  uint64_t seed_;
  bool tiny_;
  bool traced_ = false;
  uint64_t* next_index_;
  std::unordered_set<uint64_t>* seen_;
  std::vector<Reply>* replies_;
  Tracer* tracer_;
  std::vector<Conn> conns_;
  PhaseCounts* counts_ = nullptr;
  Phase phase_ = Phase::kWarmup;
  uint64_t phase_start_ = 0;
  uint64_t deadline_ = 0;
  bool refill_ = false;
  std::string prepared_line_;
  uint64_t prepared_index_ = 0;
  std::string control_reply_;
  bool awaiting_control_ = false;
  bool duplicate_ = false;
  uint64_t stray_ = 0;
  uint64_t bad_trace_ = 0;
  uint64_t errors_logged_ = 0;
  double prepare_ns_ = 0.0;
  uint64_t prepared_ = 0;
};

/// One complete serving stack plus the client connected to it.
class ServeStack {
 public:
  ServeStack(const RunOptions& opts, uint64_t* next_index,
             std::unordered_set<uint64_t>* seen, std::vector<Reply>* replies,
             Tracer* tracer) {
    fp32_ = TrainFleetSelector(opts.seed, opts.tiny);
    // Calibrate int8 on windows of one series per family.
    std::vector<std::vector<float>> calibration;
    for (uint64_t i = 0; i < 16; ++i) {
      auto windows = kdsel::ts::ExtractWindows(
          RequestSeries(opts.seed ^ 0xca11b, i, opts.tiny), 0, FleetWindows());
      if (!windows.ok()) Die("calibration: " + windows.status().ToString());
      for (auto& w : *windows) calibration.push_back(std::move(w.values));
    }
    auto int8 = fp32_->QuantizeInt8(calibration);
    if (!int8.ok()) Die("quantize: " + int8.status().ToString());
    int8_ = std::move(int8).value();

    registry_ = std::make_unique<kdsel::serve::SelectorRegistry>(
        kdsel::core::SelectorManager(opts.out_dir + "/selectors"));
    auto fp32_copy = fp32_->Clone();
    auto int8_copy = int8_->Clone();
    if (!fp32_copy.ok() || !int8_copy.ok()) Die("clone failed");
    Check(registry_->Register("fleet", std::move(fp32_copy).value()));
    Check(registry_->Register("fleet.int8", std::move(int8_copy).value()));

    kdsel::serve::ServerOptions so;  // `kdsel serve` batching defaults.
    so.num_workers = kServeWorkers;
    server_ = std::make_unique<kdsel::serve::InferenceServer>(registry_.get(),
                                                              so);
    Check(server_->Start());
    kdsel::net::NetServerOptions no;
    no.listen = "127.0.0.1:0";
    no.shards = 1;
    net_ = std::make_unique<kdsel::net::NetServer>(server_.get(), no);
    Check(net_->Start());
    client_ = std::make_unique<Client>(opts.seed, opts.tiny, next_index, seen,
                                       replies, tracer);
    Check(client_->Connect(net_->port()));
    warmup_.push_back(
        client_->ClosedLoop(opts.tiny ? 0.2 : 0.5, 2, Phase::kWarmup));
    // Bursts fill micro-batches to max_batch, so every worker's buffers
    // reach their largest size during set-up instead of whenever a host
    // stall happens to pile requests up (which made the peak RSS swing
    // between 50 and 73 MB from run to run).
    for (int burst = 0; burst < kWarmupBursts; ++burst) {
      warmup_.push_back(client_->Burst(opts.tiny ? 16 : 64));
    }
  }

  ~ServeStack() {
    if (client_) client_->Close();
    if (net_) net_->Stop();  // Before the inference server, so it drains.
    if (server_) server_->Stop();
  }

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  Client& client() { return *client_; }
  kdsel::serve::InferenceServer& server() { return *server_; }
  const kdsel::core::TrainedSelector& fp32() const { return *fp32_; }
  const kdsel::core::TrainedSelector& int8() const { return *int8_; }
  const std::vector<PhaseCounts>& warmup() const { return warmup_; }

 private:
  static void Check(const kdsel::Status& status) {
    if (!status.ok()) Die("serve set-up: " + status.ToString());
  }

  std::unique_ptr<kdsel::core::TrainedSelector> fp32_;
  std::unique_ptr<kdsel::core::TrainedSelector> int8_;
  std::unique_ptr<kdsel::serve::SelectorRegistry> registry_;
  std::unique_ptr<kdsel::serve::InferenceServer> server_;
  std::unique_ptr<kdsel::net::NetServer> net_;
  std::unique_ptr<Client> client_;
  std::vector<PhaseCounts> warmup_;
};

/// Offline selection of every OK reply's series with the reply's
/// variant; returns the number of mismatching model ids.
uint64_t CountMismatches(const std::vector<Reply>& replies,
                         const ServeStack& stack, uint64_t seed, bool tiny) {
  constexpr size_t kCheckThreads = 4;
  std::vector<uint64_t> mismatches(kCheckThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&, t] {
      // Forward passes cache activations: one private copy per thread.
      auto fp32 = stack.fp32().Clone();
      auto int8 = stack.int8().Clone();
      if (!fp32.ok() || !int8.ok()) {
        mismatches[t] = replies.size();
        return;
      }
      for (size_t i = t; i < replies.size(); i += kCheckThreads) {
        const Reply& r = replies[i];
        auto windows = kdsel::ts::ExtractWindows(
            RequestSeries(seed, r.index, tiny), 0, FleetWindows());
        if (!windows.ok()) {
          ++mismatches[t];
          continue;
        }
        std::vector<std::vector<float>> rows;
        rows.reserve(windows->size());
        for (auto& w : *windows) rows.push_back(std::move(w.values));
        auto preds = (IsInt8(r.index) ? **int8 : **fp32).Predict(rows);
        if (!preds.ok()) {
          ++mismatches[t];
          continue;
        }
        auto vote = kdsel::core::VoteSeriesSelection(*preds, kFleetClasses);
        if (!vote.ok() || vote->model != r.model_id) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (uint64_t m : mismatches) total += m;
  return total;
}

/// p50 of a net stage histogram from an `ops` snapshot reply, in ms.
double StageP50Ms(const kdsel::serve::Json& ops, const std::string& stage) {
  const auto* metrics = ops.Find("metrics");
  const auto* hists = metrics ? metrics->Find("histograms") : nullptr;
  const auto* h = hists ? hists->Find("kdsel.net.stage." + stage) : nullptr;
  return h ? h->GetNumber("p50", 0.0) / 1e3 : 0.0;
}

struct PassResult {
  PhaseCounts open;
  PhaseCounts closed;
  double serve_rps = 0.0;
  double p50_ms = 0.0;
  double steal_pct = 0.0;  ///< Over both phases.
  // Traced pass only.
  double mean_batch_open = 0.0;
  double mean_batch_closed = 0.0;
  std::map<std::string, double> stage_ms;  ///< "<stage>.<phase>" -> p50.
};

/// Closed-loop OK replies per second: the median over 0.5-s blocks of
/// the phase, so one slow host episode does not move it.
double ClosedLoopRps(const PhaseCounts& pc) {
  constexpr double kBlockS = 0.5;
  const size_t blocks = static_cast<size_t>(pc.seconds / kBlockS);
  if (blocks == 0) {
    return static_cast<double>(pc.ok_at_s.size()) / pc.seconds;
  }
  std::vector<double> count(blocks, 0.0);
  for (double t : pc.ok_at_s) {
    const size_t b = static_cast<size_t>(t / kBlockS);
    if (b < blocks) count[b] += 1.0;
  }
  return Median(count) / kBlockS;
}

double BatchedRequests(const kdsel::serve::ServerStats& stats) {
  return stats.MeanBatchSize() * static_cast<double>(stats.batches());
}

PassResult RunPass(ServeStack& stack, double seconds, bool tiny, bool traced,
                   Tracer& tracer) {
  PassResult pr;
  auto& reg = kdsel::obs::MetricsRegistry::Global();
  auto reset_stages = [&] {
    for (const char* s : {"queue", "batch_wait", "compute", "write"}) {
      reg.GetHistogram(std::string("kdsel.net.stage.") + s).Reset();
    }
  };
  auto scrape = [&](const std::string& phase) {
    const std::string reply = stack.client().Control(
        "{\"op\":\"ops\",\"id\":-1,\"view\":\"snapshot\"}");
    auto doc = kdsel::serve::Json::Parse(reply);
    if (!doc.ok()) return;
    for (const char* s : {"queue", "batch_wait", "compute", "write"}) {
      pr.stage_ms[std::string(s) + "." + phase] = StageP50Ms(*doc, s);
    }
  };
  const auto& stats = stack.server().stats();

  stack.client().set_traced(traced);
  const CpuTimes cpu0 = ReadCpuTimes();
  const double open_s = seconds / 2.0;
  const double rate = tiny ? 100.0 : kOpenRate;
  if (traced) reset_stages();
  double batches0 = static_cast<double>(stats.batches());
  double batched0 = BatchedRequests(stats);
  const int64_t open_span = traced ? tracer.Begin("serve.phase.open") : -1;
  pr.open = stack.client().OpenLoop(rate, static_cast<size_t>(rate * open_s));
  tracer.End(open_span);
  if (traced) {
    pr.mean_batch_open = (BatchedRequests(stats) - batched0) /
                         std::max(1.0, stats.batches() - batches0);
    scrape("open");
    reset_stages();
  }
  batches0 = static_cast<double>(stats.batches());
  batched0 = BatchedRequests(stats);
  const int64_t closed_span =
      traced ? tracer.Begin("serve.phase.closed") : -1;
  pr.closed = stack.client().ClosedLoop(seconds - open_s, kClosedWindow,
                                        Phase::kClosed);
  tracer.End(closed_span);
  if (traced) {
    pr.mean_batch_closed = (BatchedRequests(stats) - batched0) /
                           std::max(1.0, stats.batches() - batches0);
    scrape("closed");
  }
  pr.steal_pct = StealPct(cpu0, ReadCpuTimes());
  pr.serve_rps = ClosedLoopRps(pr.closed);
  pr.p50_ms = Median(pr.open.latency_ms);
  return pr;
}

void AddCounts(const PhaseCounts& pc, Outcome& out) {
  out.attempted += pc.sent;
  out.failed += pc.error + pc.refused + pc.unanswered;
}

void CountDiagnostics(const PassResult& pr, Outcome& out) {
  const PhaseCounts* phases[] = {&pr.open, &pr.closed};
  double sent = 0, ok = 0, error = 0, refused = 0, unanswered = 0;
  for (const PhaseCounts* pc : phases) {
    sent += static_cast<double>(pc->sent);
    ok += static_cast<double>(pc->ok);
    error += static_cast<double>(pc->error);
    refused += static_cast<double>(pc->refused);
    unanswered += static_cast<double>(pc->unanswered);
  }
  out.Diag("serve.sent", sent);
  out.Diag("serve.ok", ok);
  out.Diag("serve.error", error);
  out.Diag("serve.refused", refused);
  out.Diag("serve.unanswered", unanswered);
}

}  // namespace

Outcome RunServe(const RunOptions& opts) {
  Outcome out;
  Tracer tracer(opts.trace);
  uint64_t next_index = 0;
  std::unordered_set<uint64_t> seen;
  std::vector<Reply> replies;

  // Set up kSetups times; the median is the set-up time, the last stack
  // is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  double t0 = opts.process_start_s;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    stack = std::make_unique<ServeStack>(opts, &next_index, &seen, &replies,
                                         &tracer);
    for (const PhaseCounts& pc : stack->warmup()) AddCounts(pc, out);
    const double now = NowS();
    setup_s.push_back(now - t0);
    t0 = now;
  }
  const double seconds = opts.tiny ? 1.0 : opts.seconds;

  // Untraced pass: the trace field and request spans stay off.
  const PassResult pass =
      RunPass(*stack, seconds, opts.tiny, /*traced=*/false, tracer);
  // Peak before the traced pass and the correctness check.
  const double rss_mb = PeakRssMb();
  AddCounts(pass.open, out);
  AddCounts(pass.closed, out);
  out.Diag("timed_steal_pct", pass.steal_pct);

  out.E2e("setup_s", Median(setup_s), "s");
  out.E2e("latency_ms", pass.p50_ms, "ms");
  out.E2e("throughput_per_s", pass.serve_rps, "1/s");
  const size_t n = pass.open.latency_ms.size();
  const double tail_q = TailQuantile(n);
  out.Diag("open_samples", static_cast<double>(n));
  out.Diag("open_p99_ms", Quantile(pass.open.latency_ms, 0.99));
  out.Diag("open_p999_ms", Quantile(pass.open.latency_ms, 0.999));
  out.Diag("open_tail_q", tail_q);
  out.Diag("open_tail_ms", Quantile(pass.open.latency_ms, tail_q));
  out.Diag("generator_late_max_ms",
           pass.open.late_ms.empty()
               ? 0.0
               : *std::max_element(pass.open.late_ms.begin(),
                                   pass.open.late_ms.end()));
  out.Diag("generator_late_p99_ms", Quantile(pass.open.late_ms, 0.99));
  out.Diag("open_steal_pct", pass.open.steal_pct);
  out.Diag("closed_steal_pct", pass.closed.steal_pct);
  out.Diag("closed_ok", static_cast<double>(pass.closed.ok));
  out.Diag("closed_total_rps", static_cast<double>(pass.closed.ok_at_s.size()) /
                                   pass.closed.seconds);
  out.Diag("closed_p50_ms", Median(pass.closed.latency_ms));
  CountDiagnostics(pass, out);

  std::unique_ptr<LayerCounters> counters;
  if (opts.trace) {
    counters = std::make_unique<LayerCounters>();
    auto& select = stack->server().stats().endpoint(
        kdsel::serve::ServerStats::Endpoint::kSelect);
    select.selection.Reset();
    kdsel::obs::StartTracing();
    PassResult traced =
        RunPass(*stack, seconds, opts.tiny, /*traced=*/true, tracer);
    kdsel::obs::StopTracing();
    AddCounts(traced.open, out);
    AddCounts(traced.closed, out);
    // The serve and net layers run only in this workload, so their
    // breakdown goes to the diagnostics line of the traced run.
    for (const auto& [key, ms] : traced.stage_ms) {
      const size_t dot = key.find('.');
      out.Diag("net.stage." + key.substr(0, dot) + "_ms." + key.substr(dot + 1),
               ms);
    }
    out.Diag("serve.mean_batch.open", traced.mean_batch_open);
    out.Diag("serve.mean_batch.closed", traced.mean_batch_closed);
    out.Diag("serve.selection_ms", select.selection.Percentile(0.5) / 1e3);
    out.Diag("traced_open_p99_ms", Quantile(traced.open.latency_ms, 0.99));
    out.Diag("traced_open_samples",
             static_cast<double>(traced.open.latency_ms.size()));
    out.Layer("host.steal_pct", traced.steal_pct, "%");
    out.Layer("obs.trace_overhead_pct.latency_ms",
              100.0 * (traced.p50_ms - pass.p50_ms) / pass.p50_ms, "%");
    out.Layer("obs.trace_overhead_pct.throughput_per_s",
              100.0 * (pass.serve_rps - traced.serve_rps) / pass.serve_rps,
              "%");
    if (stack->client().bad_trace() > 0) {
      out.Fail("replies did not echo the request's trace id");
    }
  }

  // Correctness: every OK reply against the offline selection.
  if (opts.tamper_model_id && !replies.empty()) {
    Reply& r = replies[replies.size() / 2];
    r.model_id = (r.model_id + 1) % static_cast<int>(kFleetClasses);
  }
  if (stack->client().duplicate()) out.Fail("a series repeated within the run");
  const auto& stats = stack->server().stats();
  const double rows_per_unique =
      static_cast<double>(stats.rows_total()) /
      std::max<double>(1.0, static_cast<double>(stats.rows_unique()));
  out.Diag("rows_per_unique", rows_per_unique);
  if (rows_per_unique > 1.05) {
    out.Fail("coalescing found repeated windows in distinct-series traffic");
  }
  out.Diag("serve_workers", static_cast<double>(kServeWorkers));
  out.Diag("net_shards", 1.0);
  out.Diag("connections", static_cast<double>(kConnections));
  if (stack->client().stray() > 0) out.Fail("reply without a request");
  if (pass.closed.ok_at_s.empty()) out.Fail("no closed-loop reply");
  const double check_t0 = NowS();
  const uint64_t mismatches =
      CountMismatches(replies, *stack, opts.seed, opts.tiny);
  out.Diag("checked_replies", static_cast<double>(replies.size()));
  out.Diag("client_prepare_us", stack->client().prepare_us());
  out.Diag("check_s", NowS() - check_t0);
  if (mismatches > 0) {
    out.Fail(std::to_string(mismatches) +
             " replies' model_id differ from the offline selection");
  }
  stack.reset();

  if (opts.trace) {
    // With the server stopped: the selector's training and the shared
    // layer probes.
    ProbeFleet(opts, tracer, out);
    counters->Report(out);
    const std::string path = opts.out_dir + "/trace-serve-" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.Write(path)) out.Fail("cannot write " + path);
    out.Diag("trace_file", path);
  }
  out.E2e("rss_mb", rss_mb, "MB");
  return out;
}

}  // namespace perfbench
