// Multi-process closed-loop load driver for the network serving layer.
//
// The default mode trains a small ConvNet selector, stands up the full
// serving stack in-process (InferenceServer + net::NetServer on a
// loopback ephemeral port) and forks N client processes — fork+exec of
// this same binary in --connect mode — that drive pipelined NDJSON over
// TCP. Each child streams its raw per-request latencies back through an
// inherited pipe; the parent merges them and reports client-observed
// p50/p99/p999, throughput and shed rate into BENCH_serving.json.
//
// Two configurations run back to back:
//   capacity  no SLO, minimal payload (one selector window/request,
//             small hot pool so batches coalesce): peak sustained req/s.
//   overload  demand engineered past what one machine serves within the
//             --slo-ms target: the shedder must reject (shed > 0) while
//             the latency of *accepted* requests stays near the SLO.
//
// Modes:
//   (default)             driver: servers + forked clients, JSON report
//   --connect HOST:PORT   client only (used by the forked children and
//                         by the CI loopback smoke job)
//   --export-selector DIR train the bench selector, save as "bench",
//                         exit (lets CI start `kdsel serve --dir DIR`)
//
// Flags:
//   --requests N     capacity-run total requests (default 100000;
//                    overload runs 2N). In --connect mode: requests
//                    this client sends.
//   --clients C      client processes per run (default 2)
//   --pipeline D     in-flight requests per client (default 256)
//   --series-len L   values per request (default 16 = one window)
//   --pool K         distinct hot series cycled through (default 4)
//   --slo-ms M       overload-run SLO (default 10.0)
//   --latency-fd FD  (child only) pipe fd for the binary latency blob

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_report.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "net/listener.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace kdsel {
namespace {

constexpr size_t kWindow = 16;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<core::TrainedSelector> TrainBenchSelector() {
  core::SelectorTrainingData data;
  data.num_classes = 2;
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    const int c = i % 2;
    std::vector<float> w(kWindow);
    for (size_t t = 0; t < kWindow; ++t) {
      w[t] = std::sin((0.3 + 0.9 * c) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    data.windows.push_back(std::move(w));
    data.labels.push_back(c);
  }
  core::TrainerOptions opts;
  opts.backbone = "ConvNet";
  opts.epochs = 2;
  opts.seed = 7;
  auto selector = core::TrainSelector(data, opts, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

/// Precomputes the request pool as fully formatted NDJSON lines (id 0
/// throughout: replies come back in submission order per connection, so
/// clients match them to send timestamps FIFO instead of by id).
std::vector<std::string> MakeRequestLines(size_t pool, size_t series_len) {
  std::vector<std::string> lines;
  Rng rng(99);
  for (size_t i = 0; i < pool; ++i) {
    std::string line =
        R"({"id":0,"op":"select","selector":"bench","detect":false,"values":[)";
    const double freq = 0.1 + 0.05 * static_cast<double>(i);
    for (size_t t = 0; t < series_len; ++t) {
      if (t > 0) line.push_back(',');
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.4f",
                    std::sin(freq * static_cast<double>(t)) +
                        0.01 * rng.Normal());
      line += buffer;
    }
    line += "]}\n";
    lines.push_back(std::move(line));
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Client side (runs inside the forked children and in --connect mode).

struct ClientStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  std::vector<double> latencies_us;  ///< Accepted (ok) replies only.
};

void WriteAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = write(fd, data + off, size - off);
    if (n < 0 && errno == EINTR) continue;
    KDSEL_CHECK(n > 0);
    off += static_cast<size_t>(n);
  }
}

/// Closed-loop pipelined client: keeps `pipeline` requests in flight,
/// classifies each reply (ok / shed / error) and records the accepted
/// replies' client-observed latency.
ClientStats RunClient(int fd, const std::vector<std::string>& lines,
                      size_t requests, size_t pipeline) {
  ClientStats stats;
  stats.latencies_us.reserve(requests);
  std::deque<double> send_times;
  std::string inbuf;
  size_t next = 0;
  size_t done = 0;
  char buffer[64 * 1024];

  bool saturated = false;
  while (done < requests) {
    if (saturated) {
      // Back off when the server shed an entire reply window: hammering
      // an overloaded server with instant retries only burns the CPU it
      // needs to drain (and on a shared machine, starves it outright).
      usleep(5000);
      saturated = false;
    }
    if (next < requests && send_times.size() < pipeline) {
      // Batch the whole open window into one write(2): syscall cost is
      // what limits a loopback closed loop, not bytes.
      std::string out;
      const double now = NowUs();
      while (next < requests && send_times.size() < pipeline) {
        out += lines[next % lines.size()];
        send_times.push_back(now);
        ++next;
        ++stats.sent;
      }
      WriteAll(fd, out.data(), out.size());
    }
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // Server closed (drain on shutdown) or died.
    inbuf.append(buffer, static_cast<size_t>(n));
    size_t start = 0;
    size_t pass_ok = 0;
    size_t pass_shed = 0;
    for (;;) {
      const size_t newline = inbuf.find('\n', start);
      if (newline == std::string::npos) break;
      const std::string_view line(inbuf.data() + start, newline - start);
      start = newline + 1;
      const double latency_us = NowUs() - send_times.front();
      send_times.pop_front();
      ++done;
      if (line.find("\"ok\":true") != std::string_view::npos) {
        ++stats.ok;
        ++pass_ok;
        stats.latencies_us.push_back(latency_us);
      } else if (line.find("\"error\":\"overloaded\"") !=
                 std::string_view::npos) {
        ++stats.shed;
        ++pass_shed;
      } else {
        ++stats.errors;
      }
    }
    inbuf.erase(0, start);
    saturated = pass_shed > 0 && pass_ok == 0;
  }
  return stats;
}

/// Child -> parent latency blob: five uint64 counters, then the raw
/// latency array. Written once, at exit, so the hot loop never blocks on
/// a full pipe.
void WriteLatencyBlob(int fd, const ClientStats& stats) {
  const uint64_t header[5] = {stats.sent, stats.ok, stats.shed, stats.errors,
                              stats.latencies_us.size()};
  WriteAll(fd, reinterpret_cast<const char*>(header), sizeof(header));
  WriteAll(fd, reinterpret_cast<const char*>(stats.latencies_us.data()),
           stats.latencies_us.size() * sizeof(double));
}

int RunConnectMode(const std::string& address, size_t requests,
                   size_t pipeline, size_t pool, size_t series_len,
                   int latency_fd) {
  auto host_port = net::ParseHostPort(address);
  if (!host_port.ok()) {
    std::fprintf(stderr, "bench_serving: %s\n",
                 host_port.status().ToString().c_str());
    return 2;
  }
  // The driver execs children right after Start(); a short retry window
  // also lets the CI smoke job race the server's startup.
  int fd = -1;
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto connected = net::ConnectTcp(*host_port);
    if (connected.ok()) {
      fd = *connected;
      break;
    }
    usleep(100 * 1000);
  }
  if (fd < 0) {
    std::fprintf(stderr, "bench_serving: cannot connect to %s\n",
                 address.c_str());
    return 2;
  }

  const auto lines = MakeRequestLines(pool, series_len);
  const ClientStats stats = RunClient(fd, lines, requests, pipeline);
  close(fd);

  if (latency_fd >= 0) {
    WriteLatencyBlob(latency_fd, stats);
    close(latency_fd);
    return 0;
  }
  const uint64_t done = stats.ok + stats.shed + stats.errors;
  std::printf("bench_serving connect: sent=%llu replies=%llu ok=%llu "
              "shed=%llu errors=%llu\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.errors));
  return (done == stats.sent && stats.errors == 0) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Driver side.

struct NetConfig {
  std::string name;
  size_t requests = 0;  ///< Total across all clients.
  size_t clients = 2;
  size_t pipeline = 64;
  size_t series_len = kWindow;
  size_t pool = 4;
  double slo_ms = 0.0;
  size_t shards = 1;
  serve::ServerOptions server;
};

struct NetRunResult {
  double wall_seconds = 0.0;
  ClientStats merged;
  uint64_t server_shed = 0;
  double mean_batch = 0.0;
  double coalesce = 1.0;
  std::string ops_snapshot;  ///< "ops" snapshot reply scraped over TCP.
  std::string ops_flight;    ///< "ops" flight reply scraped over TCP.
};

/// Client-observed percentiles go through obs::Histogram::Percentile —
/// the same estimator (bucket resolution, midpoint rule) the server's
/// stage histograms use — so driver-side and ops-snapshot quantiles are
/// directly comparable instead of mixing rank math with bucket math.
double PercentileMs(const obs::Histogram& hist, double q) {
  return hist.Percentile(q) / 1000.0;
}

/// Fetches one "ops" view from a running NetServer over a short-lived
/// loopback connection; returns the reply line (empty on any failure —
/// the bench report simply omits the derived metrics then).
std::string FetchOpsView(uint16_t port, const std::string& view) {
  auto host_port = net::ParseHostPort("127.0.0.1:" + std::to_string(port));
  if (!host_port.ok()) return std::string();
  auto connected = net::ConnectTcp(*host_port);
  if (!connected.ok()) return std::string();
  const int fd = *connected;
  const std::string request = "{\"op\":\"ops\",\"id\":0,\"view\":\"" + view +
                              "\"}\n{\"op\":\"quit\"}\n";
  WriteAll(fd, request.data(), request.size());
  std::string reply;
  char buffer[64 * 1024];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  const size_t newline = reply.find('\n');
  if (newline == std::string::npos) return std::string();
  reply.resize(newline);
  return reply;
}

void ReadAll(int fd, char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = read(fd, data + off, size - off);
    if (n < 0 && errno == EINTR) continue;
    KDSEL_CHECK(n > 0);
    off += static_cast<size_t>(n);
  }
}

/// fork+exec one client child; returns {pid, read end of its pipe}.
std::pair<pid_t, int> SpawnClient(const std::string& self_path,
                                  const NetConfig& config, uint16_t port,
                                  size_t requests) {
  int pipe_fds[2];
  KDSEL_CHECK(pipe(pipe_fds) == 0);  // Blocking, inherited across exec.
  const pid_t pid = fork();
  KDSEL_CHECK(pid >= 0);
  if (pid == 0) {
    close(pipe_fds[0]);
    const std::vector<std::string> args = {
        self_path,
        "--connect",    "127.0.0.1:" + std::to_string(port),
        "--requests",   std::to_string(requests),
        "--pipeline",   std::to_string(config.pipeline),
        "--series-len", std::to_string(config.series_len),
        "--pool",       std::to_string(config.pool),
        "--latency-fd", std::to_string(pipe_fds[1]),
    };
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    execv(self_path.c_str(), argv.data());
    _exit(127);  // exec failed; async-signal-safe exit only.
  }
  close(pipe_fds[1]);
  return {pid, pipe_fds[0]};
}

NetRunResult RunNetConfig(serve::SelectorRegistry& registry,
                          const std::string& self_path,
                          const NetConfig& config) {
  // Stage/e2e histograms live in the process-global registry; zero them
  // so each config's ops snapshot covers exactly that config's load.
  obs::MetricsRegistry::Global().ResetValuesForTesting();
  serve::InferenceServer server(&registry, config.server);
  KDSEL_CHECK(server.Start().ok());
  net::NetServerOptions net_opts;
  net_opts.listen = "127.0.0.1:0";
  net_opts.shards = config.shards;
  net_opts.slo_ms = config.slo_ms;
  // Overload runs live or die on controller responsiveness: evaluate
  // often so the pre-shed transient stays a tiny fraction of samples.
  net_opts.shedder.eval_interval_us = 5000;
  net::NetServer net(&server, net_opts);
  KDSEL_CHECK(net.Start().ok());

  const size_t per_client = config.requests / config.clients;
  std::vector<std::pair<pid_t, int>> children;
  const double start_us = NowUs();
  for (size_t c = 0; c < config.clients; ++c) {
    children.push_back(SpawnClient(self_path, config, net.port(), per_client));
  }

  NetRunResult result;
  // Drain every pipe before waitpid: a child's latency blob can exceed
  // the pipe capacity, and it only exits once the blob is fully read.
  for (auto& [pid, fd] : children) {
    uint64_t header[5];
    ReadAll(fd, reinterpret_cast<char*>(header), sizeof(header));
    result.merged.sent += header[0];
    result.merged.ok += header[1];
    result.merged.shed += header[2];
    result.merged.errors += header[3];
    std::vector<double> latencies(header[4]);
    ReadAll(fd, reinterpret_cast<char*>(latencies.data()),
            latencies.size() * sizeof(double));
    close(fd);
    result.merged.latencies_us.insert(result.merged.latencies_us.end(),
                                      latencies.begin(), latencies.end());
  }
  for (auto& [pid, fd] : children) {
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    KDSEL_CHECK(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }
  result.wall_seconds = (NowUs() - start_us) / 1e6;

  // Scrape the live telemetry endpoint while the server is still up:
  // this is the same wire path `kdsel ops --connect` uses, so the bench
  // doubles as an end-to-end exercise of the "ops" op under real load.
  result.ops_snapshot = FetchOpsView(net.port(), "snapshot");
  result.ops_flight = FetchOpsView(net.port(), "flight");

  net.Stop();
  server.Stop();
  result.server_shed = server.stats().shed();
  result.mean_batch = server.stats().MeanBatchSize();
  if (server.stats().rows_unique() > 0) {
    result.coalesce = static_cast<double>(server.stats().rows_total()) /
                      static_cast<double>(server.stats().rows_unique());
  }
  return result;
}

int RunDriver(size_t requests, size_t clients, size_t pipeline,
              double slo_ms) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  KDSEL_CHECK(n > 0);
  exe[n] = '\0';
  const std::string self_path(exe);

  serve::SelectorRegistry registry{
      core::SelectorManager("/tmp/kdsel_bench_serving")};
  KDSEL_CHECK(registry.Register("bench", TrainBenchSelector()).ok());

  NetConfig capacity;
  capacity.name = "capacity";
  capacity.requests = requests;
  capacity.clients = clients;
  capacity.pipeline = pipeline;
  capacity.series_len = kWindow;  // One window/request: peak rate.
  capacity.pool = 4;
  capacity.slo_ms = 0.0;
  capacity.server.num_workers = 1;
  capacity.server.max_batch = 512;
  capacity.server.queue_capacity = 16384;

  NetConfig overload;
  overload.name = "overload";
  // Shed replies are cheap, so the overload run needs many more
  // offered requests than the capacity run to sustain load for seconds.
  overload.requests = std::max<size_t>(2 * requests, 4000);
  overload.clients = std::max<size_t>(clients, 4);
  // A modest per-client window: overload comes from client count times
  // demand rate, not from one enormous pipelined burst whose replies
  // would dominate the latency measurement.
  overload.pipeline = 4;
  // Heavier payload (4 windows) over a wide pool defeats coalescing, so
  // offered demand genuinely exceeds single-machine capacity at the SLO.
  // The submit queue is kept shallow on purpose: the queue bound and the
  // SLO shedder are the two halves of the overload contract — the bound
  // caps how much latency admitted requests can accumulate, the shedder
  // adapts when per-request cost drifts past what the bound assumed.
  overload.series_len = 4 * kWindow;
  overload.pool = 64;
  overload.slo_ms = slo_ms;
  overload.server.num_workers = 1;
  overload.server.max_batch = 4;
  overload.server.queue_capacity = 4;

  bench::BenchReport report("serving");
  std::printf("bench_serving: requests=%zu clients=%zu pipeline=%zu "
              "slo_ms=%.2f\n\n",
              requests, clients, pipeline, slo_ms);
  std::printf("%-10s %9s %9s %8s %8s %8s %9s %9s %7s\n", "config", "req/s",
              "p50ms", "p99ms", "p999ms", "shed", "shedrate", "coalesce",
              "errors");

  for (const NetConfig* config : {&capacity, &overload}) {
    // Warm-up primes the shared pool's workspace buffers, the allocator
    // and the branch predictors (each run builds a fresh server).
    NetConfig warm = *config;
    warm.requests = std::min<size_t>(config->requests / 10, 5000);
    warm.slo_ms = 0.0;
    (void)RunNetConfig(registry, self_path, warm);

    const NetRunResult r = RunNetConfig(registry, self_path, *config);
    const uint64_t replies = r.merged.ok + r.merged.shed + r.merged.errors;
    const double req_per_s =
        static_cast<double>(r.merged.ok) / r.wall_seconds;
    const double shed_rate =
        replies > 0 ? static_cast<double>(r.merged.shed) /
                          static_cast<double>(replies)
                    : 0.0;
    obs::Histogram latency_hist;
    for (const double us : r.merged.latencies_us) latency_hist.Record(us);
    const double p50 = PercentileMs(latency_hist, 0.50);
    const double p99 = PercentileMs(latency_hist, 0.99);
    const double p999 = PercentileMs(latency_hist, 0.999);
    std::printf("%-10s %9.0f %9.3f %8.3f %8.3f %8llu %8.1f%% %8.2fx %7llu\n",
                config->name.c_str(), req_per_s, p50, p99, p999,
                static_cast<unsigned long long>(r.merged.shed),
                100.0 * shed_rate, r.coalesce,
                static_cast<unsigned long long>(r.merged.errors));

    // Stage decomposition from the scraped ops snapshot: the per-stage
    // p50s should roughly add up to the server-observed end-to-end p50
    // (the acceptance bound is 20%; client-observed p50 above includes
    // client-side queueing on top, so compare server e2e, not p50_ms).
    double stage_p50_us[4] = {0.0, 0.0, 0.0, 0.0};
    double stage_p50_sum_us = 0.0;
    double e2e_p50_us = 0.0;
    double flight_slowest_us = 0.0;
    double flight_recorded = 0.0;
    static constexpr const char* kStages[4] = {
        "kdsel.net.stage.queue", "kdsel.net.stage.batch_wait",
        "kdsel.net.stage.compute", "kdsel.net.stage.write"};
    if (auto snapshot = serve::Json::Parse(r.ops_snapshot); snapshot.ok()) {
      if (const serve::Json* metrics = snapshot->Find("metrics")) {
        if (const serve::Json* hists = metrics->Find("histograms")) {
          for (size_t s = 0; s < 4; ++s) {
            if (const serve::Json* h = hists->Find(kStages[s])) {
              stage_p50_us[s] = h->GetNumber("p50", 0.0);
              stage_p50_sum_us += stage_p50_us[s];
            }
          }
          if (const serve::Json* h = hists->Find("kdsel.net.e2e")) {
            e2e_p50_us = h->GetNumber("p50", 0.0);
          }
        }
      }
    }
    if (auto dump = serve::Json::Parse(r.ops_flight); dump.ok()) {
      if (const serve::Json* flight = dump->Find("flight")) {
        flight_recorded = flight->GetNumber("recorded", 0.0);
        if (const serve::Json* slowest = flight->Find("slowest");
            slowest != nullptr && slowest->is_array() &&
            !slowest->items().empty()) {
          flight_slowest_us = slowest->items().front().GetNumber("total_us",
                                                                 0.0);
        }
      }
    }
    const double driver_max_us =
        r.merged.latencies_us.empty()
            ? 0.0
            : *std::max_element(r.merged.latencies_us.begin(),
                                r.merged.latencies_us.end());
    std::printf("  ops: stage p50 q=%.0f bw=%.0f c=%.0f w=%.0f sum %.1fus vs "
                "e2e p50 %.1fus; flight recorded %.0f, slowest %.1fus "
                "(driver max %.1fus)\n",
                stage_p50_us[0], stage_p50_us[1], stage_p50_us[2],
                stage_p50_us[3], stage_p50_sum_us, e2e_p50_us, flight_recorded,
                flight_slowest_us, driver_max_us);

    bench::BenchEntry entry;
    entry.name = config->name;
    entry.threads = config->clients;
    entry.wall_seconds = r.wall_seconds;
    entry.items = static_cast<double>(r.merged.ok);
    entry.items_unit = "requests";
    entry.metrics["req_per_s"] = req_per_s;
    entry.metrics["p50_ms"] = p50;
    entry.metrics["p99_ms"] = p99;
    entry.metrics["p999_ms"] = p999;
    entry.metrics["shed"] = static_cast<double>(r.merged.shed);
    entry.metrics["shed_rate"] = shed_rate;
    entry.metrics["slo_ms"] = config->slo_ms;
    entry.metrics["ok"] = static_cast<double>(r.merged.ok);
    entry.metrics["errors"] = static_cast<double>(r.merged.errors);
    entry.metrics["coalesce"] = r.coalesce;
    entry.metrics["mean_batch"] = r.mean_batch;
    entry.metrics["stage_p50_sum_us"] = stage_p50_sum_us;
    entry.metrics["e2e_p50_us"] = e2e_p50_us;
    entry.metrics["flight_recorded"] = flight_recorded;
    entry.metrics["flight_slowest_us"] = flight_slowest_us;
    report.Add(std::move(entry));
  }

  auto written = report.Write();
  if (written.ok()) {
    std::printf("\nreport written to %s\n", written->c_str());
  } else {
    std::fprintf(stderr, "bench_serving: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  size_t requests = 100000;
  size_t clients = 2;
  size_t pipeline = 256;
  size_t series_len = kWindow;
  size_t pool = 4;
  double slo_ms = 10.0;
  int latency_fd = -1;
  std::string connect_address;
  std::string export_dir;

  const auto parse_flag = [](const char* flag, const char* text) {
    auto value = ParseSize(text);
    if (!value.ok()) {
      std::fprintf(stderr, "invalid integer for %s: '%s'\n", flag, text);
      std::exit(2);
    }
    return *value;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = parse_flag("--requests", argv[++i]);
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = parse_flag("--clients", argv[++i]);
    } else if (std::strcmp(argv[i], "--pipeline") == 0 && i + 1 < argc) {
      pipeline = parse_flag("--pipeline", argv[++i]);
    } else if (std::strcmp(argv[i], "--series-len") == 0 && i + 1 < argc) {
      series_len = parse_flag("--series-len", argv[++i]);
    } else if (std::strcmp(argv[i], "--pool") == 0 && i + 1 < argc) {
      pool = parse_flag("--pool", argv[++i]);
    } else if (std::strcmp(argv[i], "--slo-ms") == 0 && i + 1 < argc) {
      slo_ms = std::strtod(argv[++i], nullptr);  // kdsel-lint: allow(raw-parse)
    } else if (std::strcmp(argv[i], "--latency-fd") == 0 && i + 1 < argc) {
      latency_fd = static_cast<int>(parse_flag("--latency-fd", argv[++i]));
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_address = argv[++i];
    } else if (std::strcmp(argv[i], "--export-selector") == 0 &&
               i + 1 < argc) {
      export_dir = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: bench_serving [--requests N] [--clients C] [--pipeline D]\n"
          "                     [--slo-ms M]\n"
          "       bench_serving --connect HOST:PORT [--requests N]\n"
          "                     [--pipeline D] [--series-len L] [--pool K]\n"
          "       bench_serving --export-selector DIR\n");
      return 2;
    }
  }

  if (!export_dir.empty()) {
    core::SelectorManager manager(export_dir);
    auto selector = TrainBenchSelector();
    auto saved = manager.Save(*selector, "bench");
    if (!saved.ok()) {
      std::fprintf(stderr, "bench_serving: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("bench selector saved to %s/bench\n", export_dir.c_str());
    return 0;
  }
  if (!connect_address.empty()) {
    return RunConnectMode(connect_address, requests, pipeline, pool,
                          series_len, latency_fd);
  }
  return RunDriver(requests, clients, pipeline, slo_ms);
}

}  // namespace
}  // namespace kdsel

int main(int argc, char** argv) { return kdsel::Main(argc, argv); }
