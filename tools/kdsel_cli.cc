// kdsel — command-line interface to the KDSelector system, mirroring
// the demo paper's three-step pipeline (selector learning, model
// selection, anomaly detection) plus dataset generation and selector
// management.
//
//   kdsel generate --out data/ --series 6 --seed 42
//   kdsel label    --data data/ --out perf.csv
//   kdsel train    --data data/ --perf perf.csv --dir selectors/
//                  --name mysel --backbone ResNet --pisl --mki --pa
//   kdsel list     --dir selectors/
//   kdsel detect   --dir selectors/ --name mysel --data data/
//                  --dataset YAHOO --index 0
//
// Each subcommand prints --help-style usage when required flags are
// missing.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/stringutil.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "datagen/benchmark.h"
#include "metrics/range_metrics.h"
#include "net/listener.h"
#include "net/server.h"
#include "net/signal.h"
#include "nn/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/protocol.h"
#include "stream/scorer.h"
#include "stream/window_moments.h"
#include "ts/dataset.h"
#include "tsad/detector.h"

namespace {

using namespace kdsel;
namespace fs = std::filesystem;

/// Minimal flag parser: --key value and boolean --key.
class Flags {
 public:
  Flags(int argc, char** argv, int begin) {
    for (int i = begin; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
        continue;
      }
      std::string key = arg.substr(2);
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Parses --key as a non-negative integer. Rejects garbage (empty
  /// value, trailing junk, negatives, overflow) with a usage error
  /// rather than silently proceeding with strtoull's 0.
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    auto value = ParseUint64(it->second);
    if (!value.ok()) {
      std::fprintf(stderr, "invalid integer for --%s: '%s'\n", key.c_str(),
                   it->second.c_str());
      std::exit(2);
    }
    return *value;
  }
  /// Parses --key as a double with the same strict-or-exit contract as
  /// GetInt.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    auto value = ParseDouble(it->second);
    if (!value.ok()) {
      std::fprintf(stderr, "invalid number for --%s: '%s'\n", key.c_str(),
                   it->second.c_str());
      std::exit(2);
    }
    return *value;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Loads every dataset directory under `root` (each has a manifest.csv).
StatusOr<std::vector<ts::Dataset>> LoadAllDatasets(const std::string& root) {
  std::vector<ts::Dataset> datasets;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return Status::NotFound("data directory not found: " + root);
  }
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    if (!fs::exists(entry.path() / "manifest.csv")) continue;
    KDSEL_ASSIGN_OR_RETURN(auto ds, ts::LoadDataset(entry.path().string()));
    ds.name = entry.path().filename().string();
    datasets.push_back(std::move(ds));
  }
  if (datasets.empty()) {
    return Status::NotFound("no datasets (manifest.csv) under " + root);
  }
  return datasets;
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel generate --out DIR [--series N] [--min-len N]"
                 " [--max-len N] [--seed S] [--families A,B,...]\n");
    return 2;
  }
  datagen::BenchmarkOptions opts;
  opts.series_per_family = flags.GetInt("series", 6);
  opts.min_length = flags.GetInt("min-len", 512);
  opts.max_length = flags.GetInt("max-len", 1024);
  opts.seed = flags.GetInt("seed", 42);

  std::vector<datagen::Family> families;
  if (flags.Has("families")) {
    for (const auto& name : Split(flags.Get("families", ""), ',')) {
      auto family = datagen::FamilyFromName(name);
      if (!family.ok()) return Fail(family.status());
      families.push_back(*family);
    }
  } else {
    families = datagen::AllFamilies();
  }

  for (auto family : families) {
    auto dataset = datagen::GenerateFamilyDataset(family, opts);
    if (!dataset.ok()) return Fail(dataset.status());
    const std::string dir =
        (fs::path(out) / datagen::FamilyName(family)).string();
    Status saved = ts::SaveDataset(*dataset, dir);
    if (!saved.ok()) return Fail(saved);
    std::printf("wrote %zu series to %s\n", dataset->size(), dir.c_str());
  }
  return 0;
}

int CmdLabel(const Flags& flags) {
  const std::string data_dir = flags.Get("data", "");
  const std::string out = flags.Get("out", "");
  if (data_dir.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel label --data DIR --out FILE"
                 " [--metric AUC-PR] [--seed S]\n");
    return 2;
  }
  auto metric = metrics::MetricFromName(flags.Get("metric", "AUC-PR"));
  if (!metric.ok()) return Fail(metric.status());
  auto datasets = LoadAllDatasets(data_dir);
  if (!datasets.ok()) return Fail(datasets.status());
  auto models = tsad::BuildDefaultModelSet(flags.GetInt("seed", 42));

  CsvTable table;
  table.header = {"dataset", "series"};
  for (const auto& m : models) table.header.push_back(m->name());
  size_t done = 0, total = 0;
  for (const auto& ds : *datasets) total += ds.size();
  for (const auto& ds : *datasets) {
    for (const auto& series : ds.series) {
      auto perf = core::EvaluateDetectorsOnSeries(models, series, *metric);
      if (!perf.ok()) return Fail(perf.status());
      std::vector<std::string> row{ds.name, series.name()};
      for (float p : *perf) row.push_back(StrFormat("%.6f", p));
      table.rows.push_back(std::move(row));
      std::fprintf(stderr, "\rlabeling: %zu/%zu series", ++done, total);
    }
  }
  std::fprintf(stderr, "\n");
  Status written = WriteCsv(out, table);
  if (!written.ok()) return Fail(written);
  std::printf("wrote %s (%zu rows, metric %s)\n", out.c_str(),
              table.rows.size(), metrics::MetricToString(*metric));
  return 0;
}

int CmdTrain(const Flags& flags) {
  const std::string data_dir = flags.Get("data", "");
  const std::string perf_path = flags.Get("perf", "");
  const std::string sel_dir = flags.Get("dir", "");
  const std::string name = flags.Get("name", "");
  if (data_dir.empty() || perf_path.empty() || sel_dir.empty() ||
      name.empty()) {
    std::fprintf(
        stderr,
        "usage: kdsel train --data DIR --perf FILE --dir SELECTOR_DIR"
        " --name NAME [--backbone ResNet] [--window 64] [--epochs 12]\n"
        "             [--pisl] [--mki] [--pa | --infobatch] [--seed S]\n"
        "             [--verbose]\n");
    return 2;
  }
  auto datasets = LoadAllDatasets(data_dir);
  if (!datasets.ok()) return Fail(datasets.status());
  auto perf_csv = ReadCsv(perf_path, /*has_header=*/true);
  if (!perf_csv.ok()) return Fail(perf_csv.status());

  std::map<std::string, std::vector<float>> perf_by_series;
  for (const auto& row : perf_csv->rows) {
    if (row.size() < 3) continue;
    std::vector<float> perf;
    for (size_t j = 2; j < row.size(); ++j) {
      auto value = ParseFloat(row[j]);
      if (!value.ok()) {
        return Fail(Status::IoError("bad performance cell: " +
                                    value.status().message()));
      }
      perf.push_back(*value);
    }
    perf_by_series[row[1]] = std::move(perf);
  }

  std::vector<ts::TimeSeries> series;
  std::vector<std::vector<float>> performance;
  for (auto& ds : *datasets) {
    for (auto& s : ds.series) {
      auto it = perf_by_series.find(s.name());
      if (it == perf_by_series.end()) continue;
      s.SetMeta("dataset", ds.name);
      s.SetMeta("domain", ds.domain_description);
      series.push_back(s);
      performance.push_back(it->second);
    }
  }
  if (series.empty()) {
    return Fail(Status::NotFound(
        "no series matched between the data directory and the perf file"));
  }
  std::printf("training on %zu labeled series\n", series.size());

  ts::WindowOptions window_opts;
  window_opts.length = flags.GetInt("window", 64);
  window_opts.stride = window_opts.length;
  auto data =
      core::BuildSelectorTrainingData(series, performance, window_opts);
  if (!data.ok()) return Fail(data.status());

  core::TrainerOptions opts;
  opts.backbone = flags.Get("backbone", "ResNet");
  opts.epochs = flags.GetInt("epochs", 12);
  opts.seed = flags.GetInt("seed", 1);
  opts.use_pisl = flags.Has("pisl");
  opts.use_mki = flags.Has("mki");
  if (flags.Has("pa")) opts.pruning.mode = core::PruningMode::kPa;
  if (flags.Has("infobatch")) {
    opts.pruning.mode = core::PruningMode::kInfoBatch;
  }
  opts.verbose = flags.Has("verbose");
  core::TrainStats stats;
  auto selector = core::TrainSelector(*data, opts, &stats);
  if (!selector.ok()) return Fail(selector.status());
  std::printf("trained %s: %.1fs, %zu/%zu sample visits\n",
              (*selector)->name().c_str(), stats.train_seconds,
              stats.samples_visited, stats.full_dataset_visits);

  core::SelectorManager manager(sel_dir);
  Status saved = manager.Save(**selector, name);
  if (!saved.ok()) return Fail(saved);
  std::printf("saved selector '%s' under %s\n", name.c_str(),
              sel_dir.c_str());
  return 0;
}

int CmdList(const Flags& flags) {
  const std::string sel_dir = flags.Get("dir", "");
  if (sel_dir.empty()) {
    std::fprintf(stderr, "usage: kdsel list --dir SELECTOR_DIR\n");
    return 2;
  }
  core::SelectorManager manager(sel_dir);
  auto names = manager.List();
  if (!names.ok()) return Fail(names.status());
  if (names->empty()) {
    std::printf("(no selectors in %s)\n", sel_dir.c_str());
    return 0;
  }
  for (const auto& name : *names) std::printf("%s\n", name.c_str());
  return 0;
}

int CmdDetect(const Flags& flags) {
  const std::string sel_dir = flags.Get("dir", "");
  const std::string name = flags.Get("name", "");
  const std::string data_dir = flags.Get("data", "");
  const std::string dataset_name = flags.Get("dataset", "");
  if (sel_dir.empty() || name.empty() || data_dir.empty() ||
      dataset_name.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel detect --dir SELECTOR_DIR --name NAME"
                 " --data DIR --dataset NAME [--index 0] [--window 64]\n");
    return 2;
  }
  core::SelectorManager manager(sel_dir);
  auto selector = manager.Load(name);
  if (!selector.ok()) return Fail(selector.status());

  auto dataset =
      ts::LoadDataset((fs::path(data_dir) / dataset_name).string());
  if (!dataset.ok()) return Fail(dataset.status());
  const size_t index = flags.GetInt("index", 0);
  if (index >= dataset->size()) {
    return Fail(Status::OutOfRange(
        StrFormat("dataset has %zu series, requested index %zu",
                  dataset->size(), index)));
  }

  auto models = tsad::BuildDefaultModelSet(flags.GetInt("seed", 42));
  ts::WindowOptions window_opts;
  window_opts.length = (*selector)->input_length();
  window_opts.stride = window_opts.length;
  auto result = core::DetectWithSelection(**selector, models,
                                          dataset->series[index],
                                          window_opts);
  if (!result.ok()) return Fail(result.status());

  std::printf("series: %s (%zu points)\n",
              dataset->series[index].name().c_str(),
              dataset->series[index].length());
  std::printf("selected model: %s\n", result->model_name.c_str());
  std::printf("votes:");
  for (size_t j = 0; j < result->votes.size(); ++j) {
    if (result->votes[j] > 0) {
      std::printf(" %s=%d", models[j]->name().c_str(), result->votes[j]);
    }
  }
  std::printf("\n");
  if (dataset->series[index].has_labels()) {
    std::printf("detection AUC-PR: %.4f\n", result->auc_pr);
  }
  if (flags.Has("scores-out")) {
    CsvTable table;
    table.header = {"score"};
    for (float s : result->anomaly_scores) {
      table.rows.push_back({StrFormat("%.6f", s)});
    }
    Status written = WriteCsv(flags.Get("scores-out", ""), table);
    if (!written.ok()) return Fail(written);
    std::printf("anomaly scores written to %s\n",
                flags.Get("scores-out", "").c_str());
  }
  return 0;
}

int CmdServe(const Flags& flags) {
  const std::string sel_dir = flags.Get("dir", "");
  if (sel_dir.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel serve --dir SELECTOR_DIR [--workers 4]"
                 " [--max-batch 8] [--queue 1024]\n"
                 "             [--seed 42] [--preload] [--slo-ms 0]\n"
                 "             [--listen HOST:PORT [--shards 1]]\n"
                 "speaks newline-delimited JSON on stdin/stdout by default"
                 " (an inline {\"op\":\"ops\"}\n"
                 "returns live telemetry); --listen serves the same protocol"
                 " over TCP; --slo-ms\n"
                 "turns on SLO-aware load shedding for either transport;"
                 " see README section 'kdsel serve'\n");
    return 2;
  }
  auto registry = std::make_unique<serve::SelectorRegistry>(
      core::SelectorManager(sel_dir));
  if (flags.Has("preload")) {
    auto names = registry->DiskNames();
    if (!names.ok()) return Fail(names.status());
    for (const auto& name : *names) {
      Status loaded = registry->Load(name);
      if (!loaded.ok()) return Fail(loaded);
      std::fprintf(stderr, "preloaded selector '%s'\n", name.c_str());
    }
  }

  serve::ServerOptions opts;
  opts.num_workers = flags.GetInt("workers", 4);
  opts.max_batch = flags.GetInt("max-batch", 8);
  opts.queue_capacity = flags.GetInt("queue", 1024);
  opts.detector_seed = flags.GetInt("seed", 42);

  serve::InferenceServer server(registry.get(), opts);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  // SIGINT/SIGTERM drain in-flight requests and print final stats
  // instead of killing the process mid-reply.
  Status handlers = net::InstallShutdownHandlers();
  if (!handlers.ok()) return Fail(handlers);

  // One serve path for both transports: without --listen, stdin/stdout
  // is the only connection of a one-shard NetServer with no listening
  // socket.
  const bool tcp = flags.Has("listen");
  net::NetServerOptions net_opts;
  net_opts.listen = tcp ? flags.Get("listen", "127.0.0.1:7070") : "";
  net_opts.shards = tcp ? static_cast<size_t>(flags.GetInt("shards", 1)) : 1;
  net_opts.slo_ms = flags.GetDouble("slo-ms", 0.0);
  net::NetServer net(&server, net_opts);
  Status serving = tcp ? Status::OK() : net.Adopt(STDIN_FILENO, STDOUT_FILENO);
  if (serving.ok()) serving = net.Start();
  if (!serving.ok()) {
    server.Stop();
    return Fail(serving);
  }
  if (tcp) {
    std::fprintf(stderr, "kdsel serve: listening on %s port %u, %zu shards,",
                 net_opts.listen.c_str(), net.port(), net_opts.shards);
  } else {
    std::fprintf(stderr, "kdsel serve: reading NDJSON from stdin,");
  }
  std::fprintf(stderr,
               " slo %.3f ms, %zu workers, max_batch %zu, queue %zu\n",
               net_opts.slo_ms, opts.num_workers, opts.max_batch,
               opts.queue_capacity);

  net::WaitForShutdownSignal(net.adopted_done_fd());
  if (net::ShutdownRequested()) {
    std::fprintf(stderr, "kdsel serve: shutdown signal, draining\n");
  }
  net.Stop();  // Flushes in-flight replies before workers stop.
  server.Stop();
  std::fprintf(stderr, "kdsel serve: shed %llu (rate %.4f), final stats %s\n",
               static_cast<unsigned long long>(net.shedder().shed_count()),
               server.stats().ShedRate(),
               server.stats().ToJsonString().c_str());
  return 0;
}

/// One-shot telemetry client: connects to a running `kdsel serve
/// --listen` instance, issues one "ops" request and prints the reply.
/// The prometheus view unwraps the JSON envelope and prints the raw
/// exposition text, so the output pipes straight into a scraper.
int CmdOps(const Flags& flags) {
  const std::string connect = flags.Get("connect", "");
  const std::string view = flags.Get("view", "snapshot");
  if (connect.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel ops --connect HOST:PORT"
                 " [--view snapshot|flight|prometheus] [--id 0]\n"
                 "fetches live telemetry from a running"
                 " 'kdsel serve --listen' instance:\n"
                 "  snapshot    server stats + metrics + shedder state"
                 " (JSON)\n"
                 "  flight      flight-recorder dump: recent and slowest"
                 " requests (JSON)\n"
                 "  prometheus  metrics in Prometheus text exposition"
                 " format\n");
    return 2;
  }
  if (view != "snapshot" && view != "flight" && view != "prometheus") {
    std::fprintf(stderr,
                 "invalid --view '%s' (expected snapshot, flight or"
                 " prometheus)\n",
                 view.c_str());
    return 2;
  }
  auto host_port = net::ParseHostPort(connect);
  if (!host_port.ok()) return Fail(host_port.status());
  auto connected = net::ConnectTcp(*host_port);
  if (!connected.ok()) return Fail(connected.status());
  const int fd = *connected;

  const std::string request =
      "{\"op\":\"ops\",\"id\":" +
      std::to_string(static_cast<int64_t>(flags.GetInt("id", 0))) +
      ",\"view\":\"" + view + "\"}\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = write(fd, request.data() + off, request.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close(fd);
      return Fail(Status::IoError(std::string("write: ") +
                                  std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }

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
  if (newline == std::string::npos) {
    return Fail(Status::IoError("connection closed before a reply line"));
  }
  reply.resize(newline);

  if (view == "prometheus") {
    auto doc = serve::Json::Parse(reply);
    if (doc.ok() && doc->is_object() && doc->GetBool("ok", false)) {
      if (const serve::Json* text = doc->Find("prometheus");
          text != nullptr && text->is_string()) {
        std::fputs(text->as_string().c_str(), stdout);
        return 0;
      }
    }
    // Not the expected envelope (likely a structured error): fall
    // through and print the raw reply line.
  }
  std::printf("%s\n", reply.c_str());
  return 0;
}

int CmdStream(const Flags& flags) {
  const std::string sel_dir = flags.Get("dir", "");
  const std::string selector = flags.Get("selector", "");
  if (sel_dir.empty() || selector.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel stream --dir SELECTOR_DIR --selector NAME"
                 " [--window 256] [--rescore 128]\n"
                 "             [--drift-check 16] [--drift-threshold 16.0]"
                 " [--drift-calibration 64]\n"
                 "             [--drift-patience 3] [--batch 256] [--seed 42]"
                 " [--preload]\n"
                 "speaks newline-delimited JSON on stdin/stdout;"
                 " see README section 'kdsel stream'\n");
    return 2;
  }
  const size_t window = flags.GetInt("window", 256);
  if (window < stream::kMinWindow) {
    std::fprintf(stderr, "--window must be at least %zu, got %zu\n",
                 stream::kMinWindow, window);
    return 2;
  }
  auto registry = std::make_unique<serve::SelectorRegistry>(
      core::SelectorManager(sel_dir));
  if (flags.Has("preload")) {
    auto names = registry->DiskNames();
    if (!names.ok()) return Fail(names.status());
    for (const auto& name : *names) {
      Status loaded = registry->Load(name);
      if (!loaded.ok()) return Fail(loaded);
      std::fprintf(stderr, "preloaded selector '%s'\n", name.c_str());
    }
  }

  stream::StreamOptions opts;
  opts.selector = selector;
  opts.window = window;
  opts.rescore_interval = flags.GetInt("rescore", 128);
  opts.drift_check_interval = flags.GetInt("drift-check", 16);
  opts.drift.threshold = flags.GetDouble("drift-threshold", 16.0);
  opts.drift.calibration = flags.GetInt("drift-calibration", 64);
  opts.drift.patience = flags.GetInt("drift-patience", 3);
  // Selected model indices map onto the default TSAD model set; resolve
  // their display names so events carry "iforest" rather than "model_3".
  const uint64_t seed = flags.GetInt("seed", 42);
  for (const auto& model : tsad::BuildDefaultModelSet(seed)) {
    opts.model_names.push_back(model->name());
  }

  stream::StreamScorer scorer(registry.get(), opts);
  std::fprintf(stderr,
               "kdsel stream: selector '%s', window %zu, rescore every %zu"
               " points, drift check every %zu — reading NDJSON from stdin\n",
               selector.c_str(), opts.window, opts.rescore_interval,
               opts.drift_check_interval);

  // Installed without SA_RESTART so SIGINT/SIGTERM pop the loop's
  // blocking getline with eof set: the session drains buffered events
  // and the final stats line below still prints.
  Status handlers = net::InstallShutdownHandlers();
  if (!handlers.ok()) return Fail(handlers);

  stream::StreamLoopOptions loop_opts;
  loop_opts.max_batch = flags.GetInt("batch", 256);
  Status session =
      stream::RunStreamLoop(std::cin, std::cout, scorer, *registry, loop_opts);
  if (net::ShutdownRequested()) {
    std::fprintf(stderr, "kdsel stream: shutdown signal, drained\n");
  }
  std::fprintf(stderr, "kdsel stream: final stats series=%zu points=%zu\n",
               scorer.series_count(), scorer.points_ingested());
  if (!session.ok()) return Fail(session);
  return 0;
}

/// Runs a small fully in-memory pipeline (synthetic data -> detector
/// performance matrix -> selector training with PISL+MKI+PA) with span
/// recording on, and writes the chrome://tracing JSON. The same spans
/// fire in any run via KDSEL_TRACE; this subcommand is the zero-setup
/// way to get a representative trace.
int CmdTrace(const Flags& flags) {
  const std::string out_path = flags.Get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel trace --out TRACE_JSON [--epochs 4]"
                 " [--series 8] [--window 64] [--seed 7]\n"
                 "       [--metrics-out METRICS_JSON]\n");
    return 2;
  }
  const size_t epochs = flags.GetInt("epochs", 4);
  const size_t max_series = flags.GetInt("series", 8);
  const uint64_t seed = flags.GetInt("seed", 7);

  datagen::BenchmarkOptions gen;
  gen.series_per_family = 1;
  gen.min_length = 400;
  gen.max_length = 800;
  gen.seed = seed;
  auto datasets = datagen::GenerateBenchmark(gen);
  if (!datasets.ok()) return Fail(datasets.status());

  std::vector<ts::TimeSeries> series;
  for (auto& ds : *datasets) {
    for (auto& s : ds.series) {
      if (series.size() >= max_series) break;
      s.SetMeta("dataset", ds.name);
      s.SetMeta("domain", ds.domain_description);
      series.push_back(std::move(s));
    }
  }
  auto models = tsad::BuildDefaultModelSet(seed);

  obs::StartTracing();

  std::vector<const ts::TimeSeries*> series_ptrs;
  for (const auto& s : series) series_ptrs.push_back(&s);
  auto performance = core::EvaluatePerformanceMatrix(models, series_ptrs);
  if (!performance.ok()) return Fail(performance.status());

  ts::WindowOptions window_opts;
  window_opts.length = flags.GetInt("window", 64);
  window_opts.stride = window_opts.length;
  auto data =
      core::BuildSelectorTrainingData(series, *performance, window_opts);
  if (!data.ok()) return Fail(data.status());

  core::TrainerOptions opts;
  opts.epochs = epochs;
  opts.seed = seed;
  opts.use_pisl = true;
  opts.use_mki = true;
  opts.pruning.mode = core::PruningMode::kPa;
  opts.verbose = flags.Has("verbose");
  core::TrainStats stats;
  auto selector = core::TrainSelector(*data, opts, &stats);
  if (!selector.ok()) return Fail(selector.status());

  obs::StopTracing();
  Status written = obs::WriteChromeTrace(out_path);
  if (!written.ok()) return Fail(written);
  std::printf("trained %s in %.1fs (%zu windows, %zu epochs)\n",
              (*selector)->name().c_str(), stats.train_seconds,
              data->windows.size(), epochs);
  std::printf("wrote %zu spans to %s (%llu dropped)"
              " — load in chrome://tracing or ui.perfetto.dev\n",
              obs::CollectTraceEvents().size(), out_path.c_str(),
              static_cast<unsigned long long>(obs::DroppedTraceEvents()));
  if (flags.Has("metrics-out")) {
    const std::string metrics_path = flags.Get("metrics-out", "");
    std::ofstream metrics_out(metrics_path);
    metrics_out << obs::MetricsRegistry::Global().SnapshotJson() << "\n";
    if (!metrics_out.good()) {
      return Fail(Status::IoError("cannot write " + metrics_path));
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  return 0;
}

/// Post-training int8 quantization of a saved selector. Calibration
/// sweeps inference over windows drawn from every synthetic family, so
/// the recorded activation ranges cover the benchmark's full input
/// distribution. The result is saved as `<name>.int8` next to the fp32
/// original — the serving registry treats it as an independent entry,
/// so both variants can be resident (and hot-reloaded) simultaneously.
int CmdQuantize(const Flags& flags) {
  const std::string sel_dir = flags.Get("dir", "");
  const std::string name = flags.Get("name", "");
  if (sel_dir.empty() || name.empty()) {
    std::fprintf(stderr,
                 "usage: kdsel quantize --dir SELECTOR_DIR --name NAME"
                 " [--out NAME.int8] [--calib-series 2] [--seed 7]\n");
    return 2;
  }
  const std::string out_name = flags.Get("out", name + ".int8");
  core::SelectorManager manager(sel_dir);
  auto selector = manager.Load(name);
  if (!selector.ok()) return Fail(selector.status());

  datagen::BenchmarkOptions gen;
  gen.series_per_family = flags.GetInt("calib-series", 2);
  gen.min_length = 400;
  gen.max_length = 800;
  gen.seed = flags.GetInt("seed", 7);
  auto datasets = datagen::GenerateBenchmark(gen);
  if (!datasets.ok()) return Fail(datasets.status());

  ts::WindowOptions window_opts;
  window_opts.length = (*selector)->input_length();
  window_opts.stride = window_opts.length;
  std::vector<std::vector<float>> calibration;
  for (const auto& ds : *datasets) {
    for (const auto& s : ds.series) {
      auto windows = ts::ExtractWindows(s, 0, window_opts);
      if (!windows.ok()) return Fail(windows.status());
      for (auto& w : *windows) calibration.push_back(std::move(w.values));
    }
  }
  std::printf("calibrating on %zu windows from %zu datasets\n",
              calibration.size(), datasets->size());

  auto quantized = (*selector)->QuantizeInt8(calibration);
  if (!quantized.ok()) return Fail(quantized.status());
  Status saved = manager.Save(**quantized, out_name);
  if (!saved.ok()) return Fail(saved);
  std::printf("saved int8 selector '%s' under %s\n", out_name.c_str(),
              sel_dir.c_str());
  return 0;
}

int CmdVersion() {
  const nn::kernels::Ops& ops = nn::kernels::Dispatch();
  std::string available;
  std::string int8_impls;
  for (nn::kernels::Variant v : nn::kernels::SupportedVariants()) {
    if (!available.empty()) available += " ";
    available += nn::kernels::VariantName(v);
    if (!int8_impls.empty()) int8_impls += " ";
    int8_impls += nn::kernels::VariantName(v);
    int8_impls += "=";
    int8_impls += nn::kernels::GetOps(v).i8_impl;
  }
  std::printf("kdsel (KDSelector reproduction)\n");
  std::printf("simd variant:       %s%s\n", ops.name,
              std::getenv("KDSEL_SIMD") != nullptr ? " (from KDSEL_SIMD)"
                                                   : "");
  std::printf("variants available: %s\n", available.c_str());
  std::printf("int8 kernels:       %s\n", int8_impls.c_str());
  std::printf("threads:            %zu\n", ThreadPool::Global().threads());
  return 0;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "kdsel — TSAD model selection with KDSelector\n"
      "subcommands:\n"
      "  generate   synthesize benchmark datasets to a directory\n"
      "  label      run the 12-model TSAD set, write the performance CSV\n"
      "  train      learn a selector (optionally +PISL/+MKI/+PA) and save\n"
      "  list       list saved selectors\n"
      "  detect     select a model for a series and run the detection\n"
      "  serve      long-lived inference server (NDJSON, stdin/stdout or TCP)\n"
      "  ops        fetch live telemetry from a running TCP server\n"
      "  stream     online scorer: running window moments + drift-triggered"
      " re-selection\n"
      "  quantize   int8-quantize a saved selector (served as NAME.int8)\n"
      "  trace      record a chrome://tracing profile of a small training "
      "run\n"
      "  version    print the active SIMD kernel variant and thread count\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string cmd = argv[1];
  // KDSEL_TRACE=<path>: record spans for the whole invocation and write
  // the chrome-trace JSON at exit (works for every subcommand).
  obs::InitTracingFromEnv();
  if (cmd == "version" || cmd == "--version") return CmdVersion();
  Flags flags(argc, argv, 2);
  if (!flags.ok()) return 2;
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "label") return CmdLabel(flags);
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "list") return CmdList(flags);
  if (cmd == "detect") return CmdDetect(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "ops") return CmdOps(flags);
  if (cmd == "stream") return CmdStream(flags);
  if (cmd == "quantize") return CmdQuantize(flags);
  if (cmd == "trace") return CmdTrace(flags);
  PrintUsage();
  return 2;
}
