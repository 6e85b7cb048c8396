// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload train|serve|stream --seed N --seconds S --trace 0|1
//
// Each workload builds its inputs from --seed, sets up, runs its timed
// part, checks the program's outputs, and prints as the last stdout line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Every workload prints the same metric names. With --trace 0 they are
// the end-to-end metrics; with --trace 1 the workload runs untraced and
// then traced, and they are the per-layer numbers plus the tracing
// overhead. A line of host and configuration diagnostics, including the
// numbers of layers only this workload drives, precedes the result line.
//
// Extra flags for the self-test (perfbench/selftest.py): --tiny shrinks
// every workload, --tamper-model-id corrupts one serve reply.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/parallel.h"
#include "common/stringutil.h"
#include "nn/kernels/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|serve|stream --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--tiny] "
               "[--tamper-model-id]\n");
  return 2;
}

/// Worker-pool size per workload at start-up. Busy threads never exceed
/// the 4 vCPUs the benchmark is sized for, and stay below them where the
/// pool's short jobs would otherwise wait on a descheduled vCPU of the
/// shared guest: train labels on 4 threads and trains on 2 (train.cc),
/// stream ingests on 1 (as fast as 2 there, and its peak RSS no longer
/// depends on which thread allocated first), and serve keeps the pool
/// inline beside its 2 server workers, net shard and client. The traced
/// run's layer probes use 2 (probes.cc).
const char* PoolThreads(const std::string& workload) {
  return workload == "train" ? "4" : "1";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  opts.process_start_s = NowS();
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value("--workload");
      have_workload = true;
    } else if (arg == "--seed") {
      auto parsed = kdsel::ParseUint64(value("--seed"));
      if (!parsed.ok()) return Usage();
      opts.seed = *parsed;
      have_seed = true;
    } else if (arg == "--seconds") {
      auto parsed = kdsel::ParseDouble(value("--seconds"));
      if (!parsed.ok() || !(*parsed > 0.0)) return Usage();
      opts.seconds = *parsed;
    } else if (arg == "--trace") {
      const std::string v = value("--trace");
      if (v != "0" && v != "1") return Usage();
      opts.trace = v == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value("--out-dir");
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--tamper-model-id") {
      opts.tamper_model_id = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }
  if (!have_workload || !have_seed) return Usage();
  if (opts.workload != "train" && opts.workload != "serve" &&
      opts.workload != "stream") {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return Usage();
  }

  // Must precede the first use of the shared pool.
  setenv("KDSEL_THREADS", PoolThreads(opts.workload), 1);
  if (opts.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
  }

  const CpuTimes cpu_begin = ReadCpuTimes();
  Outcome outcome;
  if (opts.workload == "train") {
    outcome = RunTrain(opts);
  } else if (opts.workload == "serve") {
    outcome = RunServe(opts);
  } else {
    outcome = RunStream(opts);
  }
  const CpuTimes cpu_end = ReadCpuTimes();

  if (outcome.attempted == 0) outcome.Fail("no operation was attempted");
  const auto& metrics = opts.trace ? outcome.layer : outcome.e2e;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      outcome.Fail("metric " + name + " is not finite");
    }
  }

  const auto& ops = kdsel::nn::kernels::Dispatch();
  outcome.Diag("kernel_variant", ops.name);
  outcome.Diag("int8_kernel", ops.i8_impl);
  outcome.Diag("pool_threads_at_exit",
               static_cast<double>(kdsel::ParallelThreads()));
  outcome.Diag("run_steal_pct", StealPct(cpu_begin, cpu_end));
  outcome.Diag("wall_s", NowS() - opts.process_start_s);
  std::string problems;
  for (const auto& p : outcome.problems) {
    problems += (problems.empty() ? "" : "; ") + p;
  }
  if (!problems.empty()) outcome.Diag("problems", problems);

  std::string diag = "{\"diagnostics\": {\"workload\": \"" + opts.workload +
                     "\", \"seed\": " + std::to_string(opts.seed);
  for (const auto& [name, value] : outcome.diagnostics) {
    diag += ", \"" + name + "\": " + value;
  }
  diag += "}}";
  std::printf("%s\n", diag.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
