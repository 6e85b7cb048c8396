// Kernel report for the performance-critical primitives.
//
// `bench_micro --report-kernels` times every compiled SIMD kernel
// variant (scalar, generic, avx2 where supported) on a 256^3 MatMul, a
// 256^3 int8 matmul, a Conv1d forward, and an end-to-end selector
// forward (fp32 vs int8) at 1, 2 and 4 threads, plus single-thread
// per-layer rows: one inference row per ConvNet conv layer shape and
// precision, one training-batch Conv1d backward row per layer shape
// (`conv_bwd_fp32_*`), ReLU backward at ResNet's two widths
// (`relu_bwd_fp32_*`) and one whole ResNet training step, forward plus
// backward (`resnet_step_fp32_b64`). It writes BENCH_kernels.json with
// per-entry `speedup_vs_scalar` metrics (and `speedup_vs_fp32` on the
// int8 rows), and the metrics registry the run populated as
// METRICS_kernels.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/conv.h"
#include "nn/kernels/kernels.h"
#include "nn/layers.h"
#include "nn/quantize.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "selectors/backbone.h"

namespace {

using namespace kdsel;

// Best-of-`reps` wall time of `iters` calls to `fn`, per call. Best-of
// (not mean) suppresses scheduler noise on shared CI runners.
double TimePerCall(size_t reps, size_t iters, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double per_call =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(iters);
    best = std::min(best, per_call);
  }
  return best;
}

// Writes the live metrics registry as METRICS_<name>.json next to the
// bench report (same $KDSEL_BENCH_REPORT_DIR convention), so CI can
// schema-check instrumentation coverage with
// tools/check_metrics_snapshot.py.
int WriteMetricsSnapshot(const char* name) {
  const char* dir = std::getenv("KDSEL_BENCH_REPORT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? dir : ".";
  path += std::string("/METRICS_") + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << obs::MetricsRegistry::Global().SnapshotJson() << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "[bench_micro] metrics snapshot write failed: %s\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_micro] wrote %s\n", path.c_str());
  return 0;
}

int RunKernelsReport() {
  // Identical inputs for every variant and thread count: the comparison
  // is pure kernel code, not data.
  Rng rng(22);
  const size_t n = 256;
  nn::Tensor ma({n, n}), mb({n, n});
  for (float& v : ma.mutable_data()) v = static_cast<float>(rng.Normal());
  for (float& v : mb.mutable_data()) v = static_cast<float>(rng.Normal());

  nn::Conv1d conv(16, 16, 5, rng);
  nn::Tensor cx({32, 16, 64});
  for (float& v : cx.mutable_data()) v = static_cast<float>(rng.Normal());

  // Int8 operands for the quantized matmul, produced once: the int8
  // kernels are bitwise-identical across variants, so one quantization
  // feeds every variant's timing run.
  std::vector<int8_t> qa(n * n), qb(n * n);
  std::vector<float> requant(n);
  nn::Tensor i8_out;
  i8_out.Resize({n, n});
  {
    const float a_scale =
        nn::QuantScaleFromAbsMax(nn::AbsMax(ma.raw(), ma.size()));
    nn::kernels::Dispatch().i8_quantize(ma.raw(), 1.0f / a_scale, qa.data(),
                                        ma.size());
    nn::QuantizeWeightRows(mb.raw(), n, n, a_scale, qb.data(), requant.data());
  }

  // End-to-end selector forward: ConvNet encoder + linear head over a
  // [64, 64] window batch, timed fp32 vs int8 on the same weights.
  Rng srng(23);
  auto backbone = selectors::BuildBackbone("ConvNet", 64, srng);
  KDSEL_CHECK(backbone.ok());
  nn::Linear classifier((*backbone)->feature_dim(), 12, srng);
  nn::Tensor wx({64, 64});
  for (float& v : wx.mutable_data()) v = static_cast<float>(srng.Normal());
  auto selector_forward = [&] {
    nn::Tensor z = (*backbone)->Forward(wx, /*training=*/false);
    (void)classifier.Forward(z, /*training=*/false);
  };
  std::vector<nn::Quantizable*> qlayers =
      nn::CollectQuantizableLayers(**backbone);
  classifier.CollectQuantizable(&qlayers);
  // One calibration sweep up front; each variant's int8 row re-applies
  // the recorded scales (weight quantization is deterministic).
  for (nn::Quantizable* q : qlayers) q->BeginQuantCalibration();
  selector_forward();
  for (nn::Quantizable* q : qlayers) q->EndQuantCalibration();
  const std::vector<float> act_scales = nn::CollectActivationScales(qlayers);
  for (nn::Quantizable* q : qlayers) q->ClearQuantization();

  // ConvNet's three conv layers at inference (B = 16 windows of 64),
  // each as an fp32 layer and an int8 twin with the same weights.
  struct ConvLayerBench {
    const char* shape;
    size_t c_in, c_out, k;
  };
  const ConvLayerBench conv_layers[] = {
      {"1x16k7", 1, 16, 7}, {"16x32k5", 16, 32, 5}, {"32x32k3", 32, 32, 3}};
  const size_t conv_batch = 16, conv_len = 64;
  std::vector<std::unique_ptr<nn::Conv1d>> conv_fp32, conv_int8;
  std::vector<nn::Tensor> conv_inputs;
  for (const ConvLayerBench& layer : conv_layers) {
    Rng wrng(24), wrng_twin(24);
    conv_fp32.push_back(std::make_unique<nn::Conv1d>(
        layer.c_in, layer.c_out, layer.k, wrng, /*use_bias=*/false));
    conv_int8.push_back(std::make_unique<nn::Conv1d>(
        layer.c_in, layer.c_out, layer.k, wrng_twin, /*use_bias=*/false));
    nn::Tensor input({conv_batch, layer.c_in, conv_len});
    for (float& v : input.mutable_data()) {
      v = static_cast<float>(rng.Normal());
    }
    // Weight quantization is bitwise-identical across variants, so one
    // calibration serves every variant's int8 row.
    conv_int8.back()->BeginQuantCalibration();
    (void)conv_int8.back()->Forward(input, /*training=*/false);
    conv_int8.back()->EndQuantCalibration();
    conv_inputs.push_back(std::move(input));
  }

  // Conv1d backward at the training batch (B = 64 windows of 64), fp32:
  // the first ConvNet/ResNet layer, ConvNet's second and third, and
  // ResNet's widest. The training forward caches each layer's input once;
  // every timed Backward reuses it.
  const ConvLayerBench bwd_layers[] = {{"1x16k7", 1, 16, 7},
                                       {"16x32k5", 16, 32, 5},
                                       {"32x32k3", 32, 32, 3},
                                       {"32x32k7", 32, 32, 7}};
  const size_t bwd_batch = 64;
  std::vector<std::unique_ptr<nn::Conv1d>> conv_bwd;
  std::vector<nn::Tensor> bwd_grads;
  for (const ConvLayerBench& layer : bwd_layers) {
    Rng wrng(25);
    conv_bwd.push_back(std::make_unique<nn::Conv1d>(
        layer.c_in, layer.c_out, layer.k, wrng, /*use_bias=*/false));
    nn::Tensor input({bwd_batch, layer.c_in, conv_len});
    nn::Tensor grad({bwd_batch, layer.c_out, conv_len});
    for (float& v : input.mutable_data()) v = static_cast<float>(rng.Normal());
    for (float& v : grad.mutable_data()) v = static_cast<float>(rng.Normal());
    (void)conv_bwd.back()->Forward(input, /*training=*/true);
    bwd_grads.push_back(std::move(grad));
  }

  // ReLU backward at the training batch (B = 64, L = 64) for ResNet's two
  // widths. The loop is not in the Ops table, so every variant runs the
  // same code; the rows record the layer, not a kernel choice. Inputs
  // are normals, so about half of the cached outputs are zero, as after
  // BatchNorm.
  struct ReluBench {
    const char* shape;
    size_t channels;
  };
  const ReluBench relu_layers[] = {{"16x64", 16}, {"32x64", 32}};
  std::vector<std::unique_ptr<nn::ReLU>> relus;
  std::vector<nn::Tensor> relu_grads;
  for (const ReluBench& layer : relu_layers) {
    relus.push_back(std::make_unique<nn::ReLU>());
    nn::Tensor input({bwd_batch, layer.channels, conv_len});
    nn::Tensor grad({bwd_batch, layer.channels, conv_len});
    for (float& v : input.mutable_data()) v = static_cast<float>(rng.Normal());
    for (float& v : grad.mutable_data()) v = static_cast<float>(rng.Normal());
    (void)relus.back()->Forward(input, /*training=*/true);
    relu_grads.push_back(std::move(grad));
  }

  // One ResNet training step, forward plus backward, at B = 64, L = 64:
  // every layer the selector's training batch runs through the backbone.
  Rng resnet_rng(26);
  auto resnet = selectors::BuildBackbone("ResNet", conv_len, resnet_rng);
  KDSEL_CHECK(resnet.ok());
  nn::Tensor resnet_x({bwd_batch, conv_len});
  nn::Tensor resnet_g({bwd_batch, (*resnet)->feature_dim()});
  for (float& v : resnet_x.mutable_data()) {
    v = static_cast<float>(resnet_rng.Normal());
  }
  for (float& v : resnet_g.mutable_data()) {
    v = static_cast<float>(resnet_rng.Normal());
  }

  bench::BenchReport report("kernels");
  // Wall time of the scalar baseline, keyed "workload:threads" — scalar
  // is always SupportedVariants().front(), so baselines land first.
  std::map<std::string, double> scalar_wall;
  // Only attributed when the baseline actually ran: operator[] would
  // default-insert 0.0 and turn a missing baseline into inf.
  auto vs_scalar = [&](bench::BenchEntry& e, const std::string& key) {
    const auto it = scalar_wall.find(key);
    if (it != scalar_wall.end() && e.wall_seconds > 0.0) {
      e.metrics["speedup_vs_scalar"] = it->second / e.wall_seconds;
    }
  };
  for (nn::kernels::Variant variant : nn::kernels::SupportedVariants()) {
    nn::kernels::ResetDispatchForTesting(variant);
    const std::string tag = nn::kernels::VariantName(variant);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ThreadPool::ResetGlobalForTesting(threads);
      std::fprintf(stderr, "[bench_micro] kernels: %s at %zu threads\n",
                   tag.c_str(), threads);
      double fp32_matmul_wall = 0.0;
      {
        bench::BenchEntry e;
        e.name = "matmul_256:" + tag;
        e.threads = threads;
        e.items = static_cast<double>(n * n * n);
        e.items_unit = "multiply-adds";
        e.wall_seconds =
            TimePerCall(3, 5, [&] { (void)nn::MatMul(ma, mb); });
        fp32_matmul_wall = e.wall_seconds;
        const std::string key = "matmul:" + std::to_string(threads);
        if (variant == nn::kernels::Variant::kScalar) {
          scalar_wall[key] = e.wall_seconds;
        }
        vs_scalar(e, key);
        report.Add(std::move(e));
      }
      {
        bench::BenchEntry e;
        e.name = "i8_matmul_256:" + tag;
        e.threads = threads;
        e.items = static_cast<double>(n * n * n);
        e.items_unit = "multiply-adds";
        e.wall_seconds = TimePerCall(3, 5, [&] {
          nn::I8MatMulTbParallel(qa.data(), qb.data(), i8_out.raw(), n, n, n,
                                 requant.data(), nullptr);
        });
        const std::string key = "i8_matmul:" + std::to_string(threads);
        if (variant == nn::kernels::Variant::kScalar) {
          scalar_wall[key] = e.wall_seconds;
        }
        vs_scalar(e, key);
        // The headline int8 claim: quantized vs fp32 matmul, same
        // variant, same thread count.
        if (fp32_matmul_wall > 0.0 && e.wall_seconds > 0.0) {
          e.metrics["speedup_vs_fp32"] = fp32_matmul_wall / e.wall_seconds;
        }
        report.Add(std::move(e));
      }
      {
        bench::BenchEntry e;
        e.name = "conv1d_forward:" + tag;
        e.threads = threads;
        e.items = 32.0;
        e.items_unit = "batch rows";
        e.wall_seconds =
            TimePerCall(3, 20, [&] { (void)conv.Forward(cx, true); });
        const std::string key = "conv:" + std::to_string(threads);
        if (variant == nn::kernels::Variant::kScalar) {
          scalar_wall[key] = e.wall_seconds;
        }
        vs_scalar(e, key);
        report.Add(std::move(e));
      }
      if (threads == 1) {
        // Per-layer conv inference, single-thread like a serve worker.
        for (size_t i = 0; i < std::size(conv_layers); ++i) {
          double fp32_wall = 0.0;
          for (const bool int8 : {false, true}) {
            nn::Conv1d& conv_layer = int8 ? *conv_int8[i] : *conv_fp32[i];
            bench::BenchEntry e;
            e.name = std::string(int8 ? "conv_int8_" : "conv_fp32_") +
                     conv_layers[i].shape + ":" + tag;
            e.threads = threads;
            e.items = static_cast<double>(conv_batch);
            e.items_unit = "windows";
            e.wall_seconds = TimePerCall(3, 20, [&] {
              (void)conv_layer.Forward(conv_inputs[i], /*training=*/false);
            });
            const std::string key = e.name.substr(0, e.name.find(':'));
            if (variant == nn::kernels::Variant::kScalar) {
              scalar_wall[key] = e.wall_seconds;
            }
            vs_scalar(e, key);
            if (!int8) {
              fp32_wall = e.wall_seconds;
            } else if (fp32_wall > 0.0 && e.wall_seconds > 0.0) {
              e.metrics["speedup_vs_fp32"] = fp32_wall / e.wall_seconds;
            }
            report.Add(std::move(e));
          }
        }
        // Per-layer conv backward, single-thread: the training-side record.
        for (size_t i = 0; i < std::size(bwd_layers); ++i) {
          bench::BenchEntry e;
          e.name = std::string("conv_bwd_fp32_") + bwd_layers[i].shape + ":" +
                   tag;
          e.threads = threads;
          e.items = static_cast<double>(bwd_batch);
          e.items_unit = "windows";
          e.wall_seconds = TimePerCall(3, 10, [&] {
            (void)conv_bwd[i]->Backward(bwd_grads[i]);
          });
          const std::string key = e.name.substr(0, e.name.find(':'));
          if (variant == nn::kernels::Variant::kScalar) {
            scalar_wall[key] = e.wall_seconds;
          }
          vs_scalar(e, key);
          report.Add(std::move(e));
        }
        // Per-layer ReLU backward and the whole ResNet step,
        // single-thread: the rest of the training-side record.
        for (size_t i = 0; i < std::size(relu_layers); ++i) {
          bench::BenchEntry e;
          e.name = std::string("relu_bwd_fp32_") + relu_layers[i].shape +
                   ":" + tag;
          e.threads = threads;
          e.items = static_cast<double>(bwd_batch);
          e.items_unit = "windows";
          e.wall_seconds = TimePerCall(5, 50, [&] {
            (void)relus[i]->Backward(relu_grads[i]);
          });
          const std::string key = e.name.substr(0, e.name.find(':'));
          if (variant == nn::kernels::Variant::kScalar) {
            scalar_wall[key] = e.wall_seconds;
          }
          vs_scalar(e, key);
          report.Add(std::move(e));
        }
        {
          bench::BenchEntry e;
          e.name = "resnet_step_fp32_b64:" + tag;
          e.threads = threads;
          e.items = static_cast<double>(bwd_batch);
          e.items_unit = "windows";
          e.wall_seconds = TimePerCall(3, 5, [&] {
            (void)(*resnet)->Forward(resnet_x, /*training=*/true);
            (void)(*resnet)->Backward(resnet_g);
          });
          const std::string key = e.name.substr(0, e.name.find(':'));
          if (variant == nn::kernels::Variant::kScalar) {
            scalar_wall[key] = e.wall_seconds;
          }
          vs_scalar(e, key);
          report.Add(std::move(e));
        }
        // End-to-end selector forward, single-thread: the serving-side
        // view of the int8 win (includes windowing-free fp32 tails).
        for (nn::Quantizable* q : qlayers) q->ClearQuantization();
        double fp32_fwd_wall = 0.0;
        {
          bench::BenchEntry e;
          e.name = "selector_forward_fp32:" + tag;
          e.threads = threads;
          e.items = 64.0;
          e.items_unit = "windows";
          e.wall_seconds = TimePerCall(3, 10, selector_forward);
          fp32_fwd_wall = e.wall_seconds;
          report.Add(std::move(e));
        }
        {
          KDSEL_CHECK(nn::ApplyActivationScales(qlayers, act_scales).ok());
          bench::BenchEntry e;
          e.name = "selector_forward_int8:" + tag;
          e.threads = threads;
          e.items = 64.0;
          e.items_unit = "windows";
          e.wall_seconds = TimePerCall(3, 10, selector_forward);
          if (fp32_fwd_wall > 0.0 && e.wall_seconds > 0.0) {
            e.metrics["speedup_vs_fp32"] = fp32_fwd_wall / e.wall_seconds;
          }
          report.Add(std::move(e));
          for (nn::Quantizable* q : qlayers) q->ClearQuantization();
        }
      }
    }
  }
  ThreadPool::ResetGlobalForTesting(0);
  nn::kernels::ResetDispatchForTesting();

  report.ComputeSpeedups();
  auto path = report.Write();
  if (!path.ok()) {
    std::fprintf(stderr, "[bench_micro] report write failed: %s\n",
                 path.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_micro] wrote %s\n", path->c_str());
  for (const auto& e : report.entries()) {
    const auto vs_s = e.metrics.find("speedup_vs_scalar");
    const auto vs_f = e.metrics.find("speedup_vs_fp32");
    std::fprintf(stderr,
                 "[bench_micro] %-28s %zu threads  %10.6fs  "
                 "vs-scalar %.2fx  vs-fp32 %.2fx  vs-1t %.2fx\n",
                 e.name.c_str(), e.threads, e.wall_seconds,
                 vs_s != e.metrics.end() ? vs_s->second : 0.0,
                 vs_f != e.metrics.end() ? vs_f->second : 0.0,
                 e.speedup_vs_1t);
  }
  return WriteMetricsSnapshot("kernels");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--report-kernels") != 0) {
    std::fprintf(stderr, "usage: bench_micro --report-kernels\n");
    return 2;
  }
  // KDSEL_TRACE=<path> records the whole bench run as a chrome trace.
  kdsel::obs::InitTracingFromEnv();
  return RunKernelsReport();
}
