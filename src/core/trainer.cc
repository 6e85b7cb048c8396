#include "core/trainer.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>

#include "common/annotations.h"
#include "common/stringutil.h"
#include "core/soft_label.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/quantize.h"
#include "nn/serialize.h"

namespace kdsel::core {

namespace {

/// Gathers window rows into a preallocated [batch, L] tensor, reusing
/// `out`'s buffer so the batch loop stays allocation-free.
void GatherWindows(const std::vector<std::vector<float>>& windows,
                   const std::vector<size_t>& idx, nn::Tensor* out) {
  KDSEL_CHECK(!idx.empty());
  const size_t dim = windows[idx[0]].size();
  out->Resize({idx.size(), dim});
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy(windows[idx[i]].begin(), windows[idx[i]].end(),
              out->raw() + i * dim);
  }
}

/// Gathers rows of a 2-D tensor into a preallocated tensor.
void GatherRows(const nn::Tensor& src, const std::vector<size_t>& idx,
                nn::Tensor* out) {
  const size_t dim = src.dim(1);
  out->Resize({idx.size(), dim});
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy(src.raw() + idx[i] * dim, src.raw() + (idx[i] + 1) * dim,
              out->raw() + i * dim);
  }
}

Status ValidateSelectorTrainingData(const SelectorTrainingData& data,
                                    const TrainerOptions& options) {
  if (data.windows.empty()) return Status::InvalidArgument("no windows");
  if (data.labels.size() != data.windows.size()) {
    return Status::InvalidArgument("labels/windows size mismatch");
  }
  if (data.num_classes == 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  const size_t dim = data.windows[0].size();
  for (const auto& w : data.windows) {
    if (w.size() != dim) return Status::InvalidArgument("ragged windows");
  }
  for (int y : data.labels) {
    if (y < 0 || static_cast<size_t>(y) >= data.num_classes) {
      return Status::InvalidArgument("label out of range");
    }
  }
  if (options.use_pisl) {
    if (data.performance_index.empty()) {
      if (data.performance.size() != data.windows.size()) {
        return Status::InvalidArgument(
            "PISL requires a performance row per sample");
      }
    } else {
      if (data.performance_index.size() != data.windows.size()) {
        return Status::InvalidArgument(
            "performance_index must map every sample");
      }
      for (size_t row : data.performance_index) {
        if (row >= data.performance.size()) {
          return Status::InvalidArgument("performance_index out of range");
        }
      }
    }
    for (const auto& p : data.performance) {
      if (p.size() != data.num_classes) {
        return Status::InvalidArgument(
            "performance row width must equal num_classes");
      }
    }
  }
  if (options.use_mki) {
    if (data.text_index.empty()) {
      if (data.texts.size() != data.windows.size()) {
        return Status::InvalidArgument("MKI requires a text per sample");
      }
    } else {
      if (data.text_index.size() != data.windows.size()) {
        return Status::InvalidArgument("text_index must map every sample");
      }
      for (size_t row : data.text_index) {
        if (row >= data.texts.size()) {
          return Status::InvalidArgument("text_index out of range");
        }
      }
    }
  }
  if (options.epochs == 0 || options.batch_size == 0) {
    return Status::InvalidArgument("epochs/batch_size must be positive");
  }
  return Status::OK();
}

// Handles into the immortal metrics registry, resolved on first use so
// the epoch loop's updates stay allocation-free at steady state.
struct TrainerMetrics {
  obs::Counter& epochs;
  obs::Counter& batches;
  obs::Counter& samples_visited;
  obs::Gauge& loss_total;
  obs::Gauge& loss_hard;
  obs::Gauge& loss_pisl;
  obs::Gauge& loss_mki;
  obs::Gauge& samples_per_sec;
  obs::Gauge& keep_rate;
  obs::Gauge& rescale_mass;
  obs::Histogram& epoch_us;
};

TrainerMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static TrainerMetrics metrics{
      registry.GetCounter("kdsel.trainer.epochs"),
      registry.GetCounter("kdsel.trainer.batches"),
      registry.GetCounter("kdsel.trainer.samples_visited"),
      registry.GetGauge("kdsel.trainer.loss_total"),
      registry.GetGauge("kdsel.trainer.loss_hard"),
      registry.GetGauge("kdsel.trainer.loss_pisl"),
      registry.GetGauge("kdsel.trainer.loss_mki"),
      registry.GetGauge("kdsel.trainer.samples_per_sec"),
      registry.GetGauge("kdsel.pruning.keep_rate"),
      registry.GetGauge("kdsel.pruning.rescale_mass"),
      registry.GetHistogram("kdsel.trainer.epoch_us"),
  };
  return metrics;
}

/// Everything one epoch touches, bundled behind typed references so the
/// KDSEL_HOT epoch body is a standalone function the static allocation
/// walk (and a human reader) can audit in isolation. The scratch
/// members at the bottom persist across epochs, so their capacity is
/// paid once.
struct EpochContext {
  const TrainerOptions& options;
  const SelectorTrainingData& data;
  const nn::Tensor& soft_labels;
  MkiHead* mki;
  const nn::Tensor& text_embeddings;
  const std::vector<size_t>& text_index;
  std::vector<nn::Parameter*>& params;
  nn::Adam& optimizer;
  Pruner& pruner;
  Rng& rng;
  double alpha;
  size_t n;
  TrainStats* stats;
  TrainerMetrics& metrics;
  selectors::Backbone& backbone;
  nn::Linear& classifier;
  EpochPlan& plan;
  std::vector<size_t>& perm;
  std::vector<size_t>& idx;
  std::vector<float>& weights;
  std::vector<int>& batch_labels;
  std::vector<size_t>& soft_rows;
  std::vector<size_t>& text_rows;
  nn::Tensor& x;
  nn::Tensor& soft_batch;
  nn::Tensor& z_k;
  nn::LossResult& hard;
  nn::LossResult& soft;
  MkiHead::Result& mki_out;
};

/// One training epoch: prune-plan, shuffle, batched forward/backward,
/// optimizer step, metrics. KDSEL_HOT -- kdsel_lint walks everything
/// reachable from here and proves the steady-state loop allocates only
/// through audited boundaries (capacities are warmed by the setup code
/// in TrainSelector; train_alloc_test asserts the same at runtime).
KDSEL_HOT void RunEpoch(EpochContext& ctx, size_t epoch) {
  const TrainerOptions& options = ctx.options;
  const SelectorTrainingData& data = ctx.data;
  const nn::Tensor& soft_labels = ctx.soft_labels;
  MkiHead* mki = ctx.mki;
  const nn::Tensor& text_embeddings = ctx.text_embeddings;
  const std::vector<size_t>& text_index = ctx.text_index;
  std::vector<nn::Parameter*>& params = ctx.params;
  nn::Adam& optimizer = ctx.optimizer;
  Pruner& pruner = ctx.pruner;
  Rng& rng = ctx.rng;
  const double alpha = ctx.alpha;
  const size_t n = ctx.n;
  TrainStats* stats = ctx.stats;
  TrainerMetrics& metrics = ctx.metrics;
  selectors::Backbone& backbone = ctx.backbone;
  nn::Linear& classifier = ctx.classifier;
  EpochPlan& plan = ctx.plan;
  std::vector<size_t>& perm = ctx.perm;
  std::vector<size_t>& idx = ctx.idx;
  std::vector<float>& weights = ctx.weights;
  std::vector<int>& batch_labels = ctx.batch_labels;
  std::vector<size_t>& soft_rows = ctx.soft_rows;
  std::vector<size_t>& text_rows = ctx.text_rows;
  nn::Tensor& x = ctx.x;
  nn::Tensor& soft_batch = ctx.soft_batch;
  nn::Tensor& z_k = ctx.z_k;
  nn::LossResult& hard = ctx.hard;
  nn::LossResult& soft = ctx.soft;
  MkiHead::Result& mki_out = ctx.mki_out;

    KDSEL_SPAN("trainer.epoch");
    const uint64_t epoch_begin_ns = obs::NowNs();
    pruner.PlanEpoch(epoch, options.epochs, &plan);
    // Shuffle kept samples and their weights together.
    perm.resize(plan.kept.size());
    std::iota(perm.begin(), perm.end(), size_t{0});
    rng.Shuffle(perm);

    double epoch_loss = 0.0;
    double epoch_hard = 0.0;
    double epoch_pisl = 0.0;
    double epoch_mki = 0.0;
    size_t epoch_samples = 0;
    size_t epoch_batches = 0;
    for (size_t off = 0; off < perm.size(); off += options.batch_size) {
      const size_t end = std::min(perm.size(), off + options.batch_size);
      idx.clear();
      weights.clear();
      for (size_t i = off; i < end; ++i) {
        idx.push_back(plan.kept[perm[i]]);
        weights.push_back(plan.weights[perm[i]]);
      }
      // MKI's InfoNCE contrasts each sample against the rest of the
      // batch; a 1-sample batch has no negatives, so skip the remainder
      // batch in that degenerate case.
      if (idx.size() < 2 && options.use_mki) continue;

      GatherWindows(data.windows, idx, &x);
      nn::Tensor z = backbone.Forward(x, /*training=*/true);
      nn::Tensor logits = classifier.Forward(z, /*training=*/true);

      batch_labels.resize(idx.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        batch_labels[i] = data.labels[idx[i]];
      }
      nn::SoftmaxCrossEntropyHard(logits, batch_labels, weights, &hard);
      // The blended gradient and per-sample losses are built in place on
      // the hard-CE result; it is not needed in pristine form afterward.
      nn::Tensor& grad_logits = hard.grad;
      std::vector<float>& per_sample = hard.per_sample;
      double batch_loss = hard.mean_loss;
      epoch_hard += hard.mean_loss;
      if (alpha > 0) {
        // Soft labels live one row per performance entry; resolve each
        // sample's (possibly shared) row before gathering.
        soft_rows.resize(idx.size());
        for (size_t i = 0; i < idx.size(); ++i) {
          soft_rows[i] = data.PerformanceRow(idx[i]);
        }
        GatherRows(soft_labels, soft_rows, &soft_batch);
        nn::SoftmaxCrossEntropySoft(logits, soft_batch, weights, &soft);
        // (1 - alpha) * L_CE + alpha * L_PISL.
        grad_logits.ScaleInPlace(static_cast<float>(1.0 - alpha));
        grad_logits.AxpyInPlace(static_cast<float>(alpha), soft.grad);
        batch_loss = (1.0 - alpha) * hard.mean_loss + alpha * soft.mean_loss;
        epoch_pisl += soft.mean_loss;
        for (size_t i = 0; i < per_sample.size(); ++i) {
          per_sample[i] = static_cast<float>((1.0 - alpha) * per_sample[i] +
                                             alpha * soft.per_sample[i]);
        }
      }

      nn::Tensor grad_z = classifier.Backward(grad_logits);
      if (mki) {
        text_rows.resize(idx.size());
        for (size_t i = 0; i < idx.size(); ++i) {
          text_rows[i] = text_index[idx[i]];
        }
        GatherRows(text_embeddings, text_rows, &z_k);
        // Text row ids double as group ids: windows sharing a metadata
        // text must not serve as each other's InfoNCE negatives.
        mki->ComputeLoss(z, z_k, weights, text_rows, &mki_out);
        grad_z.AddInPlace(mki_out.grad_z_t);
        batch_loss += mki_out.loss;
        epoch_mki += mki_out.loss;
        for (size_t i = 0; i < per_sample.size(); ++i) {
          per_sample[i] += static_cast<float>(options.lambda) *
                           mki_out.per_sample[i];
        }
      }
      backbone.Backward(grad_z);
      nn::ClipGradNorm(params, options.clip_norm);
      optimizer.Step();
      optimizer.ZeroGrad();

      for (size_t i = 0; i < idx.size(); ++i) {
        pruner.RecordLoss(idx[i], per_sample[i]);
      }
      epoch_loss += batch_loss;
      ++epoch_batches;
      epoch_samples += idx.size();
      if (stats) stats->samples_visited += idx.size();
    }
    const double inv_batches =
        epoch_batches ? 1.0 / static_cast<double>(epoch_batches) : 0.0;
    const double epoch_seconds =
        static_cast<double>(obs::NowNs() - epoch_begin_ns) / 1e9;
    const double samples_per_sec =
        epoch_seconds > 0.0 ? static_cast<double>(epoch_samples) / epoch_seconds
                            : 0.0;
    const double keep_rate =
        static_cast<double>(plan.kept.size()) / static_cast<double>(n);
    double rescale_mass = 0.0;
    for (float w : plan.weights) rescale_mass += w;
    metrics.epochs.Increment();
    metrics.batches.Increment(epoch_batches);
    metrics.samples_visited.Increment(epoch_samples);
    metrics.loss_total.Set(epoch_loss * inv_batches);
    metrics.loss_hard.Set(epoch_hard * inv_batches);
    metrics.loss_pisl.Set(epoch_pisl * inv_batches);
    metrics.loss_mki.Set(epoch_mki * inv_batches);
    metrics.samples_per_sec.Set(samples_per_sec);
    metrics.keep_rate.Set(keep_rate);
    metrics.rescale_mass.Set(rescale_mass);
    metrics.epoch_us.Record(epoch_seconds * 1e6);
    if (stats) {
      stats->epoch_loss.push_back(
          epoch_batches ? epoch_loss / static_cast<double>(epoch_batches)
                        : 0.0);
    }
    if (options.verbose) {
      std::fprintf(stderr,
                   "[trainer] epoch %zu/%zu: loss=%.4f (hard=%.4f pisl=%.4f "
                   "mki=%.4f) kept=%zu/%zu (%.1f%%) %.0f samples/s\n",
                   epoch + 1, options.epochs, epoch_loss * inv_batches,
                   epoch_hard * inv_batches, epoch_pisl * inv_batches,
                   epoch_mki * inv_batches, plan.kept.size(), n,
                   100.0 * keep_rate, samples_per_sec);
    }
    if (options.on_epoch_end) options.on_epoch_end(epoch);}

}  // namespace

TrainedSelector::TrainedSelector(
    std::unique_ptr<selectors::Backbone> backbone,
    std::unique_ptr<nn::Linear> classifier, size_t num_classes,
    std::string display_name)
    : backbone_(std::move(backbone)),
      classifier_(std::move(classifier)),
      num_classes_(num_classes),
      display_name_(std::move(display_name)) {}

Status TrainedSelector::Fit(const selectors::TrainingData& /*data*/) {
  return Status::FailedPrecondition(
      "TrainedSelector is produced by core::TrainSelector; call that instead");
}

StatusOr<nn::Tensor> TrainedSelector::Encode(
    const std::vector<std::vector<float>>& windows) const {
  if (windows.empty()) return Status::InvalidArgument("no windows");
  const size_t L = backbone_->input_length();
  for (const auto& w : windows) {
    if (w.size() != L) {
      return Status::InvalidArgument("window length mismatch with selector");
    }
  }
  nn::Tensor features({windows.size(), backbone_->feature_dim()});
  const size_t kBatch = 256;
  nn::Tensor x;
  for (size_t off = 0; off < windows.size(); off += kBatch) {
    // Batches are consecutive windows: copy the rows directly instead of
    // materializing an index vector of consecutive integers.
    const size_t bs = std::min(windows.size(), off + kBatch) - off;
    x.Resize({bs, L});
    for (size_t i = 0; i < bs; ++i) {
      std::copy(windows[off + i].begin(), windows[off + i].end(),
                x.raw() + i * L);
    }
    nn::Tensor z = backbone_->Forward(x, /*training=*/false);
    std::copy(z.raw(), z.raw() + z.size(),
              features.raw() + off * backbone_->feature_dim());
  }
  return features;
}

StatusOr<nn::Tensor> TrainedSelector::Logits(
    const std::vector<std::vector<float>>& windows) const {
  KDSEL_ASSIGN_OR_RETURN(nn::Tensor features, Encode(windows));
  return classifier_->Forward(features, /*training=*/false);
}

StatusOr<std::vector<int>> TrainedSelector::Predict(
    const std::vector<std::vector<float>>& windows) const {
  KDSEL_ASSIGN_OR_RETURN(nn::Tensor logits, Logits(windows));
  std::vector<int> out(windows.size());
  const size_t m = logits.dim(1);
  for (size_t i = 0; i < windows.size(); ++i) {
    const float* row = logits.raw() + i * m;
    size_t best = 0;
    for (size_t j = 1; j < m; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

std::vector<nn::Quantizable*> TrainedSelector::QuantizableLayers() const {
  auto* self = const_cast<TrainedSelector*>(this);
  std::vector<nn::Quantizable*> layers =
      nn::CollectQuantizableLayers(*self->backbone_);
  self->classifier_->CollectQuantizable(&layers);
  return layers;
}

StatusOr<std::unique_ptr<TrainedSelector>> TrainedSelector::QuantizeInt8(
    const std::vector<std::vector<float>>& calibration_windows) const {
  if (calibration_windows.empty()) {
    return Status::InvalidArgument("int8 calibration needs at least 1 window");
  }
  KDSEL_ASSIGN_OR_RETURN(auto quantized, Clone());
  std::vector<nn::Quantizable*> layers = quantized->QuantizableLayers();
  if (layers.empty()) {
    return Status::FailedPrecondition("architecture has no quantizable layer");
  }
  for (nn::Quantizable* q : layers) q->BeginQuantCalibration();
  // The calibration sweep is a plain inference pass: each layer records
  // the absmax of the activations it will later quantize.
  KDSEL_RETURN_NOT_OK(quantized->Logits(calibration_windows).status());
  for (nn::Quantizable* q : layers) q->EndQuantCalibration();
  quantized->int8_ = true;
  return quantized;
}

StatusOr<std::unique_ptr<TrainedSelector>> TrainedSelector::Clone() const {
  Rng rng(0);  // Initialization is overwritten by the weight copy below.
  KDSEL_ASSIGN_OR_RETURN(
      auto backbone, selectors::BuildBackbone(backbone_->name(),
                                              backbone_->input_length(), rng));
  auto classifier =
      std::make_unique<nn::Linear>(backbone->feature_dim(), num_classes_, rng);

  auto collect = [](selectors::Backbone& b, nn::Linear& c) {
    std::vector<nn::Tensor*> tensors;
    for (nn::Parameter* p : b.Parameters()) tensors.push_back(&p->value);
    for (nn::Tensor* t : b.StateTensors()) tensors.push_back(t);
    for (nn::Parameter* p : c.Parameters()) tensors.push_back(&p->value);
    return tensors;
  };
  std::vector<nn::Tensor*> src = collect(*backbone_, *classifier_);
  std::vector<nn::Tensor*> dst = collect(*backbone, *classifier);
  if (src.size() != dst.size()) {
    return Status::Internal("clone rebuilt a different architecture");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i]->shape() != dst[i]->shape()) {
      return Status::Internal("clone tensor shape mismatch");
    }
    *dst[i] = *src[i];
  }
  auto clone = std::make_unique<TrainedSelector>(std::move(backbone),
                                                 std::move(classifier),
                                                 num_classes_, display_name_);
  if (int8_) {
    // Re-quantize the clone from its (just copied) fp32 weights and the
    // source's activation scales; weight quantization is deterministic,
    // so the clone serves bit-identical int8 results.
    KDSEL_RETURN_NOT_OK(nn::ApplyActivationScales(
        clone->QuantizableLayers(),
        nn::CollectActivationScales(QuantizableLayers())));
    clone->int8_ = true;
  }
  return clone;
}

Status TrainedSelector::Save(const std::string& prefix) const {
  if (input_length() > kMaxInputLength || num_classes_ > kMaxClasses) {
    return Status::InvalidArgument(
        "checkpoint bounds are input_length <= " +
        std::to_string(kMaxInputLength) +
        " and num_classes <= " + std::to_string(kMaxClasses));
  }
  std::ofstream meta(prefix + ".meta");
  if (!meta) return Status::IoError("cannot write " + prefix + ".meta");
  meta << "backbone=" << backbone_->name() << "\n";
  meta << "input_length=" << backbone_->input_length() << "\n";
  meta << "num_classes=" << num_classes_ << "\n";
  meta << "display_name=" << display_name_ << "\n";
  if (int8_) meta << "quant=int8\n";
  if (!meta) return Status::IoError("write failed: " + prefix + ".meta");
  meta.close();

  std::vector<const nn::Tensor*> tensors;
  for (nn::Parameter* p : backbone_->Parameters()) tensors.push_back(&p->value);
  for (nn::Tensor* t : backbone_->StateTensors()) tensors.push_back(t);
  for (nn::Parameter* p : classifier_->Parameters()) {
    tensors.push_back(&p->value);
  }
  // Int8 checkpoints persist fp32 weights + the activation scales as one
  // trailing tensor: weight quantization is deterministic, so the scales
  // alone reproduce the quantized model bit-for-bit on load.
  nn::Tensor scales;
  if (int8_) {
    const std::vector<float> flat =
        nn::CollectActivationScales(QuantizableLayers());
    scales.Resize({flat.size()});
    std::copy(flat.begin(), flat.end(), scales.raw());
    tensors.push_back(&scales);
  }
  return nn::WriteTensors(tensors, prefix + ".weights");
}

StatusOr<std::unique_ptr<TrainedSelector>> TrainedSelector::Load(
    const std::string& prefix) {
  std::ifstream meta(prefix + ".meta");
  if (!meta) return Status::IoError("cannot read " + prefix + ".meta");
  std::string backbone_name, display_name = "NN-selector";
  size_t input_length = 0, num_classes = 0;
  bool int8 = false;
  // Strict digit parsing: corrupt metadata must surface as a Status, not
  // as a std::stoul exception escaping the library.
  auto parse_size = [](const std::string& value, size_t& out) {
    auto parsed = ParseSize(value);
    if (!parsed.ok()) return false;
    out = *parsed;
    return true;
  };
  std::string line;
  while (std::getline(meta, line)) {
    auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    std::string key = line.substr(0, eq), value = line.substr(eq + 1);
    if (key == "backbone") backbone_name = value;
    if (key == "input_length" && (!parse_size(value, input_length) ||
                                  input_length > kMaxInputLength)) {
      return Status::IoError("invalid input_length in selector meta file");
    }
    if (key == "num_classes" && (!parse_size(value, num_classes) ||
                                 num_classes > kMaxClasses)) {
      return Status::IoError("invalid num_classes in selector meta file");
    }
    if (key == "display_name") display_name = value;
    if (key == "quant") {
      if (value != "int8") {
        return Status::IoError("unsupported quant mode in selector meta file");
      }
      int8 = true;
    }
  }
  if (backbone_name.empty() || input_length == 0 || num_classes == 0) {
    return Status::IoError("incomplete selector meta file");
  }
  Rng rng(0);  // Initialization is overwritten by the checkpoint load.
  KDSEL_ASSIGN_OR_RETURN(auto backbone,
                         selectors::BuildBackbone(backbone_name, input_length,
                                                  rng));
  auto classifier =
      std::make_unique<nn::Linear>(backbone->feature_dim(), num_classes, rng);

  KDSEL_ASSIGN_OR_RETURN(auto tensors, nn::ReadTensors(prefix + ".weights"));
  std::vector<nn::Tensor*> targets;
  for (nn::Parameter* p : backbone->Parameters()) targets.push_back(&p->value);
  for (nn::Tensor* t : backbone->StateTensors()) targets.push_back(t);
  for (nn::Parameter* p : classifier->Parameters()) {
    targets.push_back(&p->value);
  }
  // Int8 checkpoints carry one trailing activation-scales tensor past the
  // fp32 weights (see Save).
  const size_t expected = targets.size() + (int8 ? 1 : 0);
  if (expected != tensors.size()) {
    return Status::FailedPrecondition("checkpoint/architecture mismatch");
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i]->shape() != tensors[i].shape()) {
      return Status::FailedPrecondition("checkpoint tensor shape mismatch");
    }
    *targets[i] = std::move(tensors[i]);
  }
  auto selector = std::make_unique<TrainedSelector>(std::move(backbone),
                                                    std::move(classifier),
                                                    num_classes, display_name);
  if (int8) {
    const nn::Tensor& scales = tensors.back();
    KDSEL_RETURN_NOT_OK(nn::ApplyActivationScales(
        selector->QuantizableLayers(),
        std::vector<float>(scales.raw(), scales.raw() + scales.size())));
    selector->int8_ = true;
  }
  return selector;
}

StatusOr<std::unique_ptr<TrainedSelector>> TrainSelector(
    const SelectorTrainingData& data, const TrainerOptions& options,
    TrainStats* stats) {
  KDSEL_RETURN_NOT_OK(ValidateSelectorTrainingData(data, options));
  KDSEL_SPAN("trainer.train");
  const double t_begin = obs::NowSeconds();

  const size_t n = data.size();
  const size_t input_length = data.windows[0].size();
  const size_t m = data.num_classes;

  Rng rng(options.seed);
  KDSEL_ASSIGN_OR_RETURN(
      auto backbone,
      selectors::BuildBackbone(options.backbone, input_length, rng));
  auto classifier =
      std::make_unique<nn::Linear>(backbone->feature_dim(), m, rng);

  // PISL: precompute soft labels from the performance matrix.
  nn::Tensor soft_labels;
  if (options.use_pisl) {
    KDSEL_ASSIGN_OR_RETURN(soft_labels,
                           BuildSoftLabels(data.performance, options.t_soft));
  }

  // MKI: embed the metadata texts once with the frozen encoder. Texts
  // repeat heavily (every window of a series shares one text), so only
  // unique texts are encoded and samples index into them.
  std::unique_ptr<MkiHead> mki;
  nn::Tensor text_embeddings;
  std::vector<size_t> text_index;
  if (options.use_mki) {
    std::vector<std::string> unique_texts;
    std::map<std::string, size_t> text_ids;
    text_index.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const std::string& t = data.texts[data.TextRow(i)];
      auto [it, inserted] = text_ids.try_emplace(t, unique_texts.size());
      if (inserted) unique_texts.push_back(t);
      text_index.push_back(it->second);
    }
    const text::HashedTextEncoder& encoder = text::DefaultTextEncoder();
    text_embeddings = encoder.EncodeBatch(unique_texts);
    MkiHead::Options mo;
    mo.ts_feature_dim = backbone->feature_dim();
    mo.text_feature_dim = encoder.output_dim();
    mo.hidden = options.mki_hidden;
    mo.shared_dim = options.mki_shared_dim;
    mo.temperature = options.infonce_temperature;
    mo.lambda = options.lambda;
    mki = std::make_unique<MkiHead>(mo, rng);
  }

  std::vector<nn::Parameter*> params = backbone->Parameters();
  for (auto* p : classifier->Parameters()) params.push_back(p);
  if (mki) {
    for (auto* p : mki->Parameters()) params.push_back(p);
  }
  nn::Adam optimizer(params, options.learning_rate, 0.9, 0.999, 1e-8,
                     options.weight_decay);

  Pruner pruner(options.pruning, n, data.windows);

  const double alpha = options.use_pisl ? options.alpha : 0.0;
  if (stats) {
    stats->samples_visited = 0;
    stats->full_dataset_visits = options.epochs * n;
    stats->epoch_loss.clear();
    stats->epoch_loss.reserve(options.epochs);
  }

  // Per-batch state hoisted out of the loops: vectors keep their
  // capacity and tensors their pooled buffers across batches, so after
  // the first epoch warms everything up the hot loop performs no heap
  // allocations (asserted by train_alloc_test).
  EpochPlan plan;
  std::vector<size_t> perm;
  std::vector<size_t> idx;
  std::vector<float> weights;
  std::vector<int> batch_labels;
  std::vector<size_t> soft_rows;
  std::vector<size_t> text_rows;
  nn::Tensor x, soft_batch, z_k;
  nn::LossResult hard, soft;
  MkiHead::Result mki_out;

  // Batch scratch capacity up front: the epoch loop must not grow them.
  idx.reserve(options.batch_size);
  weights.reserve(options.batch_size);

  TrainerMetrics& metrics = Metrics();
  EpochContext ctx{options,      data,     soft_labels, mki.get(),
                   text_embeddings,        text_index,  params,
                   optimizer,    pruner,   rng,         alpha,
                   n,            stats,    metrics,     *backbone,
                   *classifier,  plan,     perm,        idx,
                   weights,      batch_labels,          soft_rows,
                   text_rows,    x,        soft_batch,  z_k,
                   hard,         soft,     mki_out};
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    RunEpoch(ctx, epoch);
  }

  if (stats) {
    stats->train_seconds = obs::NowSeconds() - t_begin;
  }
  std::string display_name = options.backbone;
  if (options.use_pisl || options.use_mki ||
      options.pruning.mode != PruningMode::kNone) {
    display_name += "+KDSelector";
  }
  // Hand back a copy without the last batch's training-forward caches:
  // inference never touches them, so they would stay resident for the
  // selector's whole life.
  const TrainedSelector trained(std::move(backbone), std::move(classifier), m,
                                display_name);
  return trained.Clone();
}

}  // namespace kdsel::core
