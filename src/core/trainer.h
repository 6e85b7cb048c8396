#ifndef KDSEL_CORE_TRAINER_H_
#define KDSEL_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mki.h"
#include "core/pruning.h"
#include "nn/layers.h"
#include "selectors/backbone.h"
#include "selectors/selector.h"
#include "text/text_encoder.h"

namespace kdsel::core {

/// Training set for an NN selector, carrying the knowledge sources the
/// KDSelector modules consume beyond windows + hard labels:
/// `performance` (detector scores) feeds PISL and `texts`
/// (natural-language metadata) feeds MKI. Both are optional; the
/// trainer degrades to the standard framework without them.
///
/// Two layouts are supported. Per-sample (legacy): `performance`/`texts`
/// hold one entry per window and the index vectors stay empty. Shared
/// (what BuildSelectorTrainingData emits): one entry per *series*, with
/// `performance_index`/`text_index` mapping each window to its series'
/// row — all windows of a series share storage instead of copying it.
struct SelectorTrainingData {
  std::vector<std::vector<float>> windows;        ///< [N][L].
  std::vector<int> labels;                        ///< [N] hard labels.
  std::vector<std::vector<float>> performance;    ///< [N][m], [P][m] or empty.
  std::vector<size_t> performance_index;  ///< [N] row per window, or empty.
  std::vector<std::string> texts;                 ///< [N], [P] or empty.
  std::vector<size_t> text_index;         ///< [N] text per window, or empty.
  size_t num_classes = 0;

  size_t size() const { return windows.size(); }

  /// Performance row feeding sample i (resolves the optional indirection).
  size_t PerformanceRow(size_t i) const {
    return performance_index.empty() ? i : performance_index[i];
  }
  /// Text entry feeding sample i.
  size_t TextRow(size_t i) const {
    return text_index.empty() ? i : text_index[i];
  }
};

/// All knobs of the KDSelector learning framework. The three paper
/// modules are independently switchable (plug-and-play):
/// PISL via `use_pisl`, MKI via `use_mki`, PA/InfoBatch via `pruning`.
struct TrainerOptions {
  std::string backbone = "ResNet";
  size_t epochs = 15;
  size_t batch_size = 64;
  double learning_rate = 1e-3;
  double weight_decay = 1e-4;
  double clip_norm = 5.0;  ///< Gradient bound (Sect. A.1 assumption).

  // PISL.
  bool use_pisl = false;
  double t_soft = 0.2;  ///< Paper selects from {0.2, 0.22, 0.25}.
  double alpha = 0.4;    ///< Paper selects from {0.2, 0.4, 1.0}.

  // MKI.
  bool use_mki = false;
  double lambda = 1.0;          ///< Paper selects from {0.78, 1.0}.
  size_t mki_shared_dim = 64;   ///< H, from {64, 256}.
  size_t mki_hidden = 256;
  double infonce_temperature = 0.1;

  // PA / InfoBatch.
  PrunerOptions pruning;

  uint64_t seed = 1;
  bool verbose = false;

  /// Test/diagnostic hook invoked after each completed epoch (0-based).
  /// The allocation-regression test uses it to snapshot heap counters at
  /// epoch boundaries; leave empty in production use.
  std::function<void(size_t)> on_epoch_end;
};

/// Statistics of one training run, used by the benches to report the
/// paper's time/AUC trade-offs.
struct TrainStats {
  double train_seconds = 0.0;
  size_t samples_visited = 0;  ///< Total window visits across epochs.
  size_t full_dataset_visits = 0;  ///< epochs * N, for savings ratios.
  std::vector<double> epoch_loss;
};

/// An NN selector after training: encoder backbone + linear classifier.
/// Implements the generic window-level Selector interface and exposes
/// features/logits for analysis and the MKI/PISL internals for tests.
class TrainedSelector : public selectors::Selector {
 public:
  TrainedSelector(std::unique_ptr<selectors::Backbone> backbone,
                  std::unique_ptr<nn::Linear> classifier, size_t num_classes,
                  std::string display_name);

  std::string name() const override { return display_name_; }
  /// TrainedSelector is produced by TrainSelector; Fit is not supported.
  Status Fit(const selectors::TrainingData& data) override;
  StatusOr<std::vector<int>> Predict(
      const std::vector<std::vector<float>>& windows) const override;

  /// Encoder features z_T for a window batch (inference mode).
  StatusOr<nn::Tensor> Encode(
      const std::vector<std::vector<float>>& windows) const;
  /// Classifier logits for a window batch (inference mode).
  StatusOr<nn::Tensor> Logits(
      const std::vector<std::vector<float>>& windows) const;

  selectors::Backbone& backbone() { return *backbone_; }
  nn::Linear& classifier() { return *classifier_; }
  size_t num_classes() const { return num_classes_; }
  size_t input_length() const { return backbone_->input_length(); }

  /// Deep copy: rebuilds the architecture and copies every parameter and
  /// state tensor. Int8 quantization carries over: a clone of a
  /// quantized selector serves bit-identical int8 results. Serving needs
  /// no clone -- inference forwards write no module state, so any number
  /// of threads may call Predict/Logits/Encode on one selector -- but
  /// QuantizeInt8 calibrates a clone, never the (possibly shared) source.
  StatusOr<std::unique_ptr<TrainedSelector>> Clone() const;

  /// Post-training int8 quantization: clones this selector, runs an
  /// inference calibration sweep over `calibration_windows` to record
  /// per-tensor activation ranges, then quantizes every Linear/Conv1d/
  /// attention projection to int8 with per-output-channel weight scales.
  /// The original selector is untouched; training state does not carry
  /// over (the quantized copy is inference-only in practice, though its
  /// fp32 master weights remain intact).
  StatusOr<std::unique_ptr<TrainedSelector>> QuantizeInt8(
      const std::vector<std::vector<float>>& calibration_windows) const;

  /// True when the selector runs int8 inference. Recorded once, by
  /// QuantizeInt8, Load and Clone.
  bool IsInt8() const { return int8_; }

  /// Bounds on the architecture a checkpoint may describe. Selectors
  /// window 16-1,024 points and the model set has 12 detectors; a `.meta`
  /// beyond these bounds is corrupt. Serving what it describes could
  /// exhaust memory: a Transformer on a window with no small divisor
  /// attends over one token per point, T^2 scores per head.
  static constexpr size_t kMaxInputLength = size_t{1} << 12;
  static constexpr size_t kMaxClasses = size_t{1} << 12;

  /// Persists architecture info + weights as `<prefix>.meta` and
  /// `<prefix>.weights`. Refuses an architecture beyond the bounds
  /// above, which Load would refuse.
  Status Save(const std::string& prefix) const;
  /// Restores a selector saved with Save.
  static StatusOr<std::unique_ptr<TrainedSelector>> Load(
      const std::string& prefix);

 private:
  /// Quantizable layers in serialization order (backbone depth-first,
  /// then classifier). Collection mutates nothing, hence the const_cast.
  std::vector<nn::Quantizable*> QuantizableLayers() const;

  std::unique_ptr<selectors::Backbone> backbone_;
  std::unique_ptr<nn::Linear> classifier_;
  size_t num_classes_;
  std::string display_name_;
  bool int8_ = false;
};

/// Trains an NN selector with the KDSelector framework (paper Fig. 2):
/// standard hard-label cross-entropy, optionally blended with the PISL
/// soft-label term, optionally joined by the MKI InfoNCE term, iterating
/// only over the samples chosen per epoch by the configured pruner.
StatusOr<std::unique_ptr<TrainedSelector>> TrainSelector(
    const SelectorTrainingData& data, const TrainerOptions& options,
    TrainStats* stats);

}  // namespace kdsel::core

#endif  // KDSEL_CORE_TRAINER_H_
