#ifndef KDSEL_CORE_MKI_H_
#define KDSEL_CORE_MKI_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/module.h"

namespace kdsel::core {

/// MKI (meta-knowledge integration), paper Sect. 3.
///
/// Holds the two trainable projections h_T (time-series features -> H)
/// and h_K (frozen text embeddings -> H) and computes the InfoNCE loss
/// between the projected views, which lower-bounds the mutual
/// information between time-series features and metadata text.
///
/// Usage per training step:
///   auto out = head.ComputeLoss(z_t, z_k, weights);   // accumulates
///   encoder_grad += out.grad_z_t * lambda (already scaled);
/// The projections' parameter gradients are accumulated internally, so
/// include head.Parameters() in the optimizer's parameter list.
class MkiHead {
 public:
  struct Options {
    size_t ts_feature_dim = 0;    ///< D of the backbone (required).
    size_t text_feature_dim = 768;
    size_t hidden = 256;          ///< MLP hidden width (paper: 256).
    size_t shared_dim = 64;       ///< H (paper selects from {64, 256}).
    double temperature = 0.1;     ///< InfoNCE temperature (paper: 0.1).
    double lambda = 1.0;          ///< Loss weight (paper sweeps {0.78, 1}).
  };

  MkiHead(const Options& options, Rng& rng);

  struct Result {
    double loss = 0.0;                  ///< lambda * mean InfoNCE.
    std::vector<float> per_sample;      ///< Unweighted per-sample InfoNCE.
    nn::Tensor grad_z_t;                ///< d(lambda*loss)/d z_T, [B, D].
  };

  /// Computes the weighted MKI loss for a batch, accumulating gradients
  /// into the projection parameters and returning the gradient w.r.t.
  /// the time-series features so the caller can continue backprop into
  /// the encoder. `group_ids` (empty or size B) marks samples sharing
  /// one metadata text; same-group pairs are excluded as InfoNCE
  /// negatives (they are false negatives).
  Result ComputeLoss(const nn::Tensor& z_t, const nn::Tensor& z_k,
                     const std::vector<float>& weights,
                     const std::vector<size_t>& group_ids = {});
  /// Out-param form: reuses `result`'s buffers (and an internal InfoNCE
  /// scratch) so the trainer's batch loop stays allocation-free at
  /// steady state. `group_ids` is required here to keep the overload
  /// set unambiguous.
  void ComputeLoss(const nn::Tensor& z_t, const nn::Tensor& z_k,
                   const std::vector<float>& weights,
                   const std::vector<size_t>& group_ids, Result* result);

  /// h_T's parameters, then h_K's; the optimizer's state follows this
  /// order.
  std::vector<nn::Parameter*> Parameters();

  const Options& options() const { return options_; }

 private:
  Options options_;
  nn::Sequential h_t_;
  nn::Sequential h_k_;
  // h_k_'s three layers, owned by h_k_. Its backward runs layer by layer
  // so the first one stops at the frozen text embeddings.
  nn::Linear* h_k_in_ = nullptr;
  nn::ReLU* h_k_act_ = nullptr;
  nn::Linear* h_k_out_ = nullptr;
  nn::InfoNceResult nce_scratch_;
};

}  // namespace kdsel::core

#endif  // KDSEL_CORE_MKI_H_
