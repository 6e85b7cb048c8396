#include "core/mki.h"

#include "obs/trace.h"

namespace kdsel::core {

MkiHead::MkiHead(const Options& options, Rng& rng) : options_(options) {
  KDSEL_CHECK(options_.ts_feature_dim > 0);
  h_t_.Add(std::make_unique<nn::Linear>(options_.ts_feature_dim,
                                        options_.hidden, rng));
  h_t_.Add(std::make_unique<nn::ReLU>());
  h_t_.Add(std::make_unique<nn::Linear>(options_.hidden, options_.shared_dim,
                                        rng));
  h_k_in_ = h_k_.Add(std::make_unique<nn::Linear>(options_.text_feature_dim,
                                                  options_.hidden, rng));
  h_k_act_ = h_k_.Add(std::make_unique<nn::ReLU>());
  h_k_out_ = h_k_.Add(std::make_unique<nn::Linear>(
      options_.hidden, options_.shared_dim, rng));
}

std::vector<nn::Parameter*> MkiHead::Parameters() {
  std::vector<nn::Parameter*> params = h_t_.Parameters();
  for (auto* p : h_k_.Parameters()) params.push_back(p);
  return params;
}

MkiHead::Result MkiHead::ComputeLoss(const nn::Tensor& z_t,
                                     const nn::Tensor& z_k,
                                     const std::vector<float>& weights,
                                     const std::vector<size_t>& group_ids) {
  Result result;
  ComputeLoss(z_t, z_k, weights, group_ids, &result);
  return result;
}

void MkiHead::ComputeLoss(const nn::Tensor& z_t, const nn::Tensor& z_k,
                          const std::vector<float>& weights,
                          const std::vector<size_t>& group_ids,
                          Result* result) {
  KDSEL_CHECK(z_t.rank() == 2 && z_t.dim(1) == options_.ts_feature_dim);
  KDSEL_CHECK(z_k.rank() == 2 && z_k.dim(1) == options_.text_feature_dim);
  KDSEL_CHECK(z_t.dim(0) == z_k.dim(0));

  KDSEL_SPAN("mki.infonce");
  nn::Tensor proj_t = h_t_.Forward(z_t, /*training=*/true);
  nn::Tensor proj_k = h_k_.Forward(z_k, /*training=*/true);
  nn::InfoNce(proj_t, proj_k, options_.temperature, weights, group_ids,
              &nce_scratch_);

  // Scale by lambda and backpropagate through both projections. The
  // text encoder itself is frozen, so the gradient stops at h_k's first
  // layer, which accumulates its parameter gradients only: no gradient
  // w.r.t. z_k is computed.
  const float lambda = static_cast<float>(options_.lambda);
  nce_scratch_.grad_a.ScaleInPlace(lambda);
  nce_scratch_.grad_b.ScaleInPlace(lambda);
  result->grad_z_t = h_t_.Backward(nce_scratch_.grad_a);
  h_k_in_->BackwardParams(
      h_k_act_->Backward(h_k_out_->Backward(nce_scratch_.grad_b)));
  result->loss = options_.lambda * nce_scratch_.mean_loss;
  result->per_sample.assign(nce_scratch_.per_sample.begin(),
                            nce_scratch_.per_sample.end());
}

}  // namespace kdsel::core
