#ifndef KDSEL_NN_MODULE_H_
#define KDSEL_NN_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace kdsel::nn {

class Quantizable;

/// A learnable tensor with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class for all NN layers/blocks.
///
/// Contract: `Forward(x, /*training=*/true)` consumes a batch and caches
/// whatever `Backward` needs; `Backward` consumes dL/d(output) and
/// returns dL/d(input), accumulating parameter gradients into
/// `Parameter::grad` (so callers must zero gradients between steps,
/// normally via the optimizer). A module's Backward must be called at
/// most once per training Forward.
///
/// `Forward(x, /*training=*/false)` is inference: it reads parameters
/// and running statistics and writes no member state, so any number of
/// threads may run it on one module at once. The one exception is an
/// int8 calibration sweep (nn/quantize.h), which records activation
/// ranges into the layers; it only runs on the private copy
/// `TrainedSelector::QuantizeInt8` makes before anything can share it.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual Tensor Forward(const Tensor& input, bool training) = 0;
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// All learnable parameters (non-owning; stable for module lifetime).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Non-trainable state that must persist with the model (e.g. batch-norm
  /// running statistics). Serialized alongside parameters.
  virtual std::vector<Tensor*> StateTensors() { return {}; }

  /// Appends the int8-quantizable layers inside this module, depth-first
  /// in declaration order — the deterministic order activation scales
  /// serialize in (see nn/quantize.h). Default: none.
  virtual void CollectQuantizable(std::vector<Quantizable*>* out) {
    (void)out;
  }
};

/// Chains modules; Forward runs them in order, Backward in reverse.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module and returns a raw pointer for convenience.
  template <typename M>
  M* Add(std::unique_ptr<M> module) {
    M* raw = module.get();
    modules_.push_back(std::move(module));
    return raw;
  }

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<Tensor*> StateTensors() override;
  void CollectQuantizable(std::vector<Quantizable*>* out) override;

  size_t size() const { return modules_.size(); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

/// He-normal initialization for weights feeding a ReLU.
void InitHeNormal(Tensor& w, size_t fan_in, Rng& rng);
/// Xavier-uniform initialization.
void InitXavierUniform(Tensor& w, size_t fan_in, size_t fan_out, Rng& rng);

/// Total number of scalar parameters in a module.
size_t ParameterCount(Module& module);

}  // namespace kdsel::nn

#endif  // KDSEL_NN_MODULE_H_
