#include "selectors/backbone.h"

namespace kdsel::selectors {

namespace {

/// Reshapes window batches [B, L] to conv input [B, 1, L].
class ToConvInput : public nn::Module {
 public:
  nn::Tensor Forward(const nn::Tensor& input, bool /*training*/) override {
    KDSEL_CHECK(input.rank() == 2);
    return input.Reshaped({input.dim(0), 1, input.dim(1)});
  }
  nn::Tensor Backward(const nn::Tensor& grad_output) override {
    KDSEL_CHECK(grad_output.rank() == 3 && grad_output.dim(1) == 1);
    return grad_output.Reshaped({grad_output.dim(0), grad_output.dim(2)});
  }
};

/// Concatenates [B, C_i, L] tensors along the channel axis.
nn::Tensor ConcatChannels(const std::vector<const nn::Tensor*>& parts) {
  KDSEL_CHECK(!parts.empty());
  const size_t B = parts[0]->dim(0), L = parts[0]->dim(2);
  size_t total_c = 0;
  for (const nn::Tensor* p : parts) {
    KDSEL_CHECK(p->rank() == 3 && p->dim(0) == B && p->dim(2) == L);
    total_c += p->dim(1);
  }
  nn::Tensor out({B, total_c, L});
  for (size_t b = 0; b < B; ++b) {
    size_t c_off = 0;
    for (const nn::Tensor* p : parts) {
      const size_t c = p->dim(1);
      std::copy(p->raw() + b * c * L, p->raw() + (b + 1) * c * L,
                out.raw() + (b * total_c + c_off) * L);
      c_off += c;
    }
  }
  return out;
}

/// Splits the channel axis back into parts of the given channel counts.
std::vector<nn::Tensor> SplitChannels(const nn::Tensor& x,
                                      const std::vector<size_t>& channels) {
  const size_t B = x.dim(0), L = x.dim(2);
  std::vector<nn::Tensor> parts;
  parts.reserve(channels.size());
  size_t c_off = 0;
  const size_t total_c = x.dim(1);
  for (size_t c : channels) {
    nn::Tensor part({B, c, L});
    for (size_t b = 0; b < B; ++b) {
      std::copy(x.raw() + (b * total_c + c_off) * L,
                x.raw() + (b * total_c + c_off + c) * L,
                part.raw() + b * c * L);
    }
    parts.push_back(std::move(part));
    c_off += c;
  }
  KDSEL_CHECK(c_off == total_c);
  return parts;
}

}  // namespace

// -------------------------------------------------------- ResidualBlock

ResidualBlock::ResidualBlock(size_t in_channels, size_t out_channels, Rng& rng)
    : conv1_(in_channels, out_channels, 7, rng, /*use_bias=*/false),
      conv2_(out_channels, out_channels, 5, rng, /*use_bias=*/false),
      conv3_(out_channels, out_channels, 3, rng, /*use_bias=*/false),
      bn1_(out_channels),
      bn2_(out_channels),
      bn3_(out_channels),
      project_(in_channels != out_channels) {
  if (project_) {
    shortcut_conv_ = std::make_unique<nn::Conv1d>(in_channels, out_channels,
                                                  1, rng, /*use_bias=*/false);
    shortcut_bn_ = std::make_unique<nn::BatchNorm1d>(out_channels);
  }
}

nn::Tensor ResidualBlock::Forward(const nn::Tensor& input, bool training) {
  nn::Tensor h = relu1_.Forward(bn1_.Forward(conv1_.Forward(input, training),
                                             training),
                                training);
  h = relu2_.Forward(bn2_.Forward(conv2_.Forward(h, training), training),
                     training);
  h = bn3_.Forward(conv3_.Forward(h, training), training);
  nn::Tensor shortcut =
      project_ ? shortcut_bn_->Forward(
                     shortcut_conv_->Forward(input, training), training)
               : input;
  h.AddInPlace(shortcut);
  return relu_out_.Forward(h, training);
}

nn::Tensor ResidualBlock::Backward(const nn::Tensor& grad_output) {
  nn::Tensor g = relu_out_.Backward(grad_output);
  // Main path.
  nn::Tensor gm = conv1_.Backward(
      bn1_.Backward(relu1_.Backward(conv2_.Backward(bn2_.Backward(
          relu2_.Backward(conv3_.Backward(bn3_.Backward(g))))))));
  // Shortcut path.
  nn::Tensor gs =
      project_ ? shortcut_conv_->Backward(shortcut_bn_->Backward(g)) : g;
  gm.AddInPlace(gs);
  return gm;
}

std::vector<nn::Parameter*> ResidualBlock::Parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Module* m : std::initializer_list<nn::Module*>{
           &conv1_, &bn1_, &conv2_, &bn2_, &conv3_, &bn3_}) {
    for (auto* p : m->Parameters()) params.push_back(p);
  }
  if (project_) {
    for (auto* p : shortcut_conv_->Parameters()) params.push_back(p);
    for (auto* p : shortcut_bn_->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Tensor*> ResidualBlock::StateTensors() {
  std::vector<nn::Tensor*> state;
  for (nn::Module* m :
       std::initializer_list<nn::Module*>{&bn1_, &bn2_, &bn3_}) {
    for (auto* t : m->StateTensors()) state.push_back(t);
  }
  if (project_) {
    for (auto* t : shortcut_bn_->StateTensors()) state.push_back(t);
  }
  return state;
}

// ------------------------------------------------------ InceptionModule

InceptionModule::InceptionModule(size_t in_channels, size_t bottleneck,
                                 size_t filters_per_branch, Rng& rng)
    : filters_(filters_per_branch),
      bottleneck_(in_channels, bottleneck, 1, rng, /*use_bias=*/false),
      branch1_(bottleneck, filters_per_branch, 5, rng, /*use_bias=*/false),
      branch2_(bottleneck, filters_per_branch, 11, rng, /*use_bias=*/false),
      branch3_(bottleneck, filters_per_branch, 23, rng, /*use_bias=*/false),
      pool_conv_(in_channels, filters_per_branch, 1, rng, /*use_bias=*/false),
      bn_(4 * filters_per_branch) {}

nn::Tensor InceptionModule::Forward(const nn::Tensor& input, bool training) {
  nn::Tensor b = bottleneck_.Forward(input, training);
  nn::Tensor o1 = branch1_.Forward(b, training);
  nn::Tensor o2 = branch2_.Forward(b, training);
  nn::Tensor o3 = branch3_.Forward(b, training);
  nn::Tensor p = pool_conv_.Forward(pool_.Forward(input, training), training);
  nn::Tensor cat = ConcatChannels({&o1, &o2, &o3, &p});
  return relu_.Forward(bn_.Forward(cat, training), training);
}

nn::Tensor InceptionModule::Backward(const nn::Tensor& grad_output) {
  nn::Tensor g = bn_.Backward(relu_.Backward(grad_output));
  auto parts = SplitChannels(g, {filters_, filters_, filters_, filters_});
  nn::Tensor gb = branch1_.Backward(parts[0]);
  gb.AddInPlace(branch2_.Backward(parts[1]));
  gb.AddInPlace(branch3_.Backward(parts[2]));
  nn::Tensor gx = bottleneck_.Backward(gb);
  gx.AddInPlace(pool_.Backward(pool_conv_.Backward(parts[3])));
  return gx;
}

std::vector<nn::Parameter*> InceptionModule::Parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Module* m : std::initializer_list<nn::Module*>{
           &bottleneck_, &branch1_, &branch2_, &branch3_, &pool_conv_, &bn_}) {
    for (auto* p : m->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Tensor*> InceptionModule::StateTensors() {
  return bn_.StateTensors();
}

// ------------------------------------------------------------- ConvNet

ConvNetBackbone::ConvNetBackbone(size_t input_length, size_t base_channels,
                                 Rng& rng)
    : input_length_(input_length), feature_dim_(2 * base_channels) {
  seq_.Add(std::make_unique<ToConvInput>());
  seq_.Add(std::make_unique<nn::Conv1d>(1, base_channels, 7, rng, false));
  seq_.Add(std::make_unique<nn::BatchNorm1d>(base_channels));
  seq_.Add(std::make_unique<nn::ReLU>());
  seq_.Add(std::make_unique<nn::Conv1d>(base_channels, 2 * base_channels, 5,
                                        rng, false));
  seq_.Add(std::make_unique<nn::BatchNorm1d>(2 * base_channels));
  seq_.Add(std::make_unique<nn::ReLU>());
  seq_.Add(std::make_unique<nn::Conv1d>(2 * base_channels, 2 * base_channels,
                                        3, rng, false));
  seq_.Add(std::make_unique<nn::BatchNorm1d>(2 * base_channels));
  seq_.Add(std::make_unique<nn::ReLU>());
  seq_.Add(std::make_unique<nn::GlobalAvgPool1d>());
}

nn::Tensor ConvNetBackbone::Forward(const nn::Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 2 && input.dim(1) == input_length_);
  return seq_.Forward(input, training);
}

nn::Tensor ConvNetBackbone::Backward(const nn::Tensor& grad_output) {
  return seq_.Backward(grad_output);
}

// -------------------------------------------------------------- ResNet

ResNetBackbone::ResNetBackbone(size_t input_length, size_t base_channels,
                               Rng& rng)
    : input_length_(input_length), feature_dim_(2 * base_channels) {
  seq_.Add(std::make_unique<ToConvInput>());
  seq_.Add(std::make_unique<ResidualBlock>(1, base_channels, rng));
  seq_.Add(std::make_unique<ResidualBlock>(base_channels, 2 * base_channels,
                                           rng));
  seq_.Add(std::make_unique<ResidualBlock>(2 * base_channels,
                                           2 * base_channels, rng));
  seq_.Add(std::make_unique<nn::GlobalAvgPool1d>());
}

nn::Tensor ResNetBackbone::Forward(const nn::Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 2 && input.dim(1) == input_length_);
  return seq_.Forward(input, training);
}

nn::Tensor ResNetBackbone::Backward(const nn::Tensor& grad_output) {
  return seq_.Backward(grad_output);
}

// ------------------------------------------------------- InceptionTime

InceptionTimeBackbone::InceptionTimeBackbone(size_t input_length,
                                             size_t filters, Rng& rng)
    : input_length_(input_length), feature_dim_(4 * filters) {
  seq_.Add(std::make_unique<ToConvInput>());
  seq_.Add(std::make_unique<InceptionModule>(1, std::max<size_t>(filters, 1),
                                             filters, rng));
  seq_.Add(std::make_unique<InceptionModule>(4 * filters, filters, filters,
                                             rng));
  seq_.Add(std::make_unique<nn::GlobalAvgPool1d>());
}

nn::Tensor InceptionTimeBackbone::Forward(const nn::Tensor& input,
                                          bool training) {
  KDSEL_CHECK(input.rank() == 2 && input.dim(1) == input_length_);
  return seq_.Forward(input, training);
}

nn::Tensor InceptionTimeBackbone::Backward(const nn::Tensor& grad_output) {
  return seq_.Backward(grad_output);
}

// --------------------------------------------------------- Transformer

TransformerBackbone::TransformerBackbone(size_t input_length,
                                         const Options& options, Rng& rng)
    : input_length_(input_length),
      options_(options),
      num_patches_(input_length / options.patch_size),
      patch_embed_(options.patch_size, options.dim, rng),
      pos_embed_("transformer.pos_embed",
                 nn::Tensor({input_length / options.patch_size, options.dim})),
      final_norm_(options.dim) {
  KDSEL_CHECK(input_length % options_.patch_size == 0);
  KDSEL_CHECK(num_patches_ >= 1);
  for (float& v : pos_embed_.value.mutable_data()) {
    v = static_cast<float>(rng.Normal(0.0, 0.02));
  }
  for (size_t i = 0; i < options_.layers; ++i) {
    blocks_.push_back(std::make_unique<nn::TransformerEncoderBlock>(
        options_.dim, options_.heads, options_.ffn_hidden, options_.dropout,
        rng));
  }
}

std::vector<nn::Parameter*> TransformerBackbone::Parameters() {
  std::vector<nn::Parameter*> params = patch_embed_.Parameters();
  params.push_back(&pos_embed_);
  for (auto& b : blocks_) {
    for (auto* p : b->Parameters()) params.push_back(p);
  }
  for (auto* p : final_norm_.Parameters()) params.push_back(p);
  return params;
}

nn::Tensor TransformerBackbone::Forward(const nn::Tensor& input,
                                        bool training) {
  KDSEL_CHECK(input.rank() == 2 && input.dim(1) == input_length_);
  const size_t B = input.dim(0);
  const size_t T = num_patches_, P = options_.patch_size, D = options_.dim;
  if (training) cached_batch_ = {B};
  // [B, L] rows are already contiguous patches: view as [B*T, P].
  nn::Tensor patches = input.Reshaped({B * T, P});
  nn::Tensor x = patch_embed_.Forward(patches, training).Reshaped({B, T, D});
  for (size_t b = 0; b < B; ++b) {
    float* row = x.raw() + b * T * D;
    const float* pos = pos_embed_.value.raw();
    for (size_t i = 0; i < T * D; ++i) row[i] += pos[i];
  }
  for (auto& block : blocks_) x = block->Forward(x, training);
  x = final_norm_.Forward(x, training);
  // Mean pooling over tokens.
  nn::Tensor out({B, D});
  const float inv_t = 1.0f / static_cast<float>(T);
  for (size_t b = 0; b < B; ++b) {
    for (size_t t = 0; t < T; ++t) {
      const float* row = x.raw() + (b * T + t) * D;
      float* o = out.raw() + b * D;
      for (size_t d = 0; d < D; ++d) o[d] += row[d] * inv_t;
    }
  }
  return out;
}

nn::Tensor TransformerBackbone::Backward(const nn::Tensor& grad_output) {
  const size_t B = cached_batch_[0];
  const size_t T = num_patches_, D = options_.dim;
  KDSEL_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == B &&
              grad_output.dim(1) == D);
  // Un-pool.
  nn::Tensor g({B, T, D});
  const float inv_t = 1.0f / static_cast<float>(T);
  for (size_t b = 0; b < B; ++b) {
    const float* go = grad_output.raw() + b * D;
    for (size_t t = 0; t < T; ++t) {
      float* row = g.raw() + (b * T + t) * D;
      for (size_t d = 0; d < D; ++d) row[d] = go[d] * inv_t;
    }
  }
  g = final_norm_.Backward(g);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  // Positional-embedding gradient sums over the batch.
  for (size_t b = 0; b < B; ++b) {
    const float* row = g.raw() + b * T * D;
    float* pg = pos_embed_.grad.raw();
    for (size_t i = 0; i < T * D; ++i) pg[i] += row[i];
  }
  nn::Tensor gp = patch_embed_.Backward(g.Reshaped({B * T, D}));
  return gp.Reshaped({B, input_length_});
}

// --------------------------------------------------------------- Factory

const std::vector<std::string>& BackboneNames() {
  static const std::vector<std::string> names{"ConvNet", "ResNet",
                                              "InceptionTime", "Transformer"};
  return names;
}

namespace {

/// make_unique with the base-typed return BuildBackbone needs (a raw
/// unique_ptr<Derived> would take two user-defined conversions to reach
/// StatusOr<unique_ptr<Backbone>>).
template <typename T, typename... Args>
std::unique_ptr<Backbone> MakeBackbone(Args&&... args) {
  return std::make_unique<T>(std::forward<Args>(args)...);
}

}  // namespace

StatusOr<std::unique_ptr<Backbone>> BuildBackbone(const std::string& name,
                                                  size_t input_length,
                                                  Rng& rng) {
  if (name == "ConvNet") {
    return MakeBackbone<ConvNetBackbone>(input_length, 16, rng);
  }
  if (name == "ResNet") {
    return MakeBackbone<ResNetBackbone>(input_length, 16, rng);
  }
  if (name == "InceptionTime") {
    return MakeBackbone<InceptionTimeBackbone>(input_length, 8, rng);
  }
  if (name == "Transformer") {
    TransformerBackbone::Options o;
    if (input_length % o.patch_size != 0) {
      // Fall back to a patch size that divides the window.
      for (size_t p = o.patch_size; p >= 1; --p) {
        if (input_length % p == 0) {
          o.patch_size = p;
          break;
        }
      }
    }
    return MakeBackbone<TransformerBackbone>(input_length, o, rng);
  }
  return Status::NotFound("unknown backbone: " + name);
}

}  // namespace kdsel::selectors
