#ifndef KDSEL_TEXT_TEXT_ENCODER_H_
#define KDSEL_TEXT_TEXT_ENCODER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace kdsel::text {

/// Splits text into lower-cased word tokens (alphanumeric runs).
std::vector<std::string> Tokenize(const std::string& text);

/// A frozen, deterministic text encoder standing in for the paper's
/// frozen BERT-base (see DESIGN.md substitutions).
///
/// Pipeline: word tokens and character trigrams are hashed into a
/// `vocab_dim`-sized sparse bag (feature hashing with sign hashing, a la
/// Weinberger et al.), which is projected to `output_dim` with a fixed
/// seeded random Gaussian matrix, then L2-normalized. The two properties
/// MKI needs — (i) frozen, (ii) texts with shared vocabulary map to
/// nearby vectors — both hold by construction.
class HashedTextEncoder {
 public:
  struct Options {
    size_t vocab_dim = 4096;   ///< Hashed bag-of-features width.
    size_t output_dim = 768;   ///< Matches BERT-base hidden size.
    uint64_t seed = 1234;      ///< Fixes the random projection.
  };

  explicit HashedTextEncoder(const Options& options);
  HashedTextEncoder() : HashedTextEncoder(Options{}) {}

  /// Embeds one text into a unit-norm vector of `output_dim()` floats.
  std::vector<float> Encode(const std::string& text) const;

  /// Embeds a batch into a [batch, output_dim] tensor.
  nn::Tensor EncodeBatch(const std::vector<std::string>& texts) const;

  size_t output_dim() const { return options_.output_dim; }
  const Options& options() const { return options_; }

 private:
  /// Sparse hashed bag of word + character-trigram features, L1-scaled.
  std::vector<std::pair<uint32_t, float>> HashFeatures(
      const std::string& text) const;

  Options options_;
  // Projection stored column-major by vocab slot: row `v` holds the
  // output_dim-vector added for each occurrence of hashed feature v.
  std::vector<float> projection_;  // [vocab_dim * output_dim]
};

/// The process-wide encoder with default Options -- what MKI training
/// embeds its metadata texts with. Built on first use (thread-safe, never
/// at static initialization, so processes that train no MKI selector
/// never pay for it); from then on its 12.6 MB projection stays resident
/// for the life of the process. Embeddings equal a freshly built
/// `HashedTextEncoder()`'s bit for bit.
const HashedTextEncoder& DefaultTextEncoder();

}  // namespace kdsel::text

#endif  // KDSEL_TEXT_TEXT_ENCODER_H_
