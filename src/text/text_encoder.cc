#include "text/text_encoder.h"

#include <cctype>
#include <cmath>
#include <unordered_map>

#include "common/parallel.h"
#include "common/rng.h"

namespace kdsel::text {

namespace {

/// FNV-1a 64-bit hash.
uint64_t Fnv1a(const std::string& s, uint64_t seed) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

HashedTextEncoder::HashedTextEncoder(const Options& options)
    : options_(options) {
  KDSEL_CHECK(options_.vocab_dim > 0 && options_.output_dim > 0);
  Rng rng(options_.seed);
  projection_.resize(options_.vocab_dim * options_.output_dim);
  const double scale =
      1.0 / std::sqrt(static_cast<double>(options_.output_dim));
  for (float& v : projection_) {
    v = static_cast<float>(rng.Normal(0.0, scale));
  }
}

std::vector<std::pair<uint32_t, float>> HashedTextEncoder::HashFeatures(
    const std::string& text) const {
  std::unordered_map<uint32_t, float> bag;
  auto add = [&](const std::string& feature, uint64_t salt, float weight) {
    uint64_t h = Fnv1a(feature, salt);
    uint32_t slot = static_cast<uint32_t>(h % options_.vocab_dim);
    // Sign hashing reduces collision bias.
    float sign = ((h >> 32) & 1) ? 1.0f : -1.0f;
    bag[slot] += sign * weight;
  };
  auto tokens = Tokenize(text);
  for (const std::string& tok : tokens) {
    add(tok, /*salt=*/0x517cc1b727220a95ull, 1.0f);
    // Character trigrams make the embedding robust to inflection
    // ("anomaly"/"anomalies" share mass), loosely mirroring subword
    // tokenization in BERT.
    if (tok.size() >= 3) {
      for (size_t i = 0; i + 3 <= tok.size(); ++i) {
        add(tok.substr(i, 3), /*salt=*/0x2545f4914f6cdd1dull, 0.4f);
      }
    }
  }
  std::vector<std::pair<uint32_t, float>> features(bag.begin(), bag.end());
  // L1 scale so embedding magnitude is independent of text length.
  double total = 0.0;
  for (auto& [slot, w] : features) total += std::abs(w);
  if (total > 0) {
    for (auto& [slot, w] : features) w = static_cast<float>(w / total);
  }
  return features;
}

std::vector<float> HashedTextEncoder::Encode(const std::string& text) const {
  std::vector<float> out(options_.output_dim, 0.0f);
  for (auto [slot, weight] : HashFeatures(text)) {
    const float* row = projection_.data() + size_t{slot} * options_.output_dim;
    for (size_t j = 0; j < options_.output_dim; ++j) {
      out[j] += weight * row[j];
    }
  }
  double norm = 0.0;
  for (float v : out) norm += static_cast<double>(v) * v;
  norm = std::sqrt(norm);
  if (norm > 1e-12) {
    for (float& v : out) v = static_cast<float>(v / norm);
  }
  return out;
}

nn::Tensor HashedTextEncoder::EncodeBatch(
    const std::vector<std::string>& texts) const {
  nn::Tensor out({texts.size(), options_.output_dim});
  // Each text fills a disjoint tensor row; Encode is const and pure.
  ParallelFor(texts.size(), 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto vec = Encode(texts[i]);
      std::copy(vec.begin(), vec.end(), out.raw() + i * options_.output_dim);
    }
  });
  return out;
}

const HashedTextEncoder& DefaultTextEncoder() {
  static const HashedTextEncoder encoder;
  return encoder;
}

}  // namespace kdsel::text
