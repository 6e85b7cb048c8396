#include "tsad/detector.h"

#include <memory>
#include <utility>

#include "tsad/density.h"
#include "tsad/iforest.h"
#include "tsad/matrix_profile.h"
#include "tsad/nn_detectors.h"
#include "tsad/norma.h"
#include "tsad/ocsvm.h"
#include "tsad/pca.h"
#include "tsad/predictors.h"

namespace kdsel::tsad {

const std::vector<std::string>& CanonicalModelNames() {
  static const std::vector<std::string> names{
      "IForest", "IForest1", "LOF",     "HBOS", "MP",   "NORMA",
      "PCA",     "AE",       "LSTM-AD", "POLY", "CNN",  "OCSVM",
  };
  return names;
}

namespace {

/// make_unique with the base-typed return BuildDetector needs (a raw
/// unique_ptr<Derived> would take two user-defined conversions to reach
/// StatusOr<unique_ptr<Detector>>).
template <typename T, typename... Args>
std::unique_ptr<Detector> MakeDetector(Args&&... args) {
  return std::make_unique<T>(std::forward<Args>(args)...);
}

}  // namespace

StatusOr<std::unique_ptr<Detector>> BuildDetector(const std::string& name,
                                                  uint64_t seed) {
  if (name == "IForest") {
    IForestDetector::Options o;
    o.seed = seed;
    return MakeDetector<IForestDetector>(o);
  }
  if (name == "IForest1") {
    IForestDetector::Options o;
    o.window = 1;
    o.seed = seed ^ 0x1;
    return MakeDetector<IForestDetector>(o);
  }
  if (name == "LOF") {
    return MakeDetector<LofDetector>(LofDetector::Options{});
  }
  if (name == "HBOS") {
    return MakeDetector<HbosDetector>(HbosDetector::Options{});
  }
  if (name == "MP") {
    return MakeDetector<MatrixProfileDetector>(
        MatrixProfileDetector::Options{});
  }
  if (name == "NORMA") {
    NormaDetector::Options o;
    o.seed = seed ^ 0x2;
    return MakeDetector<NormaDetector>(o);
  }
  if (name == "PCA") {
    PcaDetector::Options o;
    o.seed = seed ^ 0x3;
    return MakeDetector<PcaDetector>(o);
  }
  if (name == "AE") {
    AutoencoderDetector::Options o;
    o.seed = seed ^ 0x4;
    return MakeDetector<AutoencoderDetector>(o);
  }
  if (name == "LSTM-AD") {
    LstmAdDetector::Options o;
    o.seed = seed ^ 0x5;
    return MakeDetector<LstmAdDetector>(o);
  }
  if (name == "POLY") {
    return MakeDetector<PolyDetector>(PolyDetector::Options{});
  }
  if (name == "CNN") {
    CnnDetector::Options o;
    o.seed = seed ^ 0x6;
    return MakeDetector<CnnDetector>(o);
  }
  if (name == "OCSVM") {
    OcsvmDetector::Options o;
    o.seed = seed ^ 0x7;
    return MakeDetector<OcsvmDetector>(o);
  }
  return Status::NotFound("unknown TSAD model: " + name);
}

std::vector<std::unique_ptr<Detector>> BuildDefaultModelSet(uint64_t seed) {
  std::vector<std::unique_ptr<Detector>> models;
  for (const std::string& name : CanonicalModelNames()) {
    auto detector = BuildDetector(name, seed);
    KDSEL_CHECK(detector.ok());
    models.push_back(std::move(detector).value());
  }
  return models;
}

}  // namespace kdsel::tsad
