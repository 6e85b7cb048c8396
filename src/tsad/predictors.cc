#include "tsad/predictors.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "tsad/util.h"

namespace kdsel::tsad {

namespace {

/// Solves the symmetric positive-definite system A x = b in place via
/// Gaussian elimination with partial pivoting. A is d x d row-major.
bool SolveLinearSystem(std::vector<double>& a, std::vector<double>& b,
                       size_t d) {
  for (size_t col = 0; col < d; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < d; ++r) {
      if (std::abs(a[r * d + col]) > std::abs(a[pivot * d + col])) pivot = r;
    }
    if (std::abs(a[pivot * d + col]) < 1e-12) return false;
    if (pivot != col) {
      for (size_t cc = 0; cc < d; ++cc)
        std::swap(a[col * d + cc], a[pivot * d + cc]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * d + col];
    for (size_t r = col + 1; r < d; ++r) {
      const double f = a[r * d + col] * inv;
      if (f == 0.0) continue;
      for (size_t cc = col; cc < d; ++cc) a[r * d + cc] -= f * a[col * d + cc];
      b[r] -= f * b[col];
    }
  }
  for (size_t col = d; col-- > 0;) {
    double acc = b[col];
    for (size_t cc = col + 1; cc < d; ++cc) acc -= a[col * d + cc] * b[cc];
    b[col] = acc / a[col * d + col];
  }
  return true;
}

}  // namespace

StatusOr<std::vector<float>> PolyDetector::Score(
    const ts::TimeSeries& series) const {
  const size_t w = options_.window;
  const size_t d = options_.degree + 1;
  const size_t n = series.length();
  if (n < 2 * w || w <= d) {
    return Status::InvalidArgument("series too short (or window <= degree)");
  }
  // Vandermonde on a [-1, 1] grid; prediction point at the next step.
  auto t_of = [&](size_t i) {
    return -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(w - 1);
  };
  std::vector<double> vmat(w * d);
  for (size_t i = 0; i < w; ++i) {
    double p = 1.0;
    for (size_t k = 0; k < d; ++k) {
      vmat[i * d + k] = p;
      p *= t_of(i);
    }
  }
  const double t_pred = t_of(w);  // One step past the window.
  std::vector<double> v_pred(d);
  {
    double p = 1.0;
    for (size_t k = 0; k < d; ++k) {
      v_pred[k] = p;
      p *= t_pred;
    }
  }
  // c = V (V^T V + ridge I)^{-1} v_pred, so pred(window y) = c . y.
  std::vector<double> vtv(d * d, 0.0);
  for (size_t i = 0; i < w; ++i) {
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = a; b < d; ++b) {
        vtv[a * d + b] += vmat[i * d + a] * vmat[i * d + b];
      }
    }
  }
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < a; ++b) vtv[a * d + b] = vtv[b * d + a];
    vtv[a * d + a] += 1e-9;  // tiny ridge for numerical safety
  }
  std::vector<double> alpha = v_pred;  // becomes (V^T V)^{-1} v_pred
  if (!SolveLinearSystem(vtv, alpha, d)) {
    return Status::Internal("singular Vandermonde normal equations");
  }
  std::vector<double> coeff(w);
  for (size_t i = 0; i < w; ++i) {
    double acc = 0.0;
    for (size_t k = 0; k < d; ++k) acc += vmat[i * d + k] * alpha[k];
    coeff[i] = acc;
  }

  const auto& v = series.values();
  std::vector<float> scores(n, 0.0f);
  for (size_t t = w; t < n; ++t) {
    double pred = 0.0;
    for (size_t i = 0; i < w; ++i) pred += coeff[i] * v[t - w + i];
    scores[t] = static_cast<float>(std::abs(v[t] - pred));
  }
  for (size_t i = 0; i < w; ++i) scores[i] = scores[w];
  MinMaxNormalize(scores);
  return scores;
}

namespace {

/// A single-layer LSTM with scalar input and linear readout, implemented
/// with explicit BPTT. Gate order in packed matrices: i, f, g, o.
class ScalarLstm {
 public:
  ScalarLstm(size_t hidden, uint64_t seed) : h_(hidden), rng_(seed) {
    auto init = [&](std::vector<double>& v, size_t n, double scale) {
      v.resize(n);
      for (double& x : v) x = rng_.Normal(0.0, scale);
    };
    const double s = 1.0 / std::sqrt(static_cast<double>(h_));
    init(wx_, 4 * h_, 0.5);
    init(wh_, 4 * h_ * h_, s);
    b_.assign(4 * h_, 0.0);
    // Forget-gate bias of 1 (standard trick for gradient flow).
    for (size_t j = 0; j < h_; ++j) b_[h_ + j] = 1.0;
    init(wy_, h_, s);
    by_ = 0.0;
    InitAdam();
  }

  /// Runs the window, predicts the next value, and (if training)
  /// backpropagates the squared-error loss. Returns the prediction.
  double Step(const float* window, size_t w, double target, bool train) {
    // Forward with full caches.
    std::vector<std::vector<double>> hs(w + 1, std::vector<double>(h_, 0.0));
    std::vector<std::vector<double>> cs(w + 1, std::vector<double>(h_, 0.0));
    std::vector<std::vector<double>> gates(w, std::vector<double>(4 * h_));
    for (size_t t = 0; t < w; ++t) {
      const double x = window[t];
      auto& g = gates[t];
      for (size_t j = 0; j < 4 * h_; ++j) {
        double acc = b_[j] + wx_[j] * x;
        const double* wrow = wh_.data() + j * h_;
        for (size_t k = 0; k < h_; ++k) acc += wrow[k] * hs[t][k];
        g[j] = acc;
      }
      for (size_t j = 0; j < h_; ++j) {
        const double i_g = Sigmoid(g[j]);
        const double f_g = Sigmoid(g[h_ + j]);
        const double g_g = std::tanh(g[2 * h_ + j]);
        const double o_g = Sigmoid(g[3 * h_ + j]);
        cs[t + 1][j] = f_g * cs[t][j] + i_g * g_g;
        hs[t + 1][j] = o_g * std::tanh(cs[t + 1][j]);
        // Overwrite with activated values for backward.
        g[j] = i_g;
        g[h_ + j] = f_g;
        g[2 * h_ + j] = g_g;
        g[3 * h_ + j] = o_g;
      }
    }
    double pred = by_;
    for (size_t j = 0; j < h_; ++j) pred += wy_[j] * hs[w][j];
    if (!train) return pred;

    // Backward.
    const double dl = 2.0 * (pred - target);
    std::vector<double> dwx(4 * h_, 0.0), dwh(4 * h_ * h_, 0.0),
        db(4 * h_, 0.0), dwy(h_, 0.0);
    double dby = dl;
    std::vector<double> dh(h_, 0.0), dc(h_, 0.0);
    for (size_t j = 0; j < h_; ++j) {
      dwy[j] = dl * hs[w][j];
      dh[j] = dl * wy_[j];
    }
    for (size_t t = w; t-- > 0;) {
      const auto& g = gates[t];
      std::vector<double> dgate(4 * h_);
      for (size_t j = 0; j < h_; ++j) {
        const double i_g = g[j], f_g = g[h_ + j], g_g = g[2 * h_ + j],
                     o_g = g[3 * h_ + j];
        const double tc = std::tanh(cs[t + 1][j]);
        const double dc_t = dc[j] + dh[j] * o_g * (1 - tc * tc);
        dgate[j] = dc_t * g_g * i_g * (1 - i_g);              // d(pre-i)
        dgate[h_ + j] = dc_t * cs[t][j] * f_g * (1 - f_g);    // d(pre-f)
        dgate[2 * h_ + j] = dc_t * i_g * (1 - g_g * g_g);     // d(pre-g)
        dgate[3 * h_ + j] = dh[j] * tc * o_g * (1 - o_g);     // d(pre-o)
        dc[j] = dc_t * f_g;
      }
      const double x = window[t];
      std::fill(dh.begin(), dh.end(), 0.0);
      for (size_t j = 0; j < 4 * h_; ++j) {
        const double dg = dgate[j];
        if (dg == 0.0) continue;
        dwx[j] += dg * x;
        db[j] += dg;
        double* dwrow = dwh.data() + j * h_;
        const double* wrow = wh_.data() + j * h_;
        for (size_t k = 0; k < h_; ++k) {
          dwrow[k] += dg * hs[t][k];
          dh[k] += dg * wrow[k];
        }
      }
    }
    AdamUpdate(dwx, dwh, db, dwy, dby);
    return pred;
  }

  void set_lr(double lr) { lr_ = lr; }

 private:
  static double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

  void InitAdam() {
    mwx_.assign(wx_.size(), 0.0);
    vwx_.assign(wx_.size(), 0.0);
    mwh_.assign(wh_.size(), 0.0);
    vwh_.assign(wh_.size(), 0.0);
    mb_.assign(b_.size(), 0.0);
    vb_.assign(b_.size(), 0.0);
    mwy_.assign(wy_.size(), 0.0);
    vwy_.assign(wy_.size(), 0.0);
    mby_ = vby_ = 0.0;
  }

  void AdamUpdate(const std::vector<double>& dwx,
                  const std::vector<double>& dwh,
                  const std::vector<double>& db,
                  const std::vector<double>& dwy, double dby) {
    ++t_;
    const double bc1 = 1 - std::pow(0.9, t_), bc2 = 1 - std::pow(0.999, t_);
    const double alpha = lr_ * std::sqrt(bc2) / bc1;
    auto upd = [&](std::vector<double>& p, const std::vector<double>& g,
                   std::vector<double>& m, std::vector<double>& v) {
      for (size_t i = 0; i < p.size(); ++i) {
        const double gi = std::clamp(g[i], -5.0, 5.0);
        m[i] = 0.9 * m[i] + 0.1 * gi;
        v[i] = 0.999 * v[i] + 0.001 * gi * gi;
        p[i] -= alpha * m[i] / (std::sqrt(v[i]) + 1e-8);
      }
    };
    upd(wx_, dwx, mwx_, vwx_);
    upd(wh_, dwh, mwh_, vwh_);
    upd(b_, db, mb_, vb_);
    upd(wy_, dwy, mwy_, vwy_);
    const double gby = std::clamp(dby, -5.0, 5.0);
    mby_ = 0.9 * mby_ + 0.1 * gby;
    vby_ = 0.999 * vby_ + 0.001 * gby * gby;
    by_ -= alpha * mby_ / (std::sqrt(vby_) + 1e-8);
  }

  size_t h_;
  Rng rng_;
  double lr_ = 1e-2;
  int64_t t_ = 0;
  std::vector<double> wx_, wh_, b_, wy_;
  double by_ = 0.0;
  std::vector<double> mwx_, vwx_, mwh_, vwh_, mb_, vb_, mwy_, vwy_;
  double mby_ = 0.0, vby_ = 0.0;
};

}  // namespace

StatusOr<std::vector<float>> LstmAdDetector::Score(
    const ts::TimeSeries& series) const {
  const size_t w = options_.window;
  const size_t n = series.length();
  if (n < 2 * w + 4) {
    return Status::InvalidArgument("series too short for LSTM-AD");
  }
  std::vector<float> z(series.values());
  ts::ZNormalize(z);

  ScalarLstm lstm(options_.hidden, options_.seed ^ 0x9e3779b97f4a7c15ull);
  lstm.set_lr(options_.learning_rate);

  // Train on the leading fraction of the series (assumed mostly normal).
  const size_t train_end = std::max(
      2 * w, static_cast<size_t>(options_.train_fraction * double(n)));
  const size_t n_pairs = std::min(train_end, n) - w;
  Rng rng(options_.seed);
  const size_t n_train = std::min(options_.max_train_windows, n_pairs);
  auto order = rng.Sample(n_pairs, n_train);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start : order) {
      lstm.Step(z.data() + start, w, z[start + w], /*train=*/true);
    }
  }

  std::vector<float> scores(n, 0.0f);
  for (size_t t = w; t < n; ++t) {
    const double pred = lstm.Step(z.data() + (t - w), w, 0.0, /*train=*/false);
    scores[t] = static_cast<float>(std::abs(z[t] - pred));
  }
  for (size_t i = 0; i < w; ++i) scores[i] = scores[w];
  MinMaxNormalize(scores);
  return scores;
}

}  // namespace kdsel::tsad
