#include "datagen/families.h"

#include <cmath>

#include "common/stringutil.h"

namespace kdsel::datagen {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Smooth daily-cycle signal with weekly modulation (traffic-like counts).
std::vector<float> TrafficSignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  double day = 160 + rng.Uniform(-20, 20);    // points per "day"
  double phase = rng.Uniform(0, 2 * kPi);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    double daily = std::sin(2 * kPi * t / day + phase);
    double rush = std::sin(4 * kPi * t / day + phase) * 0.5;
    double base = 20 + 12 * daily + 6 * rush;
    v[i] = static_cast<float>(std::max(0.0, base + rng.Normal(0, 1.6)));
  }
  return v;
}

/// Spike-train ECG-like signal: periodic QRS-shaped pulses on a wandering
/// baseline. `rate` = points per beat, `sharp` = pulse width factor.
std::vector<float> EcgLikeSignal(size_t n, Rng& rng, double rate,
                                 double sharp, double wander) {
  std::vector<float> v(n, 0.0f);
  double period = rate * (1.0 + rng.Uniform(-0.08, 0.08));
  double next_beat = rng.Uniform(0, period);
  double width = sharp * period;
  // Baseline wander: slow sinusoid.
  double wf = rng.Uniform(0.5, 1.5) / (20.0 * period);
  double wp = rng.Uniform(0, 2 * kPi);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    v[i] = static_cast<float>(wander * std::sin(2 * kPi * wf * t + wp) +
                              rng.Normal(0, 0.03));
  }
  while (next_beat < static_cast<double>(n)) {
    // QRS complex: small dip, tall spike, small dip; then a T-wave bump.
    auto add_gauss = [&](double center, double amp, double sigma) {
      long lo = std::max<long>(0, static_cast<long>(center - 4 * sigma));
      long hi = std::min<long>(static_cast<long>(n) - 1,
                               static_cast<long>(center + 4 * sigma));
      for (long i = lo; i <= hi; ++i) {
        double d = (static_cast<double>(i) - center) / sigma;
        v[static_cast<size_t>(i)] +=
            static_cast<float>(amp * std::exp(-0.5 * d * d));
      }
    };
    add_gauss(next_beat - 0.06 * period, -0.22, width * 0.45);
    add_gauss(next_beat, 1.0, width * 0.35);
    add_gauss(next_beat + 0.06 * period, -0.28, width * 0.45);
    add_gauss(next_beat + 0.30 * period, 0.24, width * 1.6);
    next_beat += period * (1.0 + rng.Normal(0, 0.02));
  }
  return v;
}

/// Mean-reverting random walk (Ornstein-Uhlenbeck-ish), server KPI shape.
std::vector<float> KpiSignal(size_t n, Rng& rng, double theta, double sigma,
                             double seasonal_amp) {
  std::vector<float> v(n);
  double day = 200 + rng.Uniform(-40, 40);
  double phase = rng.Uniform(0, 2 * kPi);
  double x = rng.Normal(0, 1);
  for (size_t i = 0; i < n; ++i) {
    x += theta * (0.0 - x) + sigma * rng.Normal();
    double season =
        seasonal_amp * std::sin(2 * kPi * static_cast<double>(i) / day + phase);
    v[i] = static_cast<float>(x + season);
  }
  return v;
}

/// Mackey-Glass chaotic series:
/// dx/dt = beta*x(t-tau)/(1+x(t-tau)^10) - gamma*x.
std::vector<float> MackeyGlassSignal(size_t n, Rng& rng) {
  const double beta = 0.2, gamma = 0.1, dt = 1.0;
  const size_t tau = 17 + static_cast<size_t>(rng.Index(4));
  const size_t warmup = 300;
  std::vector<double> x(n + warmup + tau, 1.2);
  for (size_t i = 0; i < tau; ++i) x[i] = 1.2 + 0.1 * rng.Normal();
  for (size_t i = tau; i + 1 < x.size(); ++i) {
    double xt = x[i - tau];
    double dx = beta * xt / (1.0 + std::pow(xt, 10.0)) - gamma * x[i];
    x[i + 1] = x[i] + dt * dx;
  }
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(x[warmup + tau + i]);
  }
  return v;
}

/// Step-function signal with occasional regime changes (NAB-style cloud
/// metrics / ad clicks).
std::vector<float> StepSignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  double level = rng.Uniform(5, 15);
  size_t next_change = 100 + rng.Index(300);
  for (size_t i = 0; i < n; ++i) {
    if (i >= next_change) {
      level += rng.Normal(0, 2.2);
      next_change = i + 100 + rng.Index(400);
    }
    v[i] = static_cast<float>(level + rng.Normal(0, 0.7));
  }
  return v;
}

/// Slow smooth environmental signal (temperature/humidity) with diurnal
/// cycle and very low noise.
std::vector<float> EnvironmentalSignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  double day = 260 + rng.Uniform(-40, 40);
  double phase = rng.Uniform(0, 2 * kPi);
  double trend = rng.Uniform(-0.002, 0.002);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    v[i] = static_cast<float>(18 + 6 * std::sin(2 * kPi * t / day + phase) +
                              trend * t + rng.Normal(0, 0.25));
  }
  return v;
}

/// Trend + seasonality + noise (Yahoo S5 style).
std::vector<float> TrendSeasonalSignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  double period = 40 + rng.Uniform(0, 60);
  double phase = rng.Uniform(0, 2 * kPi);
  double trend = rng.Uniform(-0.01, 0.01);
  double amp = rng.Uniform(1.5, 4.0);
  double noise = rng.Uniform(0.2, 0.6);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    v[i] = static_cast<float>(trend * t +
                              amp * std::sin(2 * kPi * t / period + phase) +
                              rng.Normal(0, noise));
  }
  return v;
}

/// Bursty oscillation regimes (body-worn accelerometer during walking).
std::vector<float> AccelerometerSignal(size_t n, Rng& rng, double gait_freq) {
  std::vector<float> v(n);
  size_t i = 0;
  while (i < n) {
    bool active = rng.Bernoulli(0.7);
    size_t seg = 150 + rng.Index(250);
    double f = gait_freq * (1.0 + rng.Uniform(-0.2, 0.2));
    double phase = rng.Uniform(0, 2 * kPi);
    double amp = active ? rng.Uniform(1.5, 3.0) : rng.Uniform(0.05, 0.2);
    for (size_t j = 0; j < seg && i < n; ++j, ++i) {
      double t = static_cast<double>(i);
      v[i] = static_cast<float>(
          amp * std::sin(2 * kPi * f * t + phase) +
          0.4 * amp * std::sin(2 * kPi * 2.1 * f * t) + rng.Normal(0, 0.15));
    }
  }
  return v;
}

/// Slow industrial cycles: long ramps up/down between setpoints (GHL tank
/// temperature).
std::vector<float> IndustrialCycleSignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  double value = rng.Uniform(40, 60);
  double target = rng.Uniform(40, 60);
  double ramp = rng.Uniform(0.02, 0.08);
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(value - target) < ramp) {
      target = rng.Uniform(35, 65);
      ramp = rng.Uniform(0.02, 0.08);
    }
    value += (target > value ? ramp : -ramp);
    v[i] = static_cast<float>(value + rng.Normal(0, 0.12));
  }
  return v;
}

/// Square-wave actuation cycles with dwell times (pick-and-place machine).
std::vector<float> ActuationSignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  size_t i = 0;
  double levels[3] = {0.0, 1.0, 0.45};
  size_t phase_idx = 0;
  while (i < n) {
    size_t dwell = 25 + rng.Index(30);
    double level = levels[phase_idx % 3];
    for (size_t j = 0; j < dwell && i < n; ++j, ++i) {
      v[i] = static_cast<float>(level + rng.Normal(0, 0.02));
    }
    ++phase_idx;
  }
  return v;
}

/// Piecewise activity regimes with distinct spectral content (OPPORTUNITY
/// daily activities).
std::vector<float> ActivitySignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  size_t i = 0;
  while (i < n) {
    size_t seg = 200 + rng.Index(300);
    double f = rng.Uniform(0.01, 0.12);
    double amp = rng.Uniform(0.4, 2.2);
    double offset = rng.Uniform(-1.0, 1.0);
    double phase = rng.Uniform(0, 2 * kPi);
    for (size_t j = 0; j < seg && i < n; ++j, ++i) {
      double t = static_cast<double>(i);
      v[i] = static_cast<float>(offset +
                                amp * std::sin(2 * kPi * f * t + phase) +
                                rng.Normal(0, 0.2));
    }
  }
  return v;
}

/// Two-level occupancy pattern (occupied/vacant room CO2 level).
std::vector<float> OccupancySignal(size_t n, Rng& rng) {
  std::vector<float> v(n);
  size_t i = 0;
  bool occupied = rng.Bernoulli(0.5);
  double value = occupied ? 800 : 420;
  while (i < n) {
    size_t dwell = 150 + rng.Index(350);
    double target = occupied ? rng.Uniform(700, 950) : rng.Uniform(400, 460);
    for (size_t j = 0; j < dwell && i < n; ++j, ++i) {
      value += 0.05 * (target - value) + rng.Normal(0, 4.0);
      v[i] = static_cast<float>(value);
    }
    occupied = !occupied;
  }
  return v;
}

/// Multi-component server machine KPI: OU base + bursts of load.
std::vector<float> MachineSignal(size_t n, Rng& rng) {
  std::vector<float> v = KpiSignal(n, rng, 0.03, 0.25, 0.8);
  // Superimpose load plateaus.
  size_t i = 0;
  while (i < n) {
    i += 300 + rng.Index(500);
    size_t dur = 80 + rng.Index(120);
    double lift = rng.Uniform(0.5, 1.5);
    for (size_t j = i; j < std::min(n, i + dur); ++j) {
      v[j] += static_cast<float>(lift);
    }
    i += dur;
  }
  return v;
}

struct FamilyInfo {
  Family family;
  const char* name;
  const char* description;
};

constexpr FamilyInfo kFamilyInfo[] = {
    {Family::kDodgers, "Dodgers",
     "is a loop sensor data for the Glendale on-ramp for the 101 North "
     "freeway in Los Angeles and the anomalies represent unusual traffic "
     "after a Dodgers game"},
    {Family::kEcg, "ECG",
     "is a standard electrocardiogram dataset and the anomalies represent "
     "ventricular premature contractions"},
    {Family::kIops, "IOPS",
     "is a dataset with performance indicators that reflect the scale, "
     "quality of web services, and health status of a machine"},
    {Family::kKdd21, "KDD21",
     "is a composite dataset released in a recent SIGKDD 2021 competition "
     "with 250 time series"},
    {Family::kMgab, "MGAB",
     "is composed of Mackey-Glass time series with non-trivial anomalies "
     "exhibiting chaotic behavior that is difficult for the human eye to "
     "distinguish"},
    {Family::kNab, "NAB",
     "is composed of labeled real-world and artificial time series "
     "including AWS server metrics, online advertisement clicking rates, "
     "real time traffic data, and a collection of Twitter mentions of "
     "large publicly-traded companies"},
    {Family::kSensorScope, "SensorScope",
     "is a collection of environmental data, such as temperature, humidity, "
     "and solar radiation, collected from a typical tiered sensor "
     "measurement system"},
    {Family::kYahoo, "YAHOO",
     "is a dataset published by Yahoo labs consisting of real and synthetic "
     "time series based on the real production traffic to some of the "
     "Yahoo production systems"},
    {Family::kDaphnet, "Daphnet",
     "contains the annotated readings of 3 acceleration sensors at the hip "
     "and leg of Parkinson's disease patients that experience freezing of "
     "gait during walking tasks"},
    {Family::kGhl, "GHL",
     "is a Gasoil Heating Loop Dataset and contains the status of 3 "
     "reservoirs such as the temperature and level, anomalies indicate "
     "changes in max temperature or pump frequency"},
    {Family::kGenesis, "Genesis",
     "is a portable pick-and-place demonstrator which uses an air tank to "
     "supply all the gripping and storage units"},
    {Family::kMitdb, "MITDB",
     "contains 48 half-hour excerpts of two-channel ambulatory ECG "
     "recordings, obtained from 47 subjects studied by the BIH Arrhythmia "
     "Laboratory between 1975 and 1979"},
    {Family::kOpportunity, "OPPORTUNITY",
     "is a dataset devised to benchmark human activity recognition "
     "algorithms, comprising the readings of motion sensors recorded while "
     "users executed typical daily activities"},
    {Family::kOccupancy, "Occupancy",
     "contains experimental data used for binary classification of room "
     "occupancy from temperature, humidity, light, and CO2"},
    {Family::kSmd, "SMD",
     "is a 5-week-long dataset collected from a large Internet company "
     "containing 3 groups of entities from 28 different machines"},
    {Family::kSvdb, "SVDB",
     "includes 78 half-hour ECG recordings chosen to supplement the "
     "examples of supraventricular arrhythmias in the MIT-BIH Arrhythmia "
     "Database"},
};

const FamilyInfo& InfoFor(Family family) {
  for (const auto& info : kFamilyInfo) {
    if (info.family == family) return info;
  }
  KDSEL_CHECK(false && "unknown family");
  return kFamilyInfo[0];
}

}  // namespace

const std::vector<Family>& AllFamilies() {
  static const std::vector<Family> families = [] {
    std::vector<Family> f;
    for (const auto& info : kFamilyInfo) f.push_back(info.family);
    return f;
  }();
  return families;
}

const char* FamilyName(Family family) { return InfoFor(family).name; }

const char* FamilyDescription(Family family) {
  return InfoFor(family).description;
}

StatusOr<Family> FamilyFromName(const std::string& name) {
  std::string lower = ToLower(name);
  for (const auto& info : kFamilyInfo) {
    if (ToLower(info.name) == lower) return info.family;
  }
  return Status::NotFound("unknown dataset family: " + name);
}

std::vector<float> GenerateBaseSignal(Family family, size_t length, Rng& rng) {
  switch (family) {
    case Family::kDodgers:
      return TrafficSignal(length, rng);
    case Family::kEcg:
      return EcgLikeSignal(length, rng, /*rate=*/46, /*sharp=*/0.05,
                           /*wander=*/0.08);
    case Family::kIops:
      return KpiSignal(length, rng, 0.05, 0.3, 1.2);
    case Family::kKdd21: {
      // Composite: rotate among several shapes, like the UCR/KDD21 mix.
      switch (rng.Index(4)) {
        case 0:
          return EcgLikeSignal(length, rng, 58, 0.06, 0.05);
        case 1:
          return TrendSeasonalSignal(length, rng);
        case 2:
          return AccelerometerSignal(length, rng, 0.035);
        default:
          return MackeyGlassSignal(length, rng);
      }
    }
    case Family::kMgab:
      return MackeyGlassSignal(length, rng);
    case Family::kNab:
      return StepSignal(length, rng);
    case Family::kSensorScope:
      return EnvironmentalSignal(length, rng);
    case Family::kYahoo:
      return TrendSeasonalSignal(length, rng);
    case Family::kDaphnet:
      return AccelerometerSignal(length, rng, 0.05);
    case Family::kGhl:
      return IndustrialCycleSignal(length, rng);
    case Family::kGenesis:
      return ActuationSignal(length, rng);
    case Family::kMitdb:
      return EcgLikeSignal(length, rng, 64, 0.045, 0.15);
    case Family::kOpportunity:
      return ActivitySignal(length, rng);
    case Family::kOccupancy:
      return OccupancySignal(length, rng);
    case Family::kSmd:
      return MachineSignal(length, rng);
    case Family::kSvdb:
      return EcgLikeSignal(length, rng, 38, 0.055, 0.10);
  }
  return std::vector<float>(length, 0.0f);
}

InjectionPlan FamilyInjectionPlan(Family family) {
  InjectionPlan plan;
  switch (family) {
    case Family::kDodgers:
      plan.candidates = {{AnomalyType::kAmplitudeChange, 30, 90, 1.2},
                         {AnomalyType::kLevelShift, 30, 80, 2.5}};
      plan.min_count = 1;
      plan.max_count = 2;
      break;
    case Family::kEcg:
      plan.candidates = {{AnomalyType::kFrequencyShift, 40, 120, 2.0},
                         {AnomalyType::kAmplitudeChange, 40, 100, 1.5}};
      plan.min_count = 1;
      plan.max_count = 4;
      break;
    case Family::kIops:
      plan.candidates = {{AnomalyType::kLevelShift, 20, 80, 3.0},
                         {AnomalyType::kSpike, 1, 4, 5.0}};
      plan.min_count = 1;
      plan.max_count = 3;
      break;
    case Family::kKdd21:
      plan.candidates = {{AnomalyType::kSegmentSwap, 30, 90, 1.5},
                         {AnomalyType::kFrequencyShift, 30, 90, 1.5},
                         {AnomalyType::kNoiseBurst, 20, 60, 2.0}};
      plan.min_count = 1;
      plan.max_count = 1;  // KDD21 series have exactly one anomaly.
      break;
    case Family::kMgab:
      plan.candidates = {{AnomalyType::kSegmentSwap, 30, 60, 0.8},
                         {AnomalyType::kFrequencyShift, 30, 60, 0.8}};
      plan.min_count = 1;
      plan.max_count = 2;
      break;
    case Family::kNab:
      plan.candidates = {{AnomalyType::kSpike, 1, 6, 6.0},
                         {AnomalyType::kLevelShift, 40, 120, 3.5},
                         {AnomalyType::kNoiseBurst, 20, 60, 3.0}};
      plan.min_count = 1;
      plan.max_count = 3;
      break;
    case Family::kSensorScope:
      plan.candidates = {{AnomalyType::kFlatline, 30, 100, 0.0},
                         {AnomalyType::kNoiseBurst, 20, 70, 3.0}};
      plan.min_count = 1;
      plan.max_count = 3;
      break;
    case Family::kYahoo:
      plan.candidates = {{AnomalyType::kSpike, 1, 3, 6.0},
                         {AnomalyType::kLevelShift, 10, 40, 3.0}};
      plan.min_count = 1;
      plan.max_count = 4;
      break;
    case Family::kDaphnet:
      plan.candidates = {{AnomalyType::kFlatline, 60, 160, 0.0},
                         {AnomalyType::kAmplitudeChange, 60, 140, -0.6}};
      plan.min_count = 1;
      plan.max_count = 2;
      break;
    case Family::kGhl:
      plan.candidates = {{AnomalyType::kSpike, 4, 16, 4.5},
                         {AnomalyType::kLevelShift, 40, 120, 2.5}};
      plan.min_count = 1;
      plan.max_count = 2;
      break;
    case Family::kGenesis:
      plan.candidates = {{AnomalyType::kFlatline, 20, 60, 0.0},
                         {AnomalyType::kSpike, 2, 8, 4.0}};
      plan.min_count = 1;
      plan.max_count = 2;
      break;
    case Family::kMitdb:
      plan.candidates = {{AnomalyType::kFrequencyShift, 50, 130, 2.0},
                         {AnomalyType::kAmplitudeChange, 50, 120, 1.8},
                         {AnomalyType::kNoiseBurst, 30, 80, 2.0}};
      plan.min_count = 1;
      plan.max_count = 4;
      break;
    case Family::kOpportunity:
      plan.candidates = {{AnomalyType::kSegmentSwap, 40, 120, 1.2},
                         {AnomalyType::kNoiseBurst, 30, 90, 2.5}};
      plan.min_count = 1;
      plan.max_count = 2;
      break;
    case Family::kOccupancy:
      plan.candidates = {{AnomalyType::kLevelShift, 30, 100, 2.0},
                         {AnomalyType::kSpike, 2, 8, 4.0}};
      plan.min_count = 1;
      plan.max_count = 2;
      break;
    case Family::kSmd:
      plan.candidates = {{AnomalyType::kLevelShift, 40, 120, 3.0},
                         {AnomalyType::kNoiseBurst, 30, 90, 2.5},
                         {AnomalyType::kSpike, 1, 5, 5.0}};
      plan.min_count = 1;
      plan.max_count = 3;
      break;
    case Family::kSvdb:
      plan.candidates = {{AnomalyType::kFrequencyShift, 30, 90, 2.0},
                         {AnomalyType::kAmplitudeChange, 30, 90, 1.5}};
      plan.min_count = 1;
      plan.max_count = 4;
      break;
  }
  return plan;
}

StatusOr<ts::TimeSeries> GenerateSeries(Family family, size_t length,
                                        size_t index, Rng& rng) {
  if (length < 64) {
    return Status::InvalidArgument("series length must be >= 64");
  }
  ts::TimeSeries series(
      StrFormat("%s_%04zu", FamilyName(family), index),
      GenerateBaseSignal(family, length, rng));
  InjectionPlan plan = FamilyInjectionPlan(family);
  KDSEL_ASSIGN_OR_RETURN(size_t injected, InjectAnomalies(plan, rng, series));
  (void)injected;
  series.SetMeta("dataset", FamilyName(family));
  series.SetMeta("domain", FamilyDescription(family));
  return series;
}

}  // namespace kdsel::datagen
