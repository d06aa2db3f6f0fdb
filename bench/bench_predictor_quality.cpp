// Predictor quality: why the warm-up techniques behave the way they do.
//
// Scores each technique's window predictor directly (coverage of the next
// invocation, wasted warm minutes) on the shared workload, independent of
// cost/accuracy modeling. Explains the Figure 8 dynamics: Wild's histogram
// window covers slightly more than the fixed policy at far less waste,
// which is exactly the room PULSE's variant laddering monetizes.

#include "bench_common.hpp"

#include <cmath>
#include <complex>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include "predict/evaluation.hpp"
#include "predict/fft.hpp"
#include "predict/hybrid_histogram.hpp"
#include "trace/analysis.hpp"
#include "util/rng.hpp"

namespace {

using namespace pulse;

predict::PredictorScore score_fixed(const trace::Trace& t, trace::Minute window) {
  return predict::evaluate_window_predictor(t, predict::fixed_window_predictor(window));
}

predict::PredictorScore score_hybrid(const trace::Trace& t) {
  std::vector<predict::HybridHistogramPredictor> predictors(t.function_count());
  return predict::evaluate_window_predictor(
      t, [&](trace::FunctionId f, trace::Minute now) {
        predictors[f].observe_invocation(now);
        const predict::WindowPrediction w = predictors[f].predict();
        return predict::PredictedWindow{std::max<trace::Minute>(1, w.prewarm_offset),
                                        w.keepalive_until};
      });
}

// --- Harmonic extrapolation: zero-padded fit vs power-of-two suffix fit ---
//
// Replica of the pre-fix harmonic_extrapolate: zero-pad the whole series to
// the next power of two, fit, and evaluate at indices series.size()+h —
// which land inside the padded region, so the kept harmonics are biased
// toward the padding zeros. Kept here (not in src/) purely to quantify the
// improvement of the suffix fit that replaced it.
std::vector<double> padded_extrapolate(std::span<const double> series, std::size_t harmonics,
                                       std::size_t horizon) {
  std::vector<double> out(horizon, 0.0);
  if (series.empty() || horizon == 0) return out;
  const std::size_t n_padded = predict::next_pow2(series.size());
  std::vector<std::complex<double>> coeffs(n_padded, {0.0, 0.0});
  for (std::size_t i = 0; i < series.size(); ++i) coeffs[i] = series[i];
  predict::fft(coeffs, /*inverse=*/false);

  std::vector<std::size_t> candidates;
  for (std::size_t j = 1; j <= n_padded / 2; ++j) candidates.push_back(j);
  std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(coeffs[a]) > std::abs(coeffs[b]);
  });
  std::vector<std::size_t> bins{0};
  for (std::size_t k = 0; k < std::min(harmonics, candidates.size()); ++k) {
    const std::size_t j = candidates[k];
    bins.push_back(j);
    const std::size_t mirror = (n_padded - j) % n_padded;
    if (mirror != j && mirror != 0) bins.push_back(mirror);
  }
  for (std::size_t h = 0; h < horizon; ++h) {
    const double index = static_cast<double>(series.size() + h);
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t j : bins) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(j) * index /
                           static_cast<double>(n_padded);
      acc += coeffs[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[h] = acc.real() / static_cast<double>(n_padded);
  }
  return out;
}

struct HarmonicErrors {
  double padded_mae = 0.0;   // pre-fix behavior
  double suffix_mae = 0.0;   // current harmonic_extrapolate
  double padded_bias = 0.0;  // mean signed error: negative = under-forecast
  double suffix_bias = 0.0;
  std::size_t forecasts = 0;

  void accumulate(double padded, double suffix, double actual) {
    padded_mae += std::abs(padded - actual);
    suffix_mae += std::abs(suffix - actual);
    padded_bias += padded - actual;
    suffix_bias += suffix - actual;
    ++forecasts;
  }
  void finish() {
    if (forecasts == 0) return;
    const double n = static_cast<double>(forecasts);
    padded_mae /= n;
    suffix_mae /= n;
    padded_bias /= n;
    suffix_bias /= n;
  }
};

/// Forecast error of both variants over the workload: at several origins
/// with deliberately non-power-of-two histories, forecast the next hour of
/// per-minute invocation counts and compare against the trace.
HarmonicErrors harmonic_forecast_errors(const trace::Trace& t) {
  constexpr std::size_t kHarmonics = 8;
  constexpr std::size_t kHorizon = 60;
  // Non-power-of-two history lengths: exactly the case the padded fit
  // mishandled (a power-of-two history makes the two variants identical).
  constexpr std::size_t kHistories[] = {600, 900, 1337};

  HarmonicErrors e;
  std::vector<double> series;
  for (trace::FunctionId f = 0; f < t.function_count(); ++f) {
    for (const std::size_t history : kHistories) {
      if (static_cast<std::size_t>(t.duration()) < history + kHorizon) continue;
      series.clear();
      for (std::size_t m = 0; m < history; ++m) {
        series.push_back(static_cast<double>(t.count(f, static_cast<trace::Minute>(m))));
      }
      const auto padded = padded_extrapolate(series, kHarmonics, kHorizon);
      const auto suffix = predict::harmonic_extrapolate(series, kHarmonics, kHorizon);
      for (std::size_t h = 0; h < kHorizon; ++h) {
        const double actual =
            static_cast<double>(t.count(f, static_cast<trace::Minute>(history + h)));
        e.accumulate(padded[h], suffix[h], actual);
      }
    }
  }
  e.finish();
  return e;
}

/// Same comparison on a dense seasonal series with a known continuation —
/// the regime the harmonic model is actually meant for (periodic invocation
/// load), where the padding bias is not masked by a mostly-zero truth.
HarmonicErrors harmonic_synthetic_errors() {
  constexpr std::size_t kHarmonics = 8;
  constexpr std::size_t kHorizon = 60;
  constexpr std::size_t kHistories[] = {600, 900, 1337};
  const auto level = [](std::size_t m) {
    const double t = static_cast<double>(m);
    return 5.0 + 3.0 * std::sin(2.0 * std::numbers::pi * t / 144.0) +
           2.0 * std::sin(2.0 * std::numbers::pi * t / 60.0);
  };

  HarmonicErrors e;
  std::vector<double> series;
  for (const std::size_t history : kHistories) {
    series.clear();
    for (std::size_t m = 0; m < history; ++m) series.push_back(level(m));
    const auto padded = padded_extrapolate(series, kHarmonics, kHorizon);
    const auto suffix = predict::harmonic_extrapolate(series, kHarmonics, kHorizon);
    for (std::size_t h = 0; h < kHorizon; ++h) {
      e.accumulate(padded[h], suffix[h], level(history + h));
    }
  }
  e.finish();
  return e;
}

void BM_EvaluateFixedPredictor(benchmark::State& state) {
  exp::ScenarioConfig config;
  config.days = 1;
  const exp::Scenario scenario = exp::make_scenario(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(score_fixed(scenario.workload.trace, 10));
  }
}
BENCHMARK(BM_EvaluateFixedPredictor);

// One IceBreaker refit at its default configuration (256-minute window, 8
// harmonics, 10-minute horizon), cycling over 64 Poisson count series:
// through a reused HarmonicForecaster, as the policy refits, and through
// the one-shot harmonic_extrapolate.
constexpr std::size_t kRefitWindow = 256;
constexpr std::size_t kRefitHarmonics = 8;
constexpr std::size_t kRefitHorizon = 10;

std::vector<std::vector<double>> refit_series() {
  util::Pcg32 rng(11);
  std::vector<std::vector<double>> pool(64, std::vector<double>(kRefitWindow));
  for (auto& series : pool) {
    const double rate = rng.uniform(0.05, 8.0);
    for (std::size_t i = 0; i < kRefitWindow; ++i) {
      const double phase = 2.0 * std::numbers::pi * static_cast<double>(i) / 60.0;
      series[i] = util::poisson(rng, rate * (1.0 + 0.8 * std::sin(phase)));
    }
  }
  return pool;
}

void BM_HarmonicRefitPlan(benchmark::State& state) {
  const auto pool = refit_series();
  predict::HarmonicForecaster forecaster(
      std::make_shared<const predict::HarmonicPlan>(kRefitWindow, kRefitHorizon));
  std::vector<double> out(kRefitHorizon);
  std::size_t i = 0;
  for (auto _ : state) {
    forecaster.extrapolate(pool[i++ % pool.size()], kRefitHarmonics, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HarmonicRefitPlan);

// A function's first refits: histories of 1..255 minutes on the same
// 256-plan, so each fits the largest power-of-two suffix shorter than the
// plan (mostly 128 and 64 points).
void BM_HarmonicRefitPlanWarmup(benchmark::State& state) {
  const auto pool = refit_series();
  predict::HarmonicForecaster forecaster(
      std::make_shared<const predict::HarmonicPlan>(kRefitWindow, kRefitHorizon));
  std::vector<double> out(kRefitHorizon);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t length = i % (kRefitWindow - 1) + 1;
    forecaster.extrapolate(std::span(pool[i++ % pool.size()]).first(length), kRefitHarmonics,
                           out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HarmonicRefitPlanWarmup);

void BM_HarmonicRefitOneShot(benchmark::State& state) {
  const auto pool = refit_series();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predict::harmonic_extrapolate(pool[i++ % pool.size()], kRefitHarmonics, kRefitHorizon));
  }
}
BENCHMARK(BM_HarmonicRefitOneShot);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Predictor quality — window coverage vs waste",
                       "diagnostic behind the paper's warm-up technique comparison");
  const exp::Scenario scenario = bench::default_scenario();
  bench::print_scenario_info(scenario, 1);

  util::TextTable table({"Predictor", "Coverage (%)", "Missed beyond (%)",
                         "Missed before (%)", "Warm minutes", "Wasted (%)"});
  struct Row {
    const char* label;
    predict::PredictorScore score;
  };
  const Row rows[] = {
      {"fixed 10-minute (OpenWhisk)", score_fixed(scenario.workload.trace, 10)},
      {"fixed 20-minute", score_fixed(scenario.workload.trace, 20)},
      {"hybrid histogram (Wild)", score_hybrid(scenario.workload.trace)},
  };
  for (const auto& row : rows) {
    const auto& s = row.score;
    const double n = static_cast<double>(std::max<std::uint64_t>(1, s.evaluated_invocations));
    table.add_row({row.label, util::fmt(100.0 * s.coverage(), 1),
                   util::fmt(100.0 * static_cast<double>(s.beyond_horizon) / n, 1),
                   util::fmt(100.0 * static_cast<double>(s.before_window) / n, 1),
                   std::to_string(s.warm_minutes),
                   util::fmt(100.0 * s.waste_fraction(), 1)});
  }
  std::printf("%s", table.render().c_str());

  const HarmonicErrors ht = harmonic_forecast_errors(scenario.workload.trace);
  const HarmonicErrors hs = harmonic_synthetic_errors();
  std::printf(
      "\nHarmonic extrapolation (IceBreaker substrate): zero-padded fit\n"
      "(pre-fix) vs power-of-two suffix fit, one-hour forecasts from\n"
      "non-power-of-two histories. MAE and mean signed error (bias;\n"
      "negative = under-forecast) in invocations/minute:\n"
      "  workload trace   (%4zu forecasts)  padded MAE %.4f bias %+.4f | "
      "suffix MAE %.4f bias %+.4f\n"
      "  seasonal series  (%4zu forecasts)  padded MAE %.4f bias %+.4f | "
      "suffix MAE %.4f bias %+.4f\n"
      "The padded fit evaluates inside the zero-padded region, dragging\n"
      "forecasts toward zero — a large negative bias that looks harmless on\n"
      "a mostly-idle trace but collapses genuinely periodic load, which is\n"
      "the case the harmonic model exists for. The suffix fit stays inside\n"
      "the fitted period.\n",
      ht.forecasts, ht.padded_mae, ht.padded_bias, ht.suffix_mae, ht.suffix_bias,
      hs.forecasts, hs.padded_mae, hs.padded_bias, hs.suffix_mae, hs.suffix_bias);

  std::printf(
      "\nReading: the fixed window misses every gap beyond its horizon\n"
      "(missed-beyond column); the hybrid histogram nearly eliminates those\n"
      "misses by stretching its window to the inter-arrival tail, paying in\n"
      "warm-minute waste. That wide, always-high-quality window is exactly\n"
      "the cost PULSE's variant laddering attacks in the Wild integration.\n");

  return bench::run_microbenchmarks(argc, argv);
}
