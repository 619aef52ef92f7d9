// Micro-benchmarks of the per-sequence kernels used by the processing
// branches: SWAB segmentation, SAX symbolization, outlier detection and
// smoothing. (The paper defers these to their original publications; the
// kernels must stay cheap relative to interpretation.)
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <vector>

#include "algo/outliers.hpp"
#include "algo/sax.hpp"
#include "algo/smoothing.hpp"
#include "algo/stats.hpp"
#include "algo/swab.hpp"

namespace {

using namespace ivt::algo;

std::vector<double> noisy_sine(std::size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  std::mt19937_64 rng(7);
  std::normal_distribution<double> noise(0.0, 0.05);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(std::sin(static_cast<double>(i) * 0.02) + noise(rng));
  }
  return xs;
}

/// Branch α's input shape: steps and ramps with light noise, sampled
/// every 20 ms (seconds as the timestamps, as process_alpha passes them).
struct StepRamp {
  std::vector<double> ts;
  std::vector<double> xs;
};

StepRamp step_and_ramp(std::size_t n) {
  StepRamp s;
  std::mt19937_64 rng(11);
  std::normal_distribution<double> noise(0.0, 0.2);
  double level = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t phase = i % 400;
    if (phase == 0) level = static_cast<double>((i / 400) % 5) * 20.0;
    const double ramp = phase < 200 ? 0.0 : static_cast<double>(phase - 200);
    s.ts.push_back(static_cast<double>(i) * 0.02);
    s.xs.push_back(level + 0.1 * ramp + noise(rng));
  }
  return s;
}

/// Hampel at branch α's configuration (window 5, threshold 3).
void BM_HampelAlpha(benchmark::State& state) {
  const StepRamp s = step_and_ramp(static_cast<std::size_t>(state.range(0)));
  const OutlierConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_outliers(s.xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HampelAlpha)->Arg(10000)->Arg(100000);

/// SWAB at branch α's configuration: buffer 120, max_error = 5 × var.
void BM_SwabAlpha(benchmark::State& state) {
  const StepRamp s = step_and_ramp(static_cast<std::size_t>(state.range(0)));
  SegmentationConfig config;
  config.buffer_size = 120;
  config.max_error = 5.0 * variance(s.xs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(swab_segment(s.ts, s.xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwabAlpha)->Arg(10000)->Arg(100000);

void BM_SwabSegment(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  SegmentationConfig config;
  config.max_error = 0.5;
  config.buffer_size = 120;
  for (auto _ : state) {
    benchmark::DoNotOptimize(swab_segment(xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwabSegment)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BottomUpSegment(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  std::vector<double> ts(xs.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    ts[i] = static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_up_segment(ts, xs, 0.5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BottomUpSegment)->Arg(1000)->Arg(4000);

void BM_SaxWord(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sax_word(xs, 32, 5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SaxWord)->Arg(1000)->Arg(100000);

void BM_OutliersHampel(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  OutlierConfig config;
  config.method = OutlierMethod::Hampel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_outliers(xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OutliersHampel)->Arg(1000)->Arg(10000);

void BM_OutliersZScore(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  OutlierConfig config;
  config.method = OutlierMethod::ZScore;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_outliers(xs, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OutliersZScore)->Arg(1000)->Arg(100000);

void BM_MovingAverage(benchmark::State& state) {
  const auto xs = noisy_sine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(moving_average(xs, 2));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MovingAverage)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
