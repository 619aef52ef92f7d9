// The incremental branch-α kernels against their boxed references
// (reference_kernels.hpp): the Hampel mask and every segmentation must be
// bit-identical — same flags, same segment bounds, and the same bits of
// slope, intercept and error — on series built to stress them: exact
// ties, long flat runs, collinear ramps, spikes, steps, values offset by
// 1e6 with unit noise, and timestamps up to 1e5 s at 10 ms spacing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "algo/outliers.hpp"
#include "algo/smoothing.hpp"
#include "algo/stats.hpp"
#include "algo/swab.hpp"
#include "obs/obs.hpp"
#include "reference_kernels.hpp"

namespace ivt::algo {
namespace {

struct Series {
  std::string name;
  std::vector<double> ts;
  std::vector<double> xs;
};

std::vector<double> spaced(std::size_t n, double t0, double dt) {
  std::vector<double> ts(n);
  for (std::size_t i = 0; i < n; ++i) ts[i] = t0 + static_cast<double>(i) * dt;
  return ts;
}

/// The generated series, `n` points each, from one seed.
std::vector<Series> series_family(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::uniform_int_distribution<int> small(0, 2);
  std::uniform_int_distribution<std::size_t> run_len(5, 200);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Series> out;

  Series ties{"ties", spaced(n, 0.0, 1.0), {}};
  for (std::size_t i = 0; i < n; ++i) {
    ties.xs.push_back(static_cast<double>(small(rng)));
  }
  out.push_back(ties);

  Series flat{"flat_runs", spaced(n, 0.0, 0.01), {}};
  const double levels[] = {0.1, 3.7, 1e6 + 0.3, -2.25, 0.0};
  for (std::size_t level = 0; flat.xs.size() < n; ++level) {
    const std::size_t len = run_len(rng);
    for (std::size_t k = 0; k < len && flat.xs.size() < n; ++k) {
      flat.xs.push_back(levels[level % 5]);
    }
  }
  out.push_back(flat);

  Series ramps{"ramps", spaced(n, 0.0, 0.01), {}};
  double slope = 0.7;
  double base = 0.3;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 97 == 0) {
      base = ramps.xs.empty() ? 0.3 : ramps.xs.back();
      slope = (unit(rng) - 0.5) * 8.0;
    }
    ramps.xs.push_back(base + slope * (ramps.ts[i] - ramps.ts[i - i % 97]));
  }
  out.push_back(ramps);

  Series unit_ramp{"unit_ramp", spaced(n, 0.0, 1.0), {}};
  for (const double t : unit_ramp.ts) unit_ramp.xs.push_back(2.0 * t + 1.0);
  out.push_back(unit_ramp);

  Series spikes{"spikes", spaced(n, 0.0, 0.1), {}};
  for (std::size_t i = 0; i < n; ++i) {
    spikes.xs.push_back(10.0 + 0.1 * noise(rng) +
                        (unit(rng) < 0.03 ? 500.0 * unit(rng) : 0.0));
  }
  out.push_back(spikes);

  Series steps{"steps", spaced(n, 0.0, 0.02), {}};
  double level = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (unit(rng) < 0.02) level = std::floor(unit(rng) * 8.0) * 25.0;
    steps.xs.push_back(level + 0.05 * noise(rng));
  }
  out.push_back(steps);

  Series offset{"offset_1e6", spaced(n, 0.0, 0.01), {}};
  for (std::size_t i = 0; i < n; ++i) offset.xs.push_back(1e6 + noise(rng));
  out.push_back(offset);

  // A run that starts near t = 0 and, after a gap, goes on at 10 ms
  // spacing up to t = 1e5 s.
  Series late{"late_t", spaced(n, 1e5 - static_cast<double>(n) * 0.01, 0.01),
              {}};
  for (std::size_t i = 0; i < n / 10; ++i) {
    late.ts[i] = static_cast<double>(i) * 0.01;
  }
  double walk = 40.0;
  for (std::size_t i = 0; i < n; ++i) {
    walk += 0.2 * noise(rng);
    late.xs.push_back(walk);
  }
  out.push_back(late);

  // Branch α's own shape: a smoothed step-and-ramp signal.
  Series alpha{"smoothed_steps", spaced(n, 0.0, 0.05), {}};
  std::vector<double> raw;
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = static_cast<double>(i % 240);
    raw.push_back(((i / 240) % 2 == 0 ? 20.0 + phase * 0.5 : 140.0 - phase) +
                  0.5 * noise(rng));
  }
  alpha.xs = moving_average(raw, 2);
  out.push_back(alpha);
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_segments(const std::vector<Segment>& got,
                          const std::vector<Segment>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].start, want[i].start) << what << " segment " << i;
    ASSERT_EQ(got[i].end, want[i].end) << what << " segment " << i;
    ASSERT_EQ(bits(got[i].fit.slope), bits(want[i].fit.slope))
        << what << " segment " << i;
    ASSERT_EQ(bits(got[i].fit.intercept), bits(want[i].fit.intercept))
        << what << " segment " << i;
    ASSERT_EQ(bits(got[i].error), bits(want[i].error))
        << what << " segment " << i;
  }
}

const double kBudgets[] = {0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3};

TEST(HampelOracleTest, MasksMatchReference) {
  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    for (const Series& s : series_family(700, seed)) {
      for (std::size_t w = 1; w <= 8; ++w) {
        for (const double threshold : {3.0, 1.5}) {
          OutlierConfig config;
          config.window = w;
          config.threshold = threshold;
          ASSERT_EQ(detect_outliers(s.xs, config),
                    reference::hampel_mask(s.xs, threshold, w))
              << s.name << " seed " << seed << " w " << w;
        }
      }
    }
  }
}

TEST(HampelOracleTest, WindowsWiderThanTheSeries) {
  const std::vector<double> xs{1.0, 9.0, 1.0, 1.0, 2.0, 1.0, 50.0};
  for (std::size_t w = 1; w <= 12; ++w) {
    OutlierConfig config;
    config.window = w;
    ASSERT_EQ(detect_outliers(xs, config), reference::hampel_mask(xs, 3.0, w))
        << "w " << w;
  }
}

TEST(SwabOracleTest, SwabMatchesReference) {
  for (const Series& s : series_family(600, 11)) {
    const double var = variance(s.xs);
    for (const std::size_t buffer : {4U, 5U, 7U, 16U, 60U, 120U, 200U}) {
      for (const double budget : kBudgets) {
        SegmentationConfig config;
        config.buffer_size = buffer;
        config.max_error = budget;
        expect_same_segments(swab_segment(s.ts, s.xs, config),
                             reference::swab_segment(s.ts, s.xs, config),
                             s.name + " buffer " + std::to_string(buffer) +
                                 " budget " + std::to_string(budget));
      }
      // Branch α's budget: 5 × the series variance.
      SegmentationConfig config;
      config.buffer_size = buffer;
      config.max_error = std::max(5.0 * var, 1e-12);
      expect_same_segments(swab_segment(s.ts, s.xs, config),
                           reference::swab_segment(s.ts, s.xs, config),
                           s.name + " alpha budget, buffer " +
                               std::to_string(buffer));
    }
  }
}

TEST(SwabOracleTest, BottomUpAndSlidingWindowMatchReference) {
  for (const Series& s : series_family(300, 12)) {
    for (const double budget : kBudgets) {
      const std::string what = s.name + " budget " + std::to_string(budget);
      expect_same_segments(bottom_up_segment(s.ts, s.xs, budget),
                           reference::bottom_up_segment(s.ts, s.xs, budget),
                           "bottom-up " + what);
      expect_same_segments(
          sliding_window_segment(s.ts, s.xs, budget),
          reference::sliding_window_segment(s.ts, s.xs, budget),
          "sliding window " + what);
    }
  }
}

TEST(SwabOracleTest, ShortAndDegenerateInputs) {
  SegmentationConfig config;
  config.buffer_size = 4;
  for (std::size_t n = 1; n <= 12; ++n) {
    const std::vector<double> ts(n, 3.0);  // every timestamp equal
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(static_cast<double>(i % 3));
    }
    for (const double budget : kBudgets) {
      config.max_error = budget;
      expect_same_segments(swab_segment(ts, xs, config),
                           reference::swab_segment(ts, xs, config),
                           "equal timestamps, n " + std::to_string(n));
      const std::vector<double> unit = spaced(n, 0.0, 1.0);
      expect_same_segments(swab_segment(unit, xs, config),
                           reference::swab_segment(unit, xs, config),
                           "n " + std::to_string(n));
    }
  }
}

TEST(SwabOracleTest, NonFiniteInputStaysInBounds) {
  // Outside the bit-identity contract (branch α keeps NaN and ±inf out of
  // both kernels), but the kernels must stay in bounds and terminate.
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  const std::vector<std::vector<double>> inputs = {
      {1.0, nan, 2.0, 3.0, nan, nan, 4.0, 1.0, 2.0, 3.0, 5.0, 8.0},
      {inf, 1.0, -inf, 2.0, 3.0, inf, inf, 4.0, 1.0, 2.0, 0.0, -1.0},
      {nan, nan, nan, nan, nan, nan, nan},
      {inf, inf, inf, 1.0, inf, inf, inf, inf},
  };
  for (const std::vector<double>& xs : inputs) {
    for (std::size_t w = 1; w <= 8; ++w) {
      OutlierConfig config;
      config.window = w;
      EXPECT_EQ(detect_outliers(xs, config).size(), xs.size());
    }
    const std::vector<double> ts = spaced(xs.size(), 0.0, 1.0);
    for (const std::size_t buffer : {4U, 6U, 120U}) {
      SegmentationConfig config;
      config.buffer_size = buffer;
      const std::vector<Segment> segments = swab_segment(ts, xs, config);
      ASSERT_FALSE(segments.empty());
      EXPECT_EQ(segments.front().start, 0U);
      EXPECT_EQ(segments.back().end, xs.size());
      for (std::size_t i = 1; i < segments.size(); ++i) {
        EXPECT_EQ(segments[i].start, segments[i - 1].end);
      }
    }
  }
}

#if IVT_OBS_ENABLED
/// The bound must leave almost every decision to the O(1) costs, also far
/// from t = 0: a bound that grows with the run (sums centred on the run's
/// first point instead of the window's) sends them to the two-pass path.
TEST(SwabOracleTest, FewDecisionsFallBackToTwoPass) {
  obs::Counter& refits =
      obs::Registry::instance().counter("algo.swab.exact_refits");
  for (const Series& s : series_family(4000, 21)) {
    if (s.name != "late_t" && s.name != "smoothed_steps" &&
        s.name != "offset_1e6") {
      continue;
    }
    SegmentationConfig config;
    config.buffer_size = 120;
    config.max_error = 5.0 * variance(s.xs);
    const std::uint64_t before = refits.value();
    const std::vector<Segment> segments = swab_segment(s.ts, s.xs, config);
    const std::uint64_t fallbacks = refits.value() - before;
    EXPECT_LT(fallbacks, s.xs.size() / 20) << s.name;
    expect_same_segments(segments, reference::swab_segment(s.ts, s.xs, config),
                         s.name);
  }
}
#endif

}  // namespace
}  // namespace ivt::algo
