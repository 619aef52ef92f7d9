// Boxed reference implementations of the branch-α kernels, kept as the
// oracle for the incremental ones in src/algo: the Hampel mask that copies
// each window and selects its median and MAD with nth_element, and the
// segmentations that refit every candidate segment point by point. They
// define the outputs; src/algo must reproduce them bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/stats.hpp"
#include "algo/swab.hpp"

namespace ivt::algo::reference {

inline std::vector<std::uint8_t> hampel_mask(std::span<const double> xs,
                                             double threshold,
                                             std::size_t window) {
  constexpr double kMadScale = 1.4826;
  std::vector<std::uint8_t> mask(xs.size(), 0);
  if (xs.size() < 3) return mask;
  if (window == 0) window = 1;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i >= window ? i - window : 0;
    const std::size_t hi = std::min(i + window + 1, xs.size());
    const auto win = xs.subspan(lo, hi - lo);
    const double med = median(win);
    const double mad = median_absolute_deviation(win);
    if (mad <= 0.0) continue;
    if (std::fabs(xs[i] - med) > threshold * kMadScale * mad) mask[i] = 1;
  }
  return mask;
}

inline std::vector<Segment> bottom_up_segment(std::span<const double> ts,
                                              std::span<const double> xs,
                                              double max_error) {
  const std::size_t n = xs.size();
  std::vector<Segment> segments;
  if (n == 0) return segments;
  if (n == 1) {
    segments.push_back(fit_segment(ts, xs, 0, 1));
    return segments;
  }
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    segments.push_back(fit_segment(ts, xs, i, i + 2));
  }
  if (n % 2 == 1) segments.push_back(fit_segment(ts, xs, n - 1, n));
  auto merge_cost = [&](std::size_t i) {
    return fit_segment(ts, xs, segments[i].start, segments[i + 1].end).error;
  };
  std::vector<double> costs;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    costs.push_back(merge_cost(i));
  }
  while (!costs.empty()) {
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(costs.begin(), costs.end()) - costs.begin());
    if (costs[best] > max_error) break;
    segments[best] = fit_segment(ts, xs, segments[best].start,
                                 segments[best + 1].end);
    segments.erase(segments.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    costs.erase(costs.begin() + static_cast<std::ptrdiff_t>(best));
    if (best < costs.size()) costs[best] = merge_cost(best);
    if (best > 0) costs[best - 1] = merge_cost(best - 1);
  }
  return segments;
}

inline std::vector<Segment> sliding_window_segment(std::span<const double> ts,
                                                   std::span<const double> xs,
                                                   double max_error) {
  std::vector<Segment> segments;
  const std::size_t n = xs.size();
  std::size_t anchor = 0;
  while (anchor < n) {
    std::size_t end = std::min(anchor + 2, n);
    Segment seg = fit_segment(ts, xs, anchor, end);
    while (end < n) {
      Segment grown = fit_segment(ts, xs, anchor, end + 1);
      if (grown.error > max_error) break;
      seg = grown;
      ++end;
    }
    segments.push_back(seg);
    anchor = end;
  }
  return segments;
}

inline std::vector<Segment> swab_segment(std::span<const double> ts,
                                         std::span<const double> xs,
                                         const SegmentationConfig& config) {
  const std::size_t n = xs.size();
  std::vector<Segment> out;
  if (n == 0) return out;
  const std::size_t buffer_size = std::max<std::size_t>(config.buffer_size, 4);
  if (n <= buffer_size) return bottom_up_segment(ts, xs, config.max_error);
  std::size_t lo = 0;
  std::size_t hi = std::min(buffer_size, n);
  while (lo < n) {
    std::vector<Segment> local = bottom_up_segment(
        ts.subspan(lo, hi - lo), xs.subspan(lo, hi - lo), config.max_error);
    if (hi >= n) {
      for (Segment seg : local) {
        seg.start += lo;
        seg.end += lo;
        out.push_back(seg);
      }
      break;
    }
    Segment leftmost = local.front();
    leftmost.start += lo;
    leftmost.end += lo;
    out.push_back(leftmost);
    lo = leftmost.end;
    const std::size_t remaining_buffer = hi > lo ? hi - lo : 0;
    if (remaining_buffer < buffer_size && hi < n) {
      const auto tail_ts = ts.subspan(hi);
      const auto tail_xs = xs.subspan(hi);
      std::size_t end = std::min<std::size_t>(2, tail_xs.size());
      while (end < tail_xs.size() && hi + end < lo + buffer_size) {
        if (fit_segment(tail_ts, tail_xs, 0, end + 1).error >
            config.max_error) {
          break;
        }
        ++end;
      }
      hi = std::min(n, hi + end);
    }
    if (hi <= lo) hi = std::min(n, lo + buffer_size);
  }
  return out;
}

}  // namespace ivt::algo::reference
