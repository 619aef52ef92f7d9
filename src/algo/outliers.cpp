#include "algo/outliers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "algo/stats.hpp"

namespace ivt::algo {

namespace {

std::vector<std::uint8_t> zscore_mask(std::span<const double> xs,
                                      double threshold) {
  std::vector<std::uint8_t> mask(xs.size(), 0);
  const double mu = mean(xs);
  const double sd = stddev(xs);
  if (sd <= 0.0) return mask;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::fabs(xs[i] - mu) > threshold * sd) mask[i] = 1;
  }
  return mask;
}

std::vector<std::uint8_t> iqr_mask(std::span<const double> xs,
                                   double threshold) {
  std::vector<std::uint8_t> mask(xs.size(), 0);
  const double q1 = quantile(xs, 0.25);
  const double q3 = quantile(xs, 0.75);
  const double iqr = q3 - q1;
  if (iqr <= 0.0) return mask;
  const double lo = q1 - threshold * iqr;
  const double hi = q3 + threshold * iqr;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] < lo || xs[i] > hi) mask[i] = 1;
  }
  return mask;
}

/// The values of one Hampel window, kept sorted as the window slides: an
/// element enters and one leaves per step, each an O(w) shift of at most
/// 2w+1 doubles, so no per-element copy, selection or allocation.
class SortedWindow {
 public:
  explicit SortedWindow(std::size_t capacity) {
    values_.reserve(capacity);
    below_.reserve(capacity);
    above_.reserve(capacity);
  }

  void insert(double v) {
    values_.insert(std::upper_bound(values_.begin(), values_.end(), v), v);
  }

  void erase(double v) { values_.erase(values_.begin() + index_of(v)); }

  /// erase(out) then insert(in), as one shift.
  void replace(double out, double in) {
    std::size_t k = index_of(out);
    if (in > out) {
      for (; k + 1 < values_.size() && values_[k + 1] < in; ++k) {
        values_[k] = values_[k + 1];
      }
    } else {
      for (; k > 0 && values_[k - 1] > in; --k) values_[k] = values_[k - 1];
    }
    values_[k] = in;
  }

  /// algo::median of the window, with its arithmetic: the upper middle
  /// order statistic, averaged with the lower one when the size is even.
  [[nodiscard]] double median() const {
    const std::size_t mid = values_.size() / 2;
    const double upper = values_[mid];
    if (values_.size() % 2 == 1) return upper;
    return 0.5 * (values_[mid - 1] + upper);
  }

  /// algo::median_absolute_deviation of the window given its median.
  /// |x - med| is non-increasing over the sorted values below `med` and
  /// non-decreasing over those from `med` up, also after rounding (x -
  /// med is a monotone function of x): two sorted runs of deviations. The
  /// k-th smallest of two sorted runs B and A is min over i + j = k of
  /// max(B_i, A_j) (B_0 = A_0 = -inf), so the two middle deviations are
  /// the exact order statistics median() would select, with no merge.
  [[nodiscard]] double mad(double med) {
    const std::size_t n = values_.size();
    // values_[mid] >= med, so lower_bound(med) is at most mid.
    std::size_t split = n / 2;
    while (split > 0 && values_[split - 1] >= med) --split;
    below_.clear();
    above_.clear();
    for (std::size_t k = split; k > 0; --k) {
      below_.push_back(std::fabs(values_[k - 1] - med));
    }
    for (std::size_t k = split; k < n; ++k) {
      above_.push_back(std::fabs(values_[k] - med));
    }
    const double upper = order_statistic(n / 2 + 1);
    if (n % 2 == 1) return upper;
    return 0.5 * (order_statistic(n / 2) + upper);
  }

 private:
  /// The k-th smallest (1-based) of below_ and above_ together.
  [[nodiscard]] double order_statistic(std::size_t k) const {
    const std::size_t first = k > above_.size() ? k - above_.size() : 0;
    const std::size_t last = std::min(k, below_.size());
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double out = kInf;
    for (std::size_t i = first; i <= last; ++i) {
      const double b = i > 0 ? below_[i - 1] : -kInf;
      const double a = k > i ? above_[k - i - 1] : -kInf;
      out = std::min(out, std::max(b, a));
    }
    return out;
  }

  /// Position of one element equal to `v`. A NaN (never ordered) is found
  /// by a linear scan, so non-finite input stays memory-safe; its mask is
  /// unspecified, as it was with nth_element.
  [[nodiscard]] std::size_t index_of(double v) const {
    const auto it = std::lower_bound(values_.begin(), values_.end(), v);
    if (it != values_.end() && *it == v) {
      return static_cast<std::size_t>(it - values_.begin());
    }
    for (std::size_t k = 0; k < values_.size(); ++k) {
      if (values_[k] == v || (std::isnan(values_[k]) && std::isnan(v))) {
        return k;
      }
    }
    return values_.size() - 1;
  }

  std::vector<double> values_;
  std::vector<double> below_;  ///< deviations below med, ascending
  std::vector<double> above_;  ///< deviations from med up, ascending
};

std::vector<std::uint8_t> hampel_mask(std::span<const double> xs,
                                      double threshold, std::size_t window) {
  // 1.4826 rescales MAD to the stddev of a Gaussian.
  constexpr double kMadScale = 1.4826;
  const std::size_t n = xs.size();
  std::vector<std::uint8_t> mask(n, 0);
  if (window == 0) window = 1;
  // The window of element i is [i - w, i + w] clipped to the series.
  SortedWindow sorted(window < n ? std::min(n, 2 * window + 2) : n);
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t want_lo = i >= window ? i - window : 0;
    const std::size_t want_hi = window < n - i ? i + window + 1 : n;
    for (; hi < want_hi && lo < want_lo; ++hi, ++lo) {
      sorted.replace(xs[lo], xs[hi]);
    }
    for (; hi < want_hi; ++hi) sorted.insert(xs[hi]);
    for (; lo < want_lo; ++lo) sorted.erase(xs[lo]);
    const double med = sorted.median();
    const double mad = sorted.mad(med);
    if (mad <= 0.0) continue;  // flat window: nothing is an outlier
    if (std::fabs(xs[i] - med) > threshold * kMadScale * mad) mask[i] = 1;
  }
  return mask;
}

}  // namespace

std::vector<std::uint8_t> detect_outliers(std::span<const double> xs,
                                          const OutlierConfig& config) {
  if (xs.size() < 3) return std::vector<std::uint8_t>(xs.size(), 0);
  switch (config.method) {
    case OutlierMethod::ZScore:
      return zscore_mask(xs, config.threshold);
    case OutlierMethod::Iqr:
      return iqr_mask(xs, config.threshold);
    case OutlierMethod::Hampel:
      return hampel_mask(xs, config.threshold, config.window);
  }
  return std::vector<std::uint8_t>(xs.size(), 0);
}

OutlierSplit split_by_mask(std::span<const std::uint8_t> mask) {
  OutlierSplit split;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    (mask[i] != 0 ? split.outliers : split.clean).push_back(i);
  }
  return split;
}

}  // namespace ivt::algo
