#include "algo/swab.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace ivt::algo {

namespace {

void check_sizes(std::span<const double> ts, std::span<const double> xs) {
  if (ts.size() != xs.size()) {
    throw std::invalid_argument("segmentation: ts/xs size mismatch");
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Unit roundoff: fl(a op b) = (a op b)(1 + d) with |d| <= kU.
constexpr double kU = std::numeric_limits<double>::epsilon() / 2;

/// An interval that holds fit_segment(start, end).error, the two-pass
/// residual sum of squares every segmentation decision is defined on.
struct CostBound {
  double lo = -kInf;
  double hi = kInf;
};

// Segment costs in O(1), and how far they can be from the two-pass error.
//
// A window [w, w + len) of the input keeps prefix sums of u = t - t_w,
// v = x - x_w, u², uv and v², centred on the window's first point (the
// bottom-up buffer, or the sliding-window tail from its anchor). For a
// range [s, e) of n points with range sums A = Σu, B = Σv, Suu, Suv, Svv:
//   Cuu = Suu - A²/n,  Cuv = Suv - AB/n,  Cvv = Svv - B²/n,
//   R = Cvv - Cuv²/Cuu,
// the exact least-squares residual sum of squares. Centring on the window
// keeps the sums near the window's own scale: sums over a whole run would
// carry t² of its last point and cancel far more inside a short window.
//
// Bound on the computed Cuu, Cuv, Cvv. A prefix sum P[j+1] = fl(P[j] + τ̂_j)
// telescopes over the range, so the roundings before s cancel in
// P[e] - P[s]: |fl(P[e] - P[s]) - Σ_[s,e) τ| <= (n + m + 1) kU M, where M
// bounds |P[j]| for j <= e and m counts the roundings inside one term (1
// for u, 3 for u², uv, v²). With k = e - w terms in the prefix (k >= n >=
// 2), M is P_uu[e] for u², √(P_uu P_vv)[e] for uv, and √(k P_uu[e])
// (Cauchy-Schwarz) for Σ|u|. The centring adds (2|A| dA + 3 kU A²)/n
// with A² <= n P_uu, and the last subtraction kU |Ĉ| <= kU P. In all,
// |Ĉuu - Cuu| <= (n + 8 + 2k + 4k/n) kU P_uu <= (5k + 8) kU P_uu; the
// prefix keeps eUU = (17k + 8) kU P_uu, and eVV, eUV likewise (the factor
// 3 to spare covers the rounding of the square roots and the cross
// term's mixed form).
//
// Bound on R. With Ĉuu > 2 eUU (else no bound: the decision falls back),
// Cuu >= Ĉuu/2. Then Cuv²/Cuu is within 2 (2|â| eUV + eUV²/Ĉuu + â² eUU)
// + 3 kU Q̂ of Q̂ = Ĉuv â, â = Ĉuv/Ĉuu, R within that plus eVV + kU |R̂|
// of R̂ = Ĉvv - Q̂, and R >= 0. The exact slope a* is within
// 2 (eUV + |â| eUU)/Ĉuu + 4 kU |â| of â.
//
// Bound on the two-pass error c of the same points (fit_line then
// residual_sum_squares on raw t and x, T = max|t|, X = max|x| over the
// window's prefix). Its means are off by at most dmx = (n+1) kU T and
// dmy = (n+1) kU X; its sxx, sxy are the sums about those means with
// relative error g = (n+4) kU (sxy's against √(sxx syy)). With 1/Cuu <=
// 2/Ĉuu that bounds the slope error da = |â - a*| <= 2.02 (|a*| (g +
// n dmx²/Ĉuu) + (n dmx dmy + g √(sxx syy)) / Ĉuu) and the error of the
// line at the mean dm <= 1.01 (n+4) kU Y, Y = X + |â| T. The residuals ρ
// of the computed line then satisfy Σρ² = R + Cuu da² + n dm² (the cross
// terms vanish at the optimum). Each computed residual is within
// kU|ρ| + 2.01 kU H, H = |â t| + |b̂| <= 2Y, of ρ, and squaring and
// summing add γ_n; so |c - Σρ²| <= (n+3) kU S + 8.1 kU Y √(n S) +
// 17 kU² n Y², S >= Σρ².
//
// Every bound above is first order in kU; the neglected terms are below
// 1e-6 of them while n kU < 1e-9 (n below ~10^7 points), and the interval
// is widened by half its width on each side to cover them and the rounding
// of the bound's own arithmetic. Inputs whose squares overflow, and
// non-finite inputs, fall outside this analysis: any non-finite bound
// defers to the two-pass error.

/// 1/n, from a table for the short ranges SWAB's buffer holds.
double reciprocal(std::size_t n) {
  static const std::array<double, 256> kTable = [] {
    std::array<double, 256> t{};
    for (std::size_t i = 1; i < t.size(); ++i) {
      t[i] = 1.0 / static_cast<double>(i);
    }
    return t;
  }();
  return n < kTable.size() ? kTable[n] : 1.0 / static_cast<double>(n);
}

/// Prefix sums of one window, and the cost bound of any range inside it.
class Window {
 public:
  Window(std::span<const double> ts, std::span<const double> xs)
      : ts_(ts), xs_(xs) {}

  /// Start an empty window whose first point is `base`.
  void reset(std::size_t base) {
    base_ = base;
    t0_ = ts_[base];
    x0_ = xs_[base];
    prefix_.assign(1, Prefix{});
  }

  /// Grow the window to end at `end` (exclusive).
  void extend_to(std::size_t end) {
    for (std::size_t i = base_ + prefix_.size() - 1; i < end; ++i) {
      const Prefix& p = prefix_.back();
      const double u = ts_[i] - t0_;
      const double v = xs_[i] - x0_;
      Prefix next;
      next.u = p.u + u;
      next.v = p.v + v;
      next.uu = p.uu + u * u;
      next.uv = p.uv + u * v;
      next.vv = p.vv + v * v;
      next.t_abs = std::max(p.t_abs, std::fabs(ts_[i]));
      next.x_abs = std::max(p.x_abs, std::fabs(xs_[i]));
      const double terms = static_cast<double>(prefix_.size());
      const double eps = (17.0 * terms + 8.0) * kU;
      next.e_uu = eps * next.uu;
      next.e_vv = eps * next.vv;
      next.e_uv = eps * std::sqrt(next.uu * next.vv);
      prefix_.push_back(next);
    }
  }

  /// Bound of fit_segment(start, end).error, base <= start < end <= the
  /// window's end; see the derivation above.
  [[nodiscard]] CostBound cost(std::size_t start, std::size_t end) const {
    const Spread s = spread(start, end);
    if (!s.known) return {};
    return two_pass(s, s.slope_hi, s.inv, prefix_[end - base_]);
  }

  /// Whether fit_segment(start, e).error <= max_error is certain for every
  /// e in [first, last]. As points are added to a range its least-squares
  /// residual R and its spreads Cuu, Cvv only grow, so the bound of
  /// [start, last) holds for all of them once every 1/Cuu is taken from
  /// [start, first) and the slope from √(Cvv/Cuu) >= |a*|.
  [[nodiscard]] bool within_budget(std::size_t start, std::size_t first,
                                   std::size_t last, double max_error) const {
    const Spread small = spread(start, first);
    const Spread large = spread(start, last);
    if (!small.known || !large.known) return false;
    const Prefix& b = prefix_[last - base_];
    const double slope_hi = std::sqrt(2.0 * small.inv * (large.cvv + b.e_vv));
    return two_pass(large, slope_hi, small.inv, b).hi <= max_error;
  }

 private:
  struct Prefix {
    double u = 0.0;
    double v = 0.0;
    double uu = 0.0;
    double uv = 0.0;
    double vv = 0.0;
    double t_abs = 0.0;  ///< max |t| so far (raw, as the two-pass sees it)
    double x_abs = 0.0;
    double e_uu = 0.0;  ///< error bound of any range's Cuu ending here
    double e_vv = 0.0;
    double e_uv = 0.0;
  };

  /// The centred sums of one range, and the interval of its exact R.
  struct Spread {
    bool known = false;  ///< Cuu is known to within half of itself
    double n = 0.0;
    double cuu = 0.0;
    double cvv = 0.0;
    double inv = 0.0;       ///< 1 / Ĉuu, so 1 / Cuu <= 2 inv
    double slope_hi = 0.0;  ///< >= |a*|
    double r_lo = 0.0;
    double r_hi = 0.0;
  };

  [[nodiscard]] Spread spread(std::size_t start, std::size_t end) const {
    const Prefix& a = prefix_[start - base_];
    const Prefix& b = prefix_[end - base_];
    Spread s;
    s.n = static_cast<double>(end - start);
    const double inv_n = reciprocal(end - start);
    const double su = b.u - a.u;
    const double sv = b.v - a.v;
    s.cuu = (b.uu - a.uu) - su * su * inv_n;
    const double cuv = (b.uv - a.uv) - su * sv * inv_n;
    s.cvv = (b.vv - a.vv) - sv * sv * inv_n;

    // R = Cvv - Cuv²/Cuu, once Cuu is known to within half of itself.
    s.known = s.cuu > 2.0 * b.e_uu;
    if (!s.known) return s;
    s.inv = 1.0 / s.cuu;
    const double slope = cuv * s.inv;
    const double abs_slope = std::fabs(slope);
    const double q = cuv * slope;
    const double r = s.cvv - q;
    const double dq = 2.0 * (2.0 * abs_slope * b.e_uv +
                             b.e_uv * b.e_uv * s.inv + slope * slope * b.e_uu) +
                      3.0 * kU * q;
    const double dr = b.e_vv + dq + kU * std::fabs(r);
    s.r_lo = std::max(r - dr, 0.0);
    s.r_hi = std::max(r + dr, 0.0);
    s.slope_hi = abs_slope * (1.0 + 4.0 * kU) +
                 2.0 * (b.e_uv + abs_slope * b.e_uu) * s.inv;
    return s;
  }

  /// The two-pass error against R: `slope_hi` bounds the exact slope and
  /// 2 `inv` bounds 1/Cuu of the range(s) bounded; `b` is the prefix at
  /// the (largest) range's end.
  [[nodiscard]] static CostBound two_pass(const Spread& s, double slope_hi,
                                          double inv, const Prefix& b) {
    const double n = s.n;
    const double g = (n + 4.0) * kU;
    const double dmx = (n + 1.0) * kU * b.t_abs;
    const double dmy = (n + 1.0) * kU * b.x_abs;
    const double sxx = s.cuu + b.e_uu + n * dmx * dmx;
    const double syy = s.cvv + b.e_vv + n * dmy * dmy;
    const double da =
        2.02 * (slope_hi * (g + n * dmx * dmx * inv) +
                (n * dmx * dmy + g * std::sqrt(sxx * syy)) * inv);
    const double y = b.x_abs + (slope_hi + da) * b.t_abs;
    const double dm = 1.01 * (n + 4.0) * kU * y;
    const double line = sxx * da * da + n * dm * dm;
    const double s_hi = s.r_hi + line;
    const double rounding = (n + 3.0) * kU * s_hi +
                            8.1 * kU * y * std::sqrt(n * s_hi) +
                            17.0 * kU * kU * n * y * y;

    const double lo = s.r_lo - rounding;
    const double hi = s_hi + rounding;
    const double slack = 0.5 * (hi - lo);
    if (!(slack >= 0.0 && slack < kInf)) return {};
    return {lo - slack, hi + slack};
  }

  std::span<const double> ts_;
  std::span<const double> xs_;
  std::size_t base_ = 0;
  double t0_ = 0.0;
  double x0_ = 0.0;
  std::vector<Prefix> prefix_;  ///< prefix_[k]: sums over [base, base + k)
};

/// Bottom-up and sliding-window decisions on bounded O(1) costs. Each
/// decision is the one the two-pass errors give: a threshold test the
/// bound cannot settle, or an argmin whose winner it cannot separate, is
/// re-decided on fit_segment's error (cached per candidate).
class Segmenter {
 public:
  Segmenter(std::span<const double> ts, std::span<const double> xs,
            double max_error)
      : ts_(ts), xs_(xs), max_error_(max_error), window_(ts, xs) {}

  /// Bottom-up over [start, end): fills `cuts` with the segment
  /// boundaries, cuts.front() == start, cuts.back() == end.
  void bottom_up(std::size_t start, std::size_t end,
                 std::vector<std::size_t>& cuts) {
    // Initial fine segmentation: pairs of points, a trailing singleton.
    cuts.clear();
    const std::size_t n = end - start;
    for (std::size_t i = 0; i + 1 < n; i += 2) cuts.push_back(start + i);
    if (n % 2 == 1) cuts.push_back(end - 1);
    cuts.push_back(end);

    window_.reset(start);
    window_.extend_to(end);
    // merges_[j] merges segments j and j + 1: the range [cuts[j], cuts[j+2]).
    merges_.clear();
    for (std::size_t j = 0; j + 2 < cuts.size(); ++j) {
      merges_.emplace_back(window_.cost(cuts[j], cuts[j + 2]));
    }
    while (!merges_.empty()) {
      const std::size_t best = cheapest(cuts);
      if (over_budget(cuts[best], cuts[best + 2], merges_[best])) break;
      cuts.erase(cuts.begin() + static_cast<std::ptrdiff_t>(best) + 1);
      merges_.erase(merges_.begin() + static_cast<std::ptrdiff_t>(best));
      if (best < merges_.size()) {
        merges_[best] = Candidate(window_.cost(cuts[best], cuts[best + 2]));
      }
      if (best > 0) {
        merges_[best - 1] =
            Candidate(window_.cost(cuts[best - 1], cuts[best + 1]));
      }
    }
  }

  /// End of the greedy segment from `anchor`: starting at `first_end`, it
  /// grows one point at a time while the grown segment stays within
  /// budget and its end stays below `limit`. Runs of ends the bound
  /// certifies as within budget are taken in doubling blocks; a failed
  /// block falls back to single steps, for longer after each failure.
  std::size_t grow(std::size_t anchor, std::size_t first_end,
                   std::size_t limit) {
    const std::size_t last_end = std::min(xs_.size(), limit);
    window_.reset(anchor);
    window_.extend_to(first_end);
    std::size_t end = first_end;
    std::size_t block = 2;
    std::size_t singles = 0;
    std::size_t backoff = 1;
    while (end < last_end) {
      if (singles == 0 && end + 2 <= last_end) {
        const std::size_t last = std::min(end + block, last_end);
        window_.extend_to(last);
        if (window_.within_budget(anchor, end + 1, last, max_error_)) {
          end = last;
          block *= 2;
          backoff = 1;
          continue;
        }
        block = 2;
        singles = backoff;
        backoff *= 2;
      }
      window_.extend_to(end + 1);
      Candidate grown(window_.cost(anchor, end + 1));
      if (over_budget(anchor, end + 1, grown)) break;
      ++end;
      if (singles > 0) --singles;
    }
    return end;
  }

  [[nodiscard]] Segment fit(std::size_t start, std::size_t end) const {
    return fit_segment(ts_, xs_, start, end);
  }

  /// Two-pass errors computed because a bound could not settle a decision.
  [[nodiscard]] std::uint64_t exact_refits() const { return exact_refits_; }

 private:
  /// A merge or extension: the bound of its two-pass cost, narrowed to
  /// the cost itself once computed.
  struct Candidate {
    explicit Candidate(CostBound b) : lo(b.lo), hi(b.hi) {}
    double lo;
    double hi;
    bool exact = false;
  };

  void make_exact(Candidate& c, std::size_t start, std::size_t end) {
    c.lo = c.hi = fit(start, end).error;
    c.exact = true;
    ++exact_refits_;
  }

  /// The two-pass test error > max_error.
  bool over_budget(std::size_t start, std::size_t end, Candidate& c) {
    if (!c.exact) {
      if (c.lo > max_error_) return true;
      if (c.hi <= max_error_) return false;
      make_exact(c, start, end);
    }
    return c.hi > max_error_;
  }

  /// The first merge of least two-pass cost (std::min_element's pick).
  /// Only candidates whose bound reaches below every upper bound can be
  /// it; when that is more than one, they are compared on exact costs.
  std::size_t cheapest(const std::vector<std::size_t>& cuts) {
    const std::size_t m = merges_.size();
    if (m == 1) return 0;
    // One scan: the least upper bound, and the two least lower bounds.
    double min_hi = kInf;
    double lo1 = kInf;
    double lo2 = kInf;
    std::size_t first = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const Candidate& c = merges_[j];
      min_hi = std::min(min_hi, c.hi);
      if (c.lo < lo1) {
        lo2 = lo1;
        lo1 = c.lo;
        first = j;
      } else {
        lo2 = std::min(lo2, c.lo);
      }
    }
    if (lo2 > min_hi) return first;

    std::size_t best = m;
    for (std::size_t j = 0; j < m; ++j) {
      Candidate& c = merges_[j];
      if (!(c.lo <= min_hi)) continue;
      if (!c.exact) make_exact(c, cuts[j], cuts[j + 2]);
      if (best == m || c.hi < merges_[best].hi) best = j;
    }
    return best;
  }

  std::span<const double> ts_;
  std::span<const double> xs_;
  double max_error_;
  Window window_;
  std::vector<Candidate> merges_;
  std::uint64_t exact_refits_ = 0;
};

void count_exact_refits(const Segmenter& segmenter) {
  OBS_COUNT("algo.swab.exact_refits", segmenter.exact_refits());
}

}  // namespace

Segment fit_segment(std::span<const double> ts, std::span<const double> xs,
                    std::size_t start, std::size_t end) {
  Segment seg;
  seg.start = start;
  seg.end = end;
  const auto tsub = ts.subspan(start, end - start);
  const auto xsub = xs.subspan(start, end - start);
  seg.fit = fit_line(tsub, xsub);
  seg.error = residual_sum_squares(tsub, xsub, seg.fit);
  return seg;
}

std::vector<Segment> bottom_up_segment(std::span<const double> ts,
                                       std::span<const double> xs,
                                       double max_error) {
  check_sizes(ts, xs);
  std::vector<Segment> segments;
  if (xs.empty()) return segments;
  Segmenter segmenter(ts, xs, max_error);
  std::vector<std::size_t> cuts;
  segmenter.bottom_up(0, xs.size(), cuts);
  for (std::size_t j = 0; j + 1 < cuts.size(); ++j) {
    segments.push_back(segmenter.fit(cuts[j], cuts[j + 1]));
  }
  count_exact_refits(segmenter);
  return segments;
}

std::vector<Segment> sliding_window_segment(std::span<const double> ts,
                                            std::span<const double> xs,
                                            double max_error) {
  check_sizes(ts, xs);
  std::vector<Segment> segments;
  const std::size_t n = xs.size();
  Segmenter segmenter(ts, xs, max_error);
  std::size_t anchor = 0;
  while (anchor < n) {
    const std::size_t end =
        segmenter.grow(anchor, std::min(anchor + 2, n), n);
    segments.push_back(segmenter.fit(anchor, end));
    anchor = end;
  }
  count_exact_refits(segmenter);
  return segments;
}

std::vector<Segment> swab_segment(std::span<const double> ts,
                                  std::span<const double> xs,
                                  const SegmentationConfig& config) {
  check_sizes(ts, xs);
  const std::size_t n = xs.size();
  std::vector<Segment> out;
  if (n == 0) return out;
  const std::size_t buffer_size = std::max<std::size_t>(config.buffer_size, 4);
  Segmenter segmenter(ts, xs, config.max_error);
  std::vector<std::size_t> cuts;

  // Buffer is the window [lo, hi) of the input; a series that fits in one
  // buffer is plain bottom-up.
  std::size_t lo = 0;
  std::size_t hi = std::min(buffer_size, n);
  while (lo < n) {
    segmenter.bottom_up(lo, hi, cuts);
    // Emit the leftmost segment (it is final: bottom-up will not change it
    // once more data arrives, per the SWAB argument), unless the buffer
    // already covers the rest of the series — then everything is final.
    if (hi >= n) {
      for (std::size_t j = 0; j + 1 < cuts.size(); ++j) {
        out.push_back(segmenter.fit(cuts[j], cuts[j + 1]));
      }
      break;
    }
    out.push_back(segmenter.fit(cuts[0], cuts[1]));
    lo = cuts[1];

    // Refill: extend the right edge by one sliding-window segment worth of
    // points (the "best line" step of SWAB), keeping the buffer below
    // lo + buffer_size once the first two points are in.
    const std::size_t remaining_buffer = hi > lo ? hi - lo : 0;
    if (remaining_buffer < buffer_size && hi < n) {
      hi = segmenter.grow(hi, hi + std::min<std::size_t>(2, n - hi),
                          lo + buffer_size);
    }
    if (hi <= lo) hi = std::min(n, lo + buffer_size);
  }
  count_exact_refits(segmenter);
  return out;
}

std::vector<Segment> swab_segment(std::span<const double> xs,
                                  const SegmentationConfig& config) {
  std::vector<double> ts(xs.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    ts[i] = static_cast<double>(i);
  }
  return swab_segment(ts, xs, config);
}

}  // namespace ivt::algo
