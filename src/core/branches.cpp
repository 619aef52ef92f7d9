#include "core/branches.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "algo/sax.hpp"
#include "algo/smoothing.hpp"
#include "algo/stats.hpp"
#include "algo/trend.hpp"
#include "core/schemas.hpp"
#include "obs/obs.hpp"

namespace ivt::core {

namespace {

/// One homogenized output element, buffered so branch output can be merged
/// back into time order before the table is built.
struct OutElement {
  std::int64_t t = 0;
  std::string value;
  double v_num = 0.0;
  bool has_num = true;
  const char* kind = kElementState;
};

dataflow::Table build_output(const SequenceData& d,
                             std::vector<OutElement> elements) {
  std::stable_sort(elements.begin(), elements.end(),
                   [](const OutElement& a, const OutElement& b) {
                     return a.t < b.t;
                   });
  dataflow::TableBuilder builder(krep_schema(), 0);
  for (OutElement& e : elements) {
    dataflow::Partition& dst = builder.current_partition();
    dst.columns[0].append_int64(e.t);
    dst.columns[1].append_string(d.s_id);
    dst.columns[2].append_string(std::move(e.value));
    if (e.has_num) {
      dst.columns[3].append_float64(e.v_num);
    } else {
      dst.columns[3].append_null();
    }
    dst.columns[4].append_string(e.kind);
    dst.columns[5].append_string(d.bus);
    builder.commit_row();
  }
  return builder.build();
}

bool is_validity_label(const signaldb::SignalSpec* spec,
                       const std::string& label) {
  if (spec == nullptr) return false;
  for (const signaldb::ValueTableEntry& e : spec->value_table) {
    if (e.label == label) return e.validity;
  }
  return false;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string outlier_text(double v) {
  // A NaN prints as "nan" whatever its sign bit.
  return "outlier v=" + (std::isnan(v) ? std::string("nan") : format_number(v));
}

}  // namespace

std::string sax_level_name(std::size_t region, std::size_t alphabet_size) {
  static const char* k2[] = {"low", "high"};
  static const char* k3[] = {"low", "mid", "high"};
  static const char* k4[] = {"low", "midlow", "midhigh", "high"};
  static const char* k5[] = {"verylow", "low", "mid", "high", "veryhigh"};
  switch (alphabet_size) {
    case 2:
      return k2[std::min<std::size_t>(region, 1)];
    case 3:
      return k3[std::min<std::size_t>(region, 2)];
    case 4:
      return k4[std::min<std::size_t>(region, 3)];
    case 5:
      return k5[std::min<std::size_t>(region, 4)];
    default:
      return "L" + std::to_string(region);
  }
}

dataflow::Table process_alpha(const ConstraintContext& context,
                              const BranchConfig& config, BranchStats* stats) {
  const SequenceData& d = context.data;
  std::vector<OutElement> out;

  // typeSplit: numeric part vs nominal part (labelled elements, e.g.
  // "signal not valid" markers inside a numeric signal).
  std::vector<std::size_t> num_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.has_str[i] != 0) {
      OutElement e;
      e.t = d.t[i];
      e.value = d.v_str[i];
      e.has_num = d.has_num[i] != 0;
      e.v_num = d.v_num[i];
      e.kind = is_validity_label(context.spec, d.v_str[i]) ? kElementValidity
                                                           : kElementState;
      if (stats != nullptr) ++stats->validity;
      out.push_back(std::move(e));
    } else if (d.has_num[i] != 0) {
      num_idx.push_back(i);
    }
  }

  // outlier(): split the numeric part into outliers and remainder. A
  // non-finite value (a decoded IEEE float can be NaN or ±inf) is an
  // outlier by definition: it never enters the Hampel window, the
  // normalization statistics, smoothing or SWAB.
  //
  // Each kernel runs over every clean run in turn, under one span per
  // kernel and sequence (a span per run would wrap the trace rings).
  std::vector<std::vector<std::size_t>> clean_runs(1);
  std::vector<double> all_clean_values;
  {
    OBS_SPAN("branch.alpha.outliers");
    std::vector<double> values;
    values.reserve(num_idx.size());
    for (std::size_t i : num_idx) {
      if (std::isfinite(d.v_num[i])) values.push_back(d.v_num[i]);
    }
    const std::vector<std::uint8_t> mask =
        algo::detect_outliers(values, config.outlier);

    // Contiguous clean runs: an outlier acts as a segmentation boundary,
    // so a fresh state element follows every merged-back outlier (paper
    // Table 4: "outlier v = 800" at 22 s, "(high,steady)" again at 23 s).
    std::size_t finite = 0;
    for (std::size_t i : num_idx) {
      const double v = d.v_num[i];
      if (!std::isfinite(v) || mask[finite++] != 0) {
        OutElement e;
        e.t = d.t[i];
        e.v_num = v;
        e.value = outlier_text(v);
        e.kind = kElementOutlier;
        out.push_back(std::move(e));
        if (stats != nullptr) ++stats->outliers;
        if (!clean_runs.back().empty()) clean_runs.emplace_back();
      } else {
        clean_runs.back().push_back(i);
        all_clean_values.push_back(v);
      }
    }
    if (clean_runs.back().empty()) clean_runs.pop_back();
  }

  // Normalization statistics span the whole cleaned sequence so symbols
  // are comparable across runs.
  const double sd = algo::stddev(all_clean_values);
  const double mu = algo::mean(all_clean_values);

  // Smoothing, then SWAB segmentation over (t seconds, value).
  std::vector<std::vector<double>> smoothed(clean_runs.size());
  {
    OBS_SPAN("branch.alpha.smoothing");
    std::vector<double> clean_values;
    for (std::size_t r = 0; r < clean_runs.size(); ++r) {
      clean_values.clear();
      for (std::size_t i : clean_runs[r]) clean_values.push_back(d.v_num[i]);
      smoothed[r] =
          algo::moving_average(clean_values, config.smoothing_half_window);
    }
  }
  std::vector<std::vector<algo::Segment>> segments(clean_runs.size());
  {
    OBS_SPAN("branch.alpha.swab");
    algo::SegmentationConfig seg_config;
    seg_config.max_error =
        std::max(config.swab_error_scale * sd * sd, 1e-12);
    seg_config.buffer_size = config.swab_buffer;
    std::vector<double> ts;
    for (std::size_t r = 0; r < clean_runs.size(); ++r) {
      const std::int64_t t0 = d.t[clean_runs[r].front()];
      ts.clear();
      for (std::size_t i : clean_runs[r]) {
        ts.push_back(static_cast<double>(d.t[i] - t0) / 1e9);
      }
      segments[r] = algo::swab_segment(ts, smoothed[r], seg_config);
    }
  }

  // Symbolization: SAX symbol of the segment's mean level (z-normalized
  // against the whole cleaned sequence) + the segment trend.
  {
    OBS_SPAN("branch.alpha.sax");
    const std::vector<double> breakpoints =
        algo::sax_breakpoints(config.sax_alphabet);
    const double slope_threshold =
        config.steady_slope_fraction * (sd > 0.0 ? sd : 1.0);
    for (std::size_t r = 0; r < clean_runs.size(); ++r) {
      for (const algo::Segment& seg : segments[r]) {
        double seg_mean = 0.0;
        for (std::size_t k = seg.start; k < seg.end; ++k) {
          seg_mean += smoothed[r][k];
        }
        seg_mean /= static_cast<double>(seg.length());
        const double z = sd > 0.0 ? (seg_mean - mu) / sd : 0.0;
        const char symbol = algo::sax_symbol(z, breakpoints);
        const algo::Trend trend =
            algo::classify_slope(seg.fit.slope, slope_threshold);
        OutElement e;
        e.t = d.t[clean_runs[r][seg.start]];
        e.v_num = seg_mean;
        e.value = "(" +
                  sax_level_name(static_cast<std::size_t>(symbol - 'a'),
                                 config.sax_alphabet) +
                  "," + std::string(algo::to_string(trend)) + ")";
        out.push_back(std::move(e));
        if (stats != nullptr) {
          ++stats->segments;
          ++stats->states;
        }
      }
    }
  }

  return build_output(d, std::move(out));
}

dataflow::Table process_beta(const ConstraintContext& context,
                             const BranchConfig& config, BranchStats* stats) {
  const SequenceData& d = context.data;
  std::vector<OutElement> out;

  // functionSplit: K_V (validity labels) vs K_F (functional elements).
  std::vector<std::size_t> f_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.has_str[i] != 0 && is_validity_label(context.spec, d.v_str[i])) {
      OutElement e;
      e.t = d.t[i];
      e.value = d.v_str[i];
      e.has_num = false;
      e.kind = kElementValidity;
      out.push_back(std::move(e));
      if (stats != nullptr) ++stats->validity;
    } else {
      f_idx.push_back(i);
    }
  }

  // Numeric translation of K_F: ordinal labels map to their rank in the
  // (ordered) value table; numeric elements keep their value.
  std::vector<double> translated;
  translated.reserve(f_idx.size());
  for (std::size_t i : f_idx) {
    if (d.has_str[i] != 0 && context.spec != nullptr) {
      double rank = 0.0;
      double found = -1.0;
      for (const signaldb::ValueTableEntry& e : context.spec->value_table) {
        if (e.validity) continue;
        if (e.label == d.v_str[i]) {
          found = rank;
          break;
        }
        rank += 1.0;
      }
      translated.push_back(found >= 0.0 ? found : d.v_num[i]);
    } else {
      translated.push_back(d.v_num[i]);
    }
  }

  // Outlier check on the numeric translation.
  const std::vector<std::uint8_t> mask =
      algo::detect_outliers(translated, config.outlier);

  std::vector<std::size_t> clean_pos;
  for (std::size_t k = 0; k < f_idx.size(); ++k) {
    if (mask[k] != 0) {
      OutElement e;
      e.t = d.t[f_idx[k]];
      e.v_num = translated[k];
      e.value = outlier_text(translated[k]);
      e.kind = kElementOutlier;
      out.push_back(std::move(e));
      if (stats != nullptr) ++stats->outliers;
    } else {
      clean_pos.push_back(k);
    }
  }

  // addGradient: per-element trend from the discrete gradient.
  std::vector<double> ts;
  std::vector<double> ys;
  ts.reserve(clean_pos.size());
  ys.reserve(clean_pos.size());
  for (std::size_t k : clean_pos) {
    ts.push_back(static_cast<double>(d.t[f_idx[k]]) / 1e9);
    ys.push_back(translated[k]);
  }
  const double sd = ys.empty() ? 0.0 : algo::stddev(ys);
  const double slope_threshold =
      config.steady_slope_fraction * (sd > 0.0 ? sd : 1.0);
  const std::vector<algo::Trend> trends =
      algo::gradient_trends(ts, ys, slope_threshold);

  for (std::size_t j = 0; j < clean_pos.size(); ++j) {
    const std::size_t k = clean_pos[j];
    const std::size_t i = f_idx[k];
    OutElement e;
    e.t = d.t[i];
    e.v_num = translated[k];
    const std::string base =
        d.has_str[i] != 0 ? d.v_str[i] : format_number(d.v_num[i]);
    e.value = "(" + base + "," + std::string(algo::to_string(trends[j])) + ")";
    out.push_back(std::move(e));
    if (stats != nullptr) ++stats->states;
  }

  return build_output(d, std::move(out));
}

dataflow::Table process_gamma(const ConstraintContext& context,
                              const BranchConfig& /*config*/,
                              BranchStats* stats) {
  const SequenceData& d = context.data;
  std::vector<OutElement> out;
  out.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    OutElement e;
    e.t = d.t[i];
    e.has_num = d.has_num[i] != 0;
    e.v_num = d.v_num[i];
    if (d.has_str[i] != 0) {
      e.value = d.v_str[i];
      if (is_validity_label(context.spec, d.v_str[i])) {
        e.kind = kElementValidity;
        if (stats != nullptr) ++stats->validity;
      } else {
        if (stats != nullptr) ++stats->states;
      }
    } else {
      e.value = format_number(d.v_num[i]);
      if (stats != nullptr) ++stats->states;
    }
    out.push_back(std::move(e));
  }
  return build_output(d, std::move(out));
}

dataflow::Table process_by_branch(Branch branch,
                                  const ConstraintContext& context,
                                  const BranchConfig& config,
                                  BranchStats* stats) {
  switch (branch) {
    case Branch::Alpha:
      return process_alpha(context, config, stats);
    case Branch::Beta:
      return process_beta(context, config, stats);
    case Branch::Gamma:
      return process_gamma(context, config, stats);
  }
  return dataflow::Table(krep_schema());
}

}  // namespace ivt::core
