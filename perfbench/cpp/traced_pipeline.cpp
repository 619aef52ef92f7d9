// The traced run of the pipeline workloads. The run itself is the
// program's: one run_pipeline call (Pipeline::run, or dist::run_dist for
// syn-dist) with the obs spans src/ records on every run (pipeline.*,
// sequence.*, branch.*, colstore.*, dist.*), read back in process with
// obs::collect_spans(). The benchmark adds spans of its own only around
// public calls the program has no span for, made after the run on its
// inputs and outputs: the α kernels of src/algo, the miners of src/apps
// and the dist partial codec.
#include <algorithm>
#include <cstdio>

#include "algo/outliers.hpp"
#include "algo/sax.hpp"
#include "algo/smoothing.hpp"
#include "algo/stats.hpp"
#include "algo/swab.hpp"
#include "apps/anomaly.hpp"
#include "apps/association_rules.hpp"
#include "apps/transition_graph.hpp"
#include "core/partials.hpp"
#include "dataflow/ops.hpp"
#include "dist/partial_codec.hpp"
#include "obs/trace_context.hpp"
#include "serve/query_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ivt::core::Branch;
using ivt::core::SequenceData;
using ivt::obs::SpanScope;

/// The reduced sequences the run classifies α: process_alpha's inputs,
/// recomputed untraced through the public lines-3–11 entry point (its
/// output equals every exec mode's) and classify_sequence.
std::vector<SequenceData> alpha_sequences(const PipelineSetup& setup) {
  const ivt::core::PipelineConfig& config = setup.pipeline->config();
  ivt::core::Pipeline::ReducedResult reduced =
      setup.pipeline->extract_and_reduce_streaming(*setup.engine,
                                                   *setup.reader);
  std::vector<SequenceData> alpha;
  for (SequenceData& seq : reduced.sequences) {
    const ivt::signaldb::SignalRef ref = setup.catalog->find_signal(seq.s_id);
    const ivt::core::ConstraintContext context{
        seq, ref.valid() ? ref.signal : nullptr};
    if (ivt::core::classify_sequence(context, config.classifier).branch ==
        Branch::Alpha) {
      alpha.push_back(std::move(seq));
    }
  }
  return alpha;
}

/// Replays process_alpha's calls into src/algo on one reduced α
/// sequence: the outlier mask, then per clean run smoothing, SWAB
/// segmentation and one SAX symbol per segment. The calls and their
/// inputs are process_alpha's, grouped per kernel so each kernel is one
/// span per sequence (a span per run would wrap the trace rings).
/// Returns the numeric items the sequence holds.
double replay_alpha(const SequenceData& d,
                    const ivt::core::BranchConfig& config) {
  std::vector<std::size_t> num_idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.has_str[i] == 0 && d.has_num[i] != 0) num_idx.push_back(i);
  }
  std::vector<double> values;
  for (const std::size_t i : num_idx) values.push_back(d.v_num[i]);
  std::vector<std::uint8_t> mask;
  {
    const SpanScope span("algo.hampel");
    mask = ivt::algo::detect_outliers(values, config.outlier);
  }
  std::vector<std::vector<std::size_t>> runs(1);
  std::vector<double> clean;
  for (std::size_t k = 0; k < num_idx.size(); ++k) {
    if (mask[k] != 0) {
      if (!runs.back().empty()) runs.emplace_back();
    } else {
      runs.back().push_back(num_idx[k]);
      clean.push_back(values[k]);
    }
  }
  if (runs.back().empty()) runs.pop_back();
  const double sd = ivt::algo::stddev(clean);
  const double mu = ivt::algo::mean(clean);
  std::vector<std::vector<double>> xs(runs.size());
  std::vector<std::vector<double>> ts(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const std::size_t i : runs[r]) {
      xs[r].push_back(d.v_num[i]);
      ts[r].push_back(static_cast<double>(d.t[i] - d.t[runs[r].front()]) /
                      1e9);
    }
  }
  std::vector<std::vector<double>> smoothed(runs.size());
  {
    const SpanScope span("algo.smoothing");
    for (std::size_t r = 0; r < runs.size(); ++r) {
      smoothed[r] =
          ivt::algo::moving_average(xs[r], config.smoothing_half_window);
    }
  }
  ivt::algo::SegmentationConfig seg_config;
  seg_config.max_error = std::max(config.swab_error_scale * sd * sd, 1e-12);
  seg_config.buffer_size = config.swab_buffer;
  std::vector<std::vector<ivt::algo::Segment>> segments(runs.size());
  {
    const SpanScope span("algo.swab");
    for (std::size_t r = 0; r < runs.size(); ++r) {
      segments[r] = ivt::algo::swab_segment(ts[r], smoothed[r], seg_config);
    }
  }
  const SpanScope span("algo.sax");
  const std::vector<double> breakpoints =
      ivt::algo::sax_breakpoints(config.sax_alphabet);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const ivt::algo::Segment& seg : segments[r]) {
      double level = 0.0;
      for (std::size_t k = seg.start; k < seg.end; ++k) {
        level += smoothed[r][k];
      }
      level /= static_cast<double>(seg.length());
      const double z = sd > 0.0 ? (level - mu) / sd : 0.0;
      static_cast<void>(ivt::algo::sax_symbol(z, breakpoints));
    }
  }
  return static_cast<double>(values.size());
}

/// The miners' input: the state table's first kAppsRows rows and first
/// kAppsColumns signal columns, so the miners cost the same order of
/// time on every workload (the full SYN table takes the rule miner 17 s).
constexpr std::size_t kAppsRows = 2000;
constexpr std::size_t kAppsColumns = 24;

ivt::dataflow::Table apps_input(ivt::dataflow::Engine& engine,
                                const ivt::dataflow::Table& state) {
  const std::size_t t_col = state.schema().require("t");
  std::int64_t cutoff = 0;
  std::size_t seen = 0;
  for (std::size_t p = 0; p < state.num_partitions() && seen < kAppsRows; ++p) {
    const ivt::dataflow::Partition& part = state.partition(p);
    const std::size_t take = std::min(part.num_rows(), kAppsRows - seen);
    if (take > 0) cutoff = part.columns[t_col].int64_at(take - 1);
    seen += take;
  }
  const ivt::dataflow::Table head = ivt::dataflow::filter(
      engine, state, [t_col, cutoff](const ivt::dataflow::RowView& row) {
        return !row.is_null(t_col) && row.int64_at(t_col) <= cutoff;
      });
  std::vector<std::string> columns{"t"};
  for (const ivt::dataflow::Field& field : state.schema().fields()) {
    if (field.name != "t" && columns.size() <= kAppsColumns) {
      columns.push_back(field.name);
    }
  }
  return ivt::dataflow::project(engine, head, columns);
}

/// src/apps on a slice of the run's state table: the association-rule
/// miner, the state-frequency anomaly detector and the joint transition
/// graph.
void run_apps(const ivt::dataflow::Table& state) {
  {
    const SpanScope span("apps.rules");
    static_cast<void>(ivt::apps::mine_rules(state));
  }
  {
    const SpanScope span("apps.anomaly");
    static_cast<void>(ivt::apps::detect_state_anomalies(state));
  }
  const SpanScope span("apps.transition");
  static_cast<void>(ivt::apps::TransitionGraph::from_columns(state, {}));
}

/// dist's partial codec on this trace's morsel partials: each partial is
/// encoded as a worker ships it and decoded as the coordinator reads it.
/// The partials themselves are computed with span recording off, so only
/// the codec's spans land in the trace. Returns the encoded bytes.
double replay_codec(const PipelineSetup& setup) {
  const ivt::core::MorselProcessor processor(
      *setup.reader, setup.pipeline->urel(), setup.pipeline->config(),
      nullptr);
  double bytes = 0.0;
  for (std::size_t k = 0; k < processor.num_morsels(); ++k) {
    ivt::obs::set_tracing_enabled(false);
    std::vector<ivt::core::MorselPartial> one;
    one.push_back(processor.process(k));
    ivt::obs::set_tracing_enabled(true);
    std::string payload;
    {
      const SpanScope span("dist.encode");
      payload = ivt::dist::encode_partials(one);
    }
    bytes += static_cast<double>(payload.size());
    const SpanScope span("dist.decode");
    static_cast<void>(ivt::dist::decode_partials(payload));
  }
  return bytes;
}

constexpr int kOverheadPairs = 3;

double fraction(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

int pipeline_traced(const Workload& workload, const std::string& dir,
                    const std::string& chrome_trace_path) {
  const PipelineSetup setup =
      setup_pipeline(workload, dir, workload.exec, workload.scan);
  const ivt::core::PipelineConfig& config = setup.pipeline->config();
  const ivt::core::ExecMode mode = config.exec_mode;
  std::vector<std::string> state_hashes;
  std::vector<std::string> krep_hashes;
  std::map<std::string, double> L;

  // Span recording off: the α replay's inputs and a warm-up run, so the
  // process's first-run costs are paid. Then kOverheadPairs pairs of an
  // untraced and a traced run: the tracing overhead compares their
  // medians, since one run against one run is within the host's noise.
  // The per-layer numbers come from the last traced run, whose spans
  // alone are kept (one trace id for the run).
  ivt::obs::set_tracing_enabled(false);
  const std::vector<SequenceData> alpha = alpha_sequences(setup);
  {
    const ivt::core::PipelineResult warm = run_pipeline(setup);
    state_hashes.push_back(hash_csv(warm.state));
    krep_hashes.push_back(hash_csv(warm.krep));
  }
  std::vector<double> untraced_s;
  std::vector<double> untraced_cpu_s;
  std::vector<double> traced_s;
  ivt::colstore::ScanStats stats;
  ivt::core::PipelineResult result;
  RunCounts runs_before;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    ivt::obs::set_tracing_enabled(false);
    double w0 = wall_s();
    const double c0 = cpu_s();
    result = run_pipeline(setup);
    untraced_s.push_back(wall_s() - w0);
    untraced_cpu_s.push_back(cpu_s() - c0);
    state_hashes.push_back(hash_csv(result.state));
    krep_hashes.push_back(hash_csv(result.krep));

    ivt::obs::reset_spans();
    ivt::obs::set_tracing_enabled(true);
    runs_before = run_counts();
    w0 = wall_s();
    {
      const ivt::obs::TraceContextScope scope(ivt::obs::TraceContext{1, 0});
      result = run_pipeline(setup, &stats);
    }
    traced_s.push_back(wall_s() - w0);
    state_hashes.push_back(hash_csv(result.state));
    krep_hashes.push_back(hash_csv(result.krep));
  }
  L["colstore.runs_pruned_frac"] = runs_pruned_frac(runs_before, run_counts());
  const SpanSummary run = SpanSummary::collect();

  // The benchmark's spans after it, under a second trace id.
  {
    const ivt::obs::TraceContextScope scope(ivt::obs::TraceContext{2, 0});
    double items = 0.0;
    for (const SequenceData& seq : alpha) {
      items += replay_alpha(seq, config.branch);
    }
    L["algo.alpha_items"] = items;
    ivt::obs::set_tracing_enabled(false);
    const ivt::dataflow::Table apps_state =
        apps_input(*setup.engine, result.state);
    ivt::obs::set_tracing_enabled(true);
    run_apps(apps_state);
    if (mode == ivt::core::ExecMode::Dist) {
      L["dist.partial_bytes"] = replay_codec(setup);
    }
  }
  const SpanSummary all = SpanSummary::collect();
  ivt::obs::write_chrome_trace(chrome_trace_path);

  // colstore: the batch scan is one call; streaming and dist fuse it into
  // the morsels, one decode_chunk span per chunk.
  L["colstore.scan_s"] = mode == ivt::core::ExecMode::Batch
                             ? run.total_s("colstore.scan")
                             : run.total_s("colstore.decode_chunk");
  L["colstore.chunks_scanned"] = static_cast<double>(stats.chunks_scanned);
  L["colstore.rows_emitted_frac"] =
      fraction(stats.rows_emitted, stats.rows_considered);

  for (const auto& [metric, span] :
       std::map<std::string, std::string>{
           {"core.preselect", "pipeline.preselect"},
           {"core.interpret", "pipeline.interpret"},
           {"core.reduce", "sequence.reduce"}}) {
    L[metric + "_s"] = run.total_s(span);
    L[metric + ".rows_out"] = run.rows(span);
  }
  L["core.split_s"] = run.total_s("pipeline.split");
  L["core.split.sequences"] = static_cast<double>(result.sequences.size());
  double deduped = 0.0;
  for (const ivt::core::ChannelCorrespondence& c : result.correspondences) {
    deduped += static_cast<double>(c.corresponding_buses.size());
  }
  L["core.split.channels_deduped"] = deduped;

  // Morsels: one pipeline.morsel span each when streaming; dist's workers
  // record one dist.process_range span per range of morsels.
  L["core.morsels"] = mode == ivt::core::ExecMode::Batch
                          ? 0.0
                          : static_cast<double>(stats.chunks_scanned);
  L["core.morsel_cpu_s"] =
      run.total_s("pipeline.morsel") + run.total_s("dist.process_range");
  L["core.morsel_max_s"] = run.max_s("pipeline.morsel");
  if (mode == ivt::core::ExecMode::Streaming) {
    // The fused stage's tail after its last morsel: draining the shards
    // and merge_split_segments.
    L["core.merge_split_s"] =
        run.last_end_s("pipeline.stream_extract_split") -
        run.last_end_s("pipeline.morsel");
  }
  for (const ivt::core::StageTiming& stage : result.stage_times) {
    if (stage.stage == "dist_merge") {
      L["core.merge_split_s"] = stage.wall_ms / 1e3;
    }
  }

  L["core.classify_s"] = run.total_s("sequence.classify");
  double branch_rows = 0.0;
  double branch_max = 0.0;
  for (const char* name : {"alpha", "beta", "gamma"}) {
    const std::string span = std::string("branch.") + name;
    L["core.branch." + std::string(name) + "_s"] = run.total_s(span);
    branch_rows += run.rows(span);
    branch_max = std::max(branch_max, run.max_s(span));
  }
  L["core.branch.rows_out"] = branch_rows;
  L["core.branch.max_seq_s"] = branch_max;
  L["core.state_repr_s"] = run.total_s("pipeline.state_repr");
  L["core.state_repr.cells"] = static_cast<double>(
      result.state.num_rows() * result.state.schema().size());
  // The table's size as the daemon's tier-2 budget counts it; RSS growth
  // across one call would depend on what the allocator kept from earlier
  // runs.
  L["core.state_repr.table_mb"] =
      static_cast<double>(ivt::serve::approx_table_bytes(result.state)) /
      (1024.0 * 1024.0);

  for (const char* name : {"algo.hampel", "algo.smoothing", "algo.swab",
                           "algo.sax", "apps.rules", "apps.anomaly",
                           "apps.transition", "dist.encode", "dist.decode"}) {
    L[std::string(name) + "_s"] = all.total_s(name);
  }
  L["dist.merge_s"] = run.total_s("pipeline.merge_morsel_partials");
  const ivt::core::DistStats& d = result.dist;
  L["dist.ranges_total"] = static_cast<double>(d.ranges_total);
  L["dist.ranges_reassigned"] = static_cast<double>(d.ranges_reassigned);
  L["dist.speculative_wasted_frac"] =
      d.ranges_total == 0
          ? 0.0
          : (static_cast<double>(d.speculative_launched) -
             static_cast<double>(d.speculative_wins)) /
                static_cast<double>(d.ranges_total);

  L["dataflow.parallelism"] = median(untraced_cpu_s) / median(untraced_s);
  L["trace.run_s"] = median(traced_s);
  L["trace.untraced_run_s"] = median(untraced_s);
  L["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0;
  for (const auto& [layer, self] : all.self_time_by_layer()) {
    L[layer + ".self_s"] = self;
  }

  Result out;
  out.set("layers", L);
  out.set("state_hash", state_hashes);
  out.set("krep_hash", krep_hashes);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
