// Columnar-store ablation: preselection cost on the row-oriented .ivt
// container (full streaming decode of every record, then σ-filter) versus
// the chunked .ivc container (zone-map chunk pruning + row filtering
// during decode, payloads materialized only for surviving rows).
//
// Selectivity is swept as a percentage of distinct message ids requested;
// the paper's preselection (Algorithm 1 lines 2-3) typically requests a
// single domain's messages, i.e. low selectivity, where the columnar scan
// touches a fraction of the bytes the .ivt path decodes.
//
// Each benchmark also appends a JSON line to BENCH_colstore_scan.json
// (IVT_BENCH_JSON_DIR overrides the directory) with timing, row counts
// and peak RSS.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "colstore/chunk_cursor.hpp"
#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "dataflow/ops.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/binary_format.hpp"
#include "tracefile/trace.hpp"

namespace {

using namespace ivt;

/// LIG-class journey written once to both containers in a temp dir.
struct Workload {
  std::string ivt_path;
  std::string ivc_path;
  std::vector<std::int64_t> message_ids;  ///< distinct, ascending
  std::size_t num_records = 0;
  signaldb::Catalog catalog;

  Workload() {
    simnet::DatasetConfig config;
    config.scale = 1e-3 * bench::bench_scale();
    config.seed = 42;
    const simnet::Dataset dataset = simnet::make_lig_dataset(config);
    num_records = dataset.trace.size();
    catalog = dataset.catalog;

    const char* tmp = std::getenv("TMPDIR");
    const std::string dir = tmp != nullptr ? tmp : "/tmp";
    ivt_path = dir + "/ivt_bench_colstore.ivt";
    ivc_path = dir + "/ivt_bench_colstore.ivc";
    tracefile::save_trace(dataset.trace, ivt_path);
    colstore::save_trace_columnar(dataset.trace, ivc_path,
                                  {.chunk_rows = 8192});

    std::set<std::int64_t> ids;
    for (const tracefile::TraceRecord& rec : dataset.trace.records) {
      ids.insert(rec.message_id);
    }
    message_ids.assign(ids.begin(), ids.end());
  }

  /// The first `percent`% of distinct ids (at least one).
  [[nodiscard]] std::vector<std::int64_t> id_subset(
      std::int64_t percent) const {
    const std::size_t n = std::max<std::size_t>(
        1, message_ids.size() * static_cast<std::size_t>(percent) / 100);
    return {message_ids.begin(),
            message_ids.begin() + static_cast<std::ptrdiff_t>(n)};
  }
};

Workload& workload() {
  static Workload w;
  return w;
}

void emit_result(const std::string& path_kind, std::int64_t percent,
                 double seconds_per_iter, std::size_t rows_out,
                 std::size_t rows_in) {
  static bench::JsonLinesEmitter emitter("colstore_scan");
  bench::JsonRecord record;
  record.add("bench", "colstore_scan")
      .add("path", path_kind)
      .add("selectivity_pct", percent)
      .add("seconds", seconds_per_iter)
      .add("rows_in", static_cast<std::uint64_t>(rows_in))
      .add("rows_out", static_cast<std::uint64_t>(rows_out))
      .add("scale", bench::bench_scale())
      .add("peak_rss_bytes", bench::peak_rss_bytes());
  emitter.emit(record);
}

/// Baseline: the only path the row container supports — stream-decode
/// every record, build K_b, then σ-filter on the id set.
void BM_IvtFullDecodeScan(benchmark::State& state) {
  const std::int64_t percent = state.range(0);
  const std::vector<std::int64_t> ids = workload().id_subset(percent);
  const std::set<std::int64_t> id_set(ids.begin(), ids.end());
  std::size_t rows = 0;
  bench::Stopwatch watch;
  for (auto _ : state) {
    const tracefile::Trace trace = tracefile::load_trace(workload().ivt_path);
    std::size_t kept = 0;
    for (const tracefile::TraceRecord& rec : trace.records) {
      kept += id_set.contains(rec.message_id) ? 1 : 0;
    }
    rows = kept;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  emit_result("ivt_full_decode", percent,
              watch.seconds() / static_cast<double>(state.iterations()),
              rows, workload().num_records);
}
BENCHMARK(BM_IvtFullDecodeScan)->Arg(5)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// Columnar path: zone-map pruning + pushed-down row filter; only
/// surviving rows are materialized into the K_b table.
void BM_IvcPrunedScan(benchmark::State& state) {
  const std::int64_t percent = state.range(0);
  colstore::ScanPredicate pred;
  pred.message_ids = workload().id_subset(percent);
  const colstore::ColumnarReader reader(workload().ivc_path);
  std::size_t rows = 0;
  colstore::ScanStats stats;
  bench::Stopwatch watch;
  for (auto _ : state) {
    const dataflow::Table kpre = reader.scan(pred, &stats);
    rows = kpre.num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  state.counters["chunks_scanned"] =
      static_cast<double>(stats.chunks_scanned);
  emit_result("ivc_pruned_scan", percent,
              watch.seconds() / static_cast<double>(state.iterations()),
              rows, workload().num_records);
}
BENCHMARK(BM_IvcPrunedScan)->Arg(5)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// Decode-free run-level path (--scan compressed): the same pruning +
/// pushdown as BM_IvcPrunedScan, but surviving chunks are evaluated on
/// their key_idx RLE runs — rejected runs advance the column cursors
/// without materializing a row, and the bus/message-id blocks are never
/// decoded at all. Output is byte-identical to BM_IvcPrunedScan; the
/// delta between the two rows at equal selectivity is the decode cost
/// the compressed path skips.
void BM_IvcCompressedScan(benchmark::State& state) {
  const std::int64_t percent = state.range(0);
  colstore::ScanPredicate pred;
  pred.message_ids = workload().id_subset(percent);
  const colstore::ColumnarReader reader(workload().ivc_path);
  colstore::ScanOptions options;
  options.mode = colstore::ScanMode::Compressed;
  std::size_t rows = 0;
  colstore::ScanStats stats;
  bench::Stopwatch watch;
  for (auto _ : state) {
    const dataflow::Table kpre = reader.scan(pred, options, &stats);
    rows = kpre.num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  state.counters["runs_pruned"] = static_cast<double>(stats.runs_pruned);
  state.counters["runs_accepted"] =
      static_cast<double>(stats.runs_accepted);
  emit_result("ivc_compressed_scan", percent,
              watch.seconds() / static_cast<double>(state.iterations()),
              rows, workload().num_records);
}
BENCHMARK(BM_IvcCompressedScan)->Arg(5)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// Streaming morsel path: the same pruning + pushdown as BM_IvcPrunedScan
/// but decoding one chunk at a time through ChunkCursor — the access
/// pattern of --exec=streaming, where at most one morsel's rows are
/// resident per worker instead of the whole K_pre table.
void BM_IvcCursorStream(benchmark::State& state) {
  const std::int64_t percent = state.range(0);
  colstore::ScanPredicate pred;
  pred.message_ids = workload().id_subset(percent);
  const colstore::ColumnarReader reader(workload().ivc_path);
  std::size_t rows = 0;
  std::size_t peak_morsel_rows = 0;
  bench::Stopwatch watch;
  for (auto _ : state) {
    const colstore::ChunkCursor cursor = reader.cursor(pred);
    std::size_t kept = 0;
    std::size_t peak = 0;
    for (std::size_t k = 0; k < cursor.num_morsels(); ++k) {
      const dataflow::Partition morsel = cursor.decode(k);
      kept += morsel.num_rows();
      peak = std::max(peak, morsel.num_rows());
      benchmark::DoNotOptimize(morsel);
    }  // morsel freed here: working set stays one chunk deep
    rows = kept;
    peak_morsel_rows = peak;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  state.counters["peak_morsel_rows"] =
      static_cast<double>(peak_morsel_rows);
  emit_result("ivc_cursor_stream", percent,
              watch.seconds() / static_cast<double>(state.iterations()),
              rows, workload().num_records);
}
BENCHMARK(BM_IvcCursorStream)->Arg(5)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// The compressed cursor path, rendered to K_b partitions (the batch
/// scan's per-chunk work under --scan compressed).
void BM_IvcCursorStreamCompressed(benchmark::State& state) {
  const std::int64_t percent = state.range(0);
  colstore::ScanPredicate pred;
  pred.message_ids = workload().id_subset(percent);
  const colstore::ColumnarReader reader(workload().ivc_path);
  colstore::ScanOptions options;
  options.mode = colstore::ScanMode::Compressed;
  std::size_t rows = 0;
  bench::Stopwatch watch;
  for (auto _ : state) {
    const colstore::ChunkCursor cursor = reader.cursor(pred, options);
    std::size_t kept = 0;
    for (std::size_t k = 0; k < cursor.num_morsels(); ++k) {
      const dataflow::Partition morsel = cursor.decode(k);
      kept += morsel.num_rows();
      benchmark::DoNotOptimize(morsel);
    }
    rows = kept;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  emit_result("ivc_cursor_stream_compressed", percent,
              watch.seconds() / static_cast<double>(state.iterations()),
              rows, workload().num_records);
}
BENCHMARK(BM_IvcCursorStreamCompressed)->Arg(5)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// The streaming / dist per-morsel kernel: MorselProcessor::process over
/// every morsel of the file — select, interpret and bucket into per-signal
/// sequences — with every catalog signal in U_comb. Arg 0 = decoded scan,
/// 1 = compressed. Items are K_b rows (every record of the file).
void BM_MorselProcess(benchmark::State& state) {
  const bool compressed = state.range(0) != 0;
  const colstore::ColumnarReader reader(workload().ivc_path);
  core::PipelineConfig config;
  config.scan_mode = compressed ? colstore::ScanMode::Compressed
                                : colstore::ScanMode::Decoded;
  const core::Pipeline pipeline(workload().catalog, std::move(config));
  const core::MorselProcessor processor(reader, pipeline.urel(),
                                        pipeline.config(), nullptr);
  std::size_t ks_rows = 0;
  bench::Stopwatch watch;
  for (auto _ : state) {
    ks_rows = 0;
    for (std::size_t k = 0; k < processor.num_morsels(); ++k) {
      const core::MorselPartial partial = processor.process(k);
      ks_rows += partial.ks_rows;
      benchmark::DoNotOptimize(partial);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reader.num_rows()));
  state.counters["ks_rows"] = static_cast<double>(ks_rows);
  emit_result(compressed ? "morsel_process_compressed" : "morsel_process",
              100, watch.seconds() / static_cast<double>(state.iterations()),
              ks_rows, reader.num_rows());
}
BENCHMARK(BM_MorselProcess)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Columnar path including file open + footer parse each iteration (the
/// cold-start cost a per-journey batch job pays).
void BM_IvcOpenAndScan(benchmark::State& state) {
  const std::int64_t percent = state.range(0);
  colstore::ScanPredicate pred;
  pred.message_ids = workload().id_subset(percent);
  std::size_t rows = 0;
  bench::Stopwatch watch;
  for (auto _ : state) {
    const colstore::ColumnarReader reader(workload().ivc_path);
    const dataflow::Table kpre = reader.scan(pred);
    rows = kpre.num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  emit_result("ivc_open_and_scan", percent,
              watch.seconds() / static_cast<double>(state.iterations()),
              rows, workload().num_records);
}
BENCHMARK(BM_IvcOpenAndScan)->Arg(5)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// Time-windowed scan: zone maps on t_ns prune chunks outside the window
/// entirely (time-ordered traces give tight per-chunk time ranges).
void BM_IvcTimeWindowScan(benchmark::State& state) {
  const colstore::ColumnarReader reader(workload().ivc_path);
  // Middle 10% of the journey.
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  for (const colstore::ChunkInfo& c : reader.chunks()) {
    hi = std::max(hi, c.max_t_ns);
    lo = std::min(lo, c.min_t_ns);
  }
  const std::int64_t span = hi - lo;
  colstore::ScanPredicate pred;
  pred.has_time_range = true;
  pred.min_t_ns = lo + span * 45 / 100;
  pred.max_t_ns = lo + span * 55 / 100;
  std::size_t rows = 0;
  colstore::ScanStats stats;
  bench::Stopwatch watch;
  for (auto _ : state) {
    const dataflow::Table slice = reader.scan(pred, &stats);
    rows = slice.num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  state.counters["chunks_scanned"] =
      static_cast<double>(stats.chunks_scanned);
  state.counters["chunks_total"] = static_cast<double>(stats.chunks_total);
  emit_result("ivc_time_window", 10,
              watch.seconds() / static_cast<double>(state.iterations()),
              rows, workload().num_records);
}
BENCHMARK(BM_IvcTimeWindowScan)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
