#include "serve/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/anomaly.hpp"
#include "colstore/chunk_decode.hpp"
#include "colstore/columnar_reader.hpp"
#include "core/interpret.hpp"
#include "core/pipeline.hpp"
#include "core/urel.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/engine.hpp"
#include "errors/error.hpp"
#include "obs/obs.hpp"
#include "tracefile/trace.hpp"

namespace ivt::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Inline engine for request-scoped pipeline work: every dataflow task
/// runs on the calling pool worker. Parallelism comes from concurrent
/// requests; nesting a second thread pool inside a pool worker would
/// oversubscribe and deadlock-prone the admission window.
dataflow::Engine make_inline_engine() {
  dataflow::EngineConfig config;
  config.workers = 0;
  config.inline_execution = true;
  return dataflow::Engine(config);
}

/// A rendered reply, shared so that tier 2 and the socket write read the
/// same bytes.
std::shared_ptr<const std::string> render_csv(const dataflow::Table& table) {
  std::string csv;
  dataflow::append_csv(csv, table);
  return std::make_shared<const std::string>(std::move(csv));
}

std::shared_ptr<const std::string> render_csv(
    const dataflow::Table& table, const std::vector<std::size_t>& columns,
    const std::vector<dataflow::RowRange>& rows) {
  std::string csv;
  dataflow::append_csv(csv, table, columns, rows);
  return std::make_shared<const std::string>(std::move(csv));
}

/// The columns of a state table that a state request returns: all of
/// them when it names no signals, else "t" plus each requested signal
/// that appears in the representation (a signal with no instances grows
/// no column), in request order. A present signal named twice is a Spec
/// error, as a projection onto a duplicated field name always was.
std::vector<std::size_t> state_columns(
    const dataflow::Schema& schema, const std::vector<std::string>& signals) {
  std::vector<std::size_t> columns;
  if (signals.empty()) {
    columns.resize(schema.size());
    std::iota(columns.begin(), columns.end(), std::size_t{0});
    return columns;
  }
  columns.push_back(schema.require("t"));
  for (const std::string& s : signals) {
    const std::optional<std::size_t> index = schema.index_of(s);
    if (!index) continue;
    if (std::find(columns.begin(), columns.end(), *index) != columns.end()) {
      IVT_THROW(errors::Category::Spec,
                "serve: signal '" + s + "' is requested twice");
    }
    columns.push_back(*index);
  }
  return columns;
}

/// Every row of `table`, one range per partition.
std::vector<dataflow::RowRange> all_rows(const dataflow::Table& table) {
  std::vector<dataflow::RowRange> rows;
  rows.reserve(table.num_partitions());
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    rows.push_back({p, 0, table.partition(p).num_rows()});
  }
  return rows;
}

/// Rows of a state table with lo <= t <= hi. The representation is
/// ordered by t with nulls first (core::build_state_representation), so
/// the rows in range form one run per partition, found by binary search.
std::vector<dataflow::RowRange> rows_in_range(const dataflow::Table& state,
                                              std::int64_t lo,
                                              std::int64_t hi) {
  const std::size_t t_col = state.schema().require("t");
  std::vector<dataflow::RowRange> rows;
  for (std::size_t p = 0; p < state.num_partitions(); ++p) {
    const dataflow::Column& t = state.partition(p).columns[t_col];
    const std::vector<std::int64_t>& values = t.int64_data();
    // First non-null row: nulls lead the partition.
    std::size_t first = 0;
    std::size_t count = t.size();
    while (count > 0) {
      const std::size_t half = count / 2;
      if (t.is_null(first + half)) {
        first += half + 1;
        count -= half + 1;
      } else {
        count = half;
      }
    }
    const auto begin =
        std::lower_bound(values.begin() + static_cast<std::ptrdiff_t>(first),
                         values.end(), lo);
    const auto end = std::upper_bound(begin, values.end(), hi);
    if (begin < end) {
      rows.push_back({p, static_cast<std::size_t>(begin - values.begin()),
                      static_cast<std::size_t>(end - values.begin())});
    }
  }
  return rows;
}

/// U_comb for the requested signal set; unknown signal names become a
/// typed Spec error (the batch CLI maps the same std::invalid_argument to
/// a usage error, but over the wire every failure must be typed).
dataflow::Table build_urel(const signaldb::Catalog& db,
                           const std::vector<std::string>& signals) {
  try {
    return signals.empty() ? core::make_full_urel_table(db)
                           : core::make_urel_table(db, signals);
  } catch (const std::invalid_argument& e) {
    IVT_THROW(errors::Category::Spec, std::string("serve: ") + e.what());
  }
}

}  // namespace

struct QueryEngine::RequestContext {
  std::uint64_t request_id = 0;
  std::string op;
  std::string trace;
  std::vector<std::string> signals;
  bool has_min = false;
  bool has_max = false;
  std::int64_t min_t_ns = 0;
  std::int64_t max_t_ns = 0;
  double rate_threshold_hz = 5.0;
  std::int64_t top_k = 10;

  Clock::time_point start = Clock::now();
  std::vector<std::pair<std::string, double>> stages;
  std::uint64_t trace_id = 0;
  std::size_t chunks_total = 0;
  std::size_t chunks_scanned = 0;
  std::size_t chunks_decoded = 0;
  std::size_t chunk_cache_hits = 0;
  std::size_t chunk_cache_misses = 0;
  bool state_cache_hit = false;
  std::uint64_t rows = 0;

  /// Scoped per-stage wall clock; results land in the response's
  /// "stages" object and (via the enclosing OBS span) in the Chrome
  /// trace. A stage timed twice in one request reports the sum.
  class StageTimer {
   public:
    StageTimer(RequestContext& ctx, std::string name)
        : ctx_(ctx), name_(std::move(name)), start_(Clock::now()) {}
    ~StageTimer() {
      const double wall_ms = ms_since(start_);
      for (auto& [name, ms] : ctx_.stages) {
        if (name == name_) {
          ms += wall_ms;
          return;
        }
      }
      ctx_.stages.emplace_back(name_, wall_ms);
    }
    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;

   private:
    RequestContext& ctx_;
    std::string name_;
    Clock::time_point start_;
  };

  [[nodiscard]] bool has_time_range() const { return has_min || has_max; }

  /// The requested time slice, open ends widened to the int64 range.
  [[nodiscard]] std::int64_t lo_t_ns() const {
    return has_min ? min_t_ns : std::numeric_limits<std::int64_t>::min();
  }
  [[nodiscard]] std::int64_t hi_t_ns() const {
    return has_max ? max_t_ns : std::numeric_limits<std::int64_t>::max();
  }

  [[nodiscard]] QueryResult finish(
      json::Object& body,
      std::shared_ptr<const std::string> payload = nullptr) const {
    json::Object stage_obj;
    for (const auto& [name, wall_ms] : stages) stage_obj.add(name, wall_ms);
    body.raw("stages", stage_obj.str());
    body.add("t_total_ms", ms_since(start));
    QueryResult result{body.str(), std::move(payload), {}};
    result.stats.op = op;
    result.stats.trace_id = trace_id;
    result.stats.stages = stages;
    result.stats.chunks_total = chunks_total;
    result.stats.chunks_scanned = chunks_scanned;
    result.stats.chunks_decoded = chunks_decoded;
    result.stats.chunk_cache_hits = chunk_cache_hits;
    result.stats.chunk_cache_misses = chunk_cache_misses;
    result.stats.state_cache_hit = state_cache_hit;
    result.stats.rows = rows;
    return result;
  }

  [[nodiscard]] json::Object base() const {
    json::Object body;
    body.add("ok", true)
        .add("request_id", request_id)
        .add("op", op);
    if (trace_id != 0) body.add("trace_id", obs::trace_id_hex(trace_id));
    return body;
  }
};

QueryEngine::QueryEngine(const TraceCatalog& catalog, QueryEngineConfig config)
    : catalog_(&catalog),
      chunk_cache_("serve.chunk_cache", config.chunk_cache_bytes),
      // Single shard: tier-2 holds a handful of large tables, and a
      // sharded budget would reject any state bigger than capacity/8.
      state_cache_("serve.state_cache", config.state_cache_bytes, 1),
      scan_mode_(config.scan_mode),
      accounting_(config.stats_window_s) {}

QueryResult QueryEngine::execute(const json::Value& request,
                                 std::uint64_t request_id,
                                 const obs::TraceContext& trace_ctx) {
  if (!request.is_object()) {
    IVT_THROW(errors::Category::Decode,
              "serve: request body must be a JSON object");
  }
  // Install the caller's context (when valid) so every span below — and
  // in anything execute() calls — records under the propagated trace_id.
  // Direct in-process callers that already installed a scope keep theirs.
  const obs::TraceContextScope trace_scope(
      trace_ctx.valid() ? trace_ctx : obs::current_trace_context());
  RequestContext ctx;
  ctx.request_id = request_id;
  ctx.trace_id = obs::current_trace_context().trace_id;
  ctx.op = request.get_string("op", "");
  ctx.trace = request.get_string("trace", "");
  ctx.signals = request.get_string_list("signals");
  if (const json::Value* v = request.find("min_t_ns")) {
    ctx.has_min = !v->is_null();
    ctx.min_t_ns = request.get_int("min_t_ns", 0);
  }
  if (const json::Value* v = request.find("max_t_ns")) {
    ctx.has_max = !v->is_null();
    ctx.max_t_ns = request.get_int("max_t_ns", 0);
  }
  ctx.rate_threshold_hz = request.get_double("rate_threshold_hz", 5.0);
  ctx.top_k = request.get_int("top_k", 10);

  // One span per request; `rows` carries the request id so spans of one
  // request correlate across worker threads in the Chrome-trace export.
  obs::SpanScope span("serve.req." + ctx.op);
  span.set_rows(request_id);

  if (ctx.op == "ping") return op_ping(ctx);
  if (ctx.op == "list") return op_list(ctx);
  if (ctx.op == "stats") return op_stats(ctx);
  if (ctx.op == "metrics") return op_metrics(ctx);
  if (ctx.op == "preselect") return op_preselect(ctx);
  if (ctx.op == "extract") return op_extract(ctx);
  if (ctx.op == "state") return op_state(ctx);
  if (ctx.op == "mine") return op_mine(ctx);
  IVT_THROW(errors::Category::Spec,
            "serve: unknown op '" + ctx.op +
                "' (ping, list, stats, metrics, preselect, extract, state, "
                "mine)");
}

QueryResult QueryEngine::op_ping(RequestContext& ctx) {
  json::Object body = ctx.base();
  return ctx.finish(body);
}

QueryResult QueryEngine::op_list(RequestContext& ctx) {
  std::vector<std::string> rendered;
  for (const std::string& name : catalog_->names()) {
    const TraceEntry& entry = catalog_->require(name);
    std::int64_t min_t = 0;
    std::int64_t max_t = 0;
    if (!entry.chunks.empty()) {
      min_t = entry.chunks.front().min_t_ns;
      max_t = entry.chunks.front().max_t_ns;
      for (const colstore::ChunkInfo& c : entry.chunks) {
        min_t = std::min(min_t, c.min_t_ns);
        max_t = std::max(max_t, c.max_t_ns);
      }
    }
    json::Object t;
    t.add("name", name)
        .add("vehicle", entry.vehicle)
        .add("journey", entry.journey)
        .add("rows", static_cast<std::uint64_t>(entry.num_rows))
        .add("chunks", static_cast<std::uint64_t>(entry.chunks.size()))
        .add("min_t_ns", min_t)
        .add("max_t_ns", max_t)
        .raw("buses", json::render_array(entry.buses));
    rendered.push_back(t.str());
  }
  std::string array = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) array += ",";
    array += rendered[i];
  }
  array += "]";
  json::Object body = ctx.base();
  body.add("count", static_cast<std::uint64_t>(rendered.size()))
      .raw("traces", array);
  return ctx.finish(body);
}

namespace {

std::string render_cache_stats(const LruCacheStats& stats,
                               std::size_t capacity_bytes) {
  json::Object out;
  out.add("hits", stats.hits)
      .add("misses", stats.misses)
      .add("evictions", stats.evictions)
      .add("insertions", stats.insertions)
      .add("bytes", stats.bytes)
      .add("entries", stats.entries)
      .add("capacity_bytes", static_cast<std::uint64_t>(capacity_bytes));
  return out.str();
}

}  // namespace

QueryResult QueryEngine::op_stats(RequestContext& ctx) {
  // Everything operational here reads from the engine-owned accounting —
  // it is functional state, so the stats op reports the same numbers with
  // IVT_OBS=OFF. Only spans/events_dropped come from the obs layer (they
  // count telemetry that does not exist in that configuration).
  const auto relaxed = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  json::Object body = ctx.base();
  body.raw("chunk_cache", render_cache_stats(chunk_cache_stats(),
                                             chunk_cache_.capacity_bytes()))
      .raw("state_cache", render_cache_stats(state_cache_stats(),
                                             state_cache_.capacity_bytes()))
      .add("requests_total", relaxed(accounting_.requests_total))
      .add("requests_failed", relaxed(accounting_.requests_failed))
      .add("requests_overloaded", relaxed(accounting_.requests_overloaded))
      .add("chunks_decoded", relaxed(accounting_.chunks_decoded))
      .add("chunks_loaded", relaxed(accounting_.chunks_loaded))
      .add("in_flight",
           accounting_.in_flight.load(std::memory_order_relaxed));
  {
    const obs::Histogram::Data lifetime = accounting_.latency_ms.data();
    json::Object lat;
    lat.add("count", lifetime.count)
        .add("p50_ms", lifetime.quantile(0.50))
        .add("p90_ms", lifetime.quantile(0.90))
        .add("p99_ms", lifetime.quantile(0.99));
    body.raw("latency", lat.str());
  }
  // Rolling-window views (see ServerConfig::stats_window_s): what the
  // daemon is doing *now*, as opposed to the lifetime aggregates above.
  // These decay to zero within one window of the load stopping. One `now`
  // for both reads so the count and the quantiles describe the same
  // window.
  const std::int64_t now_s = obs::steady_now_s();
  {
    const obs::Histogram::Data windowed =
        accounting_.latency_window_ms.data_at(now_s);
    json::Object lat;
    lat.add("count", windowed.count)
        .add("p50_ms", windowed.quantile(0.50))
        .add("p90_ms", windowed.quantile(0.90))
        .add("p99_ms", windowed.quantile(0.99))
        .add("window_seconds",
             static_cast<std::uint64_t>(
                 accounting_.latency_window_ms.window_seconds()));
    body.raw("latency_windowed", lat.str());
  }
  const std::uint64_t window_count =
      accounting_.requests_window.value_at(now_s);
  body.add("requests_window", window_count)
      .add("qps",
           static_cast<double>(window_count) /
               static_cast<double>(accounting_.requests_window
                                       .window_seconds()))
      .add("spans_dropped", obs::dropped_span_count())
      .add("events_dropped", obs::Registry::instance().snapshot().counter_or(
                                 "obs.events_dropped", 0));
  return ctx.finish(body);
}

QueryResult QueryEngine::op_metrics(RequestContext& ctx) {
  // Prometheus text exposition of the whole registry as the payload; the
  // JSON body is just the envelope. `ivt query --op metrics --out -` is a
  // scrape.
  auto payload = std::make_shared<const std::string>(
      obs::to_prometheus(obs::Registry::instance().snapshot()));
  json::Object body = ctx.base();
  body.add("bytes", static_cast<std::uint64_t>(payload->size()))
      .add("payload_format", "prometheus");
  return ctx.finish(body, std::move(payload));
}

dataflow::Table QueryEngine::load_kb(RequestContext& ctx,
                                     const TraceEntry& entry,
                                     const dataflow::Table& urel) {
  const RequestContext::StageTimer timer(ctx, "scan");
  OBS_SPAN("serve.scan");
  colstore::ScanPredicate pred = core::urel_scan_predicate(urel);
  if (ctx.has_time_range()) {
    pred.has_time_range = true;
    pred.min_t_ns = ctx.lo_t_ns();
    pred.max_t_ns = ctx.hi_t_ns();
  }
  dataflow::Table kb(tracefile::kb_schema());
  ctx.chunks_total = entry.chunks.size();
  const std::vector<std::uint16_t> bus_indices =
      colstore::detail::prune_bus_indices(pred, entry.buses);
  for (std::size_t i = 0; i < entry.chunks.size(); ++i) {
    const colstore::ChunkInfo& info = entry.chunks[i];
    if (!colstore::chunk_may_match(info, pred, bus_indices)) continue;
    ++ctx.chunks_scanned;
    bool cache_hit = false;
    const std::shared_ptr<const std::string> bytes =
        catalog_->chunk_bytes(entry, i, chunk_cache_, &cache_hit);
    if (cache_hit) {
      ++ctx.chunk_cache_hits;
    } else {
      ++ctx.chunk_cache_misses;
      // A tier-1 miss means chunk_bytes() just read the extent from disk.
      accounting_.chunks_loaded.fetch_add(1, std::memory_order_relaxed);
    }
    dataflow::Partition part = colstore::scan_chunk_from_bytes(
        *bytes, info, pred, entry.buses, entry.version, entry.key_dict,
        scan_mode_, nullptr);
    accounting_.chunks_decoded.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNT("serve.chunks_decoded", 1);
    ++ctx.chunks_decoded;
    kb.add_partition(std::move(part));
  }
  return kb;
}

QueryResult QueryEngine::op_preselect(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const dataflow::Table urel = build_urel(catalog_->db(), ctx.signals);
  const dataflow::Table kb = load_kb(ctx, entry, urel);
  std::shared_ptr<const std::string> payload;
  {
    const RequestContext::StageTimer timer(ctx, "serialize");
    payload = render_csv(kb);
  }
  ctx.rows = kb.num_rows();
  json::Object body = ctx.base();
  body.add("rows", static_cast<std::uint64_t>(kb.num_rows()))
      .add("columns", static_cast<std::uint64_t>(kb.schema().size()))
      .add("chunks_total", static_cast<std::uint64_t>(ctx.chunks_total))
      .add("chunks_scanned", static_cast<std::uint64_t>(ctx.chunks_scanned))
      .add("payload_format", "csv");
  return ctx.finish(body, std::move(payload));
}

QueryResult QueryEngine::op_extract(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const dataflow::Table urel = build_urel(catalog_->db(), ctx.signals);
  const dataflow::Table kb = load_kb(ctx, entry, urel);
  dataflow::Engine engine = make_inline_engine();
  core::InterpretOptions options;
  options.catalog = &catalog_->db();
  dataflow::Table ks;
  {
    const RequestContext::StageTimer timer(ctx, "interpret");
    OBS_SPAN("serve.interpret");
    ks = core::interpret(engine, kb, urel, options);
  }
  std::shared_ptr<const std::string> payload;
  {
    const RequestContext::StageTimer timer(ctx, "serialize");
    payload = render_csv(ks);
  }
  ctx.rows = ks.num_rows();
  json::Object body = ctx.base();
  body.add("rows", static_cast<std::uint64_t>(ks.num_rows()))
      .add("columns", static_cast<std::uint64_t>(ks.schema().size()))
      .add("chunks_total", static_cast<std::uint64_t>(ctx.chunks_total))
      .add("chunks_scanned", static_cast<std::uint64_t>(ctx.chunks_scanned))
      .add("payload_format", "csv");
  return ctx.finish(body, std::move(payload));
}

QueryEngine::StateLookup QueryEngine::state_entry(RequestContext& ctx,
                                                  const TraceEntry& entry,
                                                  bool with_payload) {
  // Tier-2 key: everything that changes the pipeline's output. Signals
  // are order-insensitive (U_comb is a set), so the key sorts them.
  std::vector<std::string> sorted = ctx.signals;
  std::sort(sorted.begin(), sorted.end());
  std::string key = entry.name + "|rate=";
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", ctx.rate_threshold_hz);
    key += buf;
  }
  for (const std::string& s : sorted) key += "|" + s;

  if (std::shared_ptr<const StateEntry> hit = state_cache_.get(key)) {
    return {std::move(hit), true};
  }

  // Build: full-journey pipeline run (NOT time-sliced — the state
  // representation forward-fills from the journey start, so a slice is
  // applied to the finished table, never to the scan). Parameters match
  // the batch CLI defaults (`ivt run`) so served results are
  // byte-comparable with batch output.
  const dataflow::Table urel = build_urel(catalog_->db(), ctx.signals);
  const bool saved_min = ctx.has_min;
  const bool saved_max = ctx.has_max;
  ctx.has_min = false;
  ctx.has_max = false;
  const dataflow::Table kb = load_kb(ctx, entry, urel);
  ctx.has_min = saved_min;
  ctx.has_max = saved_max;

  auto built = std::make_shared<StateEntry>();
  {
    const RequestContext::StageTimer timer(ctx, "pipeline");
    OBS_SPAN("serve.pipeline");
    core::PipelineConfig config;
    config.signals = ctx.signals;
    config.classifier.rate_threshold_hz = ctx.rate_threshold_hz;
    dataflow::Engine engine = make_inline_engine();
    const core::Pipeline pipeline(catalog_->db(), config);
    core::PipelineResult result = pipeline.run(engine, kb);
    built->state = std::move(result.state);
    built->krep = std::move(result.krep);
  }
  std::size_t bytes =
      approx_table_bytes(built->state) + approx_table_bytes(built->krep);
  if (with_payload) {
    // Rendered once, here: this request's reply and every later hit
    // with the same projection send these bytes.
    const RequestContext::StageTimer timer(ctx, "serialize");
    built->payload_columns = state_columns(built->state.schema(), ctx.signals);
    std::string csv;
    dataflow::append_csv(csv, built->state, built->payload_columns,
                         all_rows(built->state));
    csv.shrink_to_fit();
    bytes += csv.size();
    built->payload = std::make_shared<const std::string>(std::move(csv));
  }
  state_cache_.put(key, built, bytes);
  return {std::move(built), false};
}

QueryResult QueryEngine::op_state(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const StateLookup lookup = state_entry(ctx, entry, /*with_payload=*/true);
  const StateEntry& cached = *lookup.entry;
  ctx.state_cache_hit = lookup.hit;

  // A request with no time range whose projection is the one the entry
  // was rendered for is handed the entry's buffer. Any other request
  // renders its columns and rows straight from the cached table.
  std::vector<std::size_t> columns;
  std::vector<dataflow::RowRange> rows;
  bool handout = false;
  {
    const RequestContext::StageTimer timer(ctx, "slice");
    columns = state_columns(cached.state.schema(), ctx.signals);
    handout = !ctx.has_time_range() && cached.payload != nullptr &&
              columns == cached.payload_columns;
    if (!handout) {
      rows = ctx.has_time_range()
                 ? rows_in_range(cached.state, ctx.lo_t_ns(), ctx.hi_t_ns())
                 : all_rows(cached.state);
    }
  }
  std::shared_ptr<const std::string> payload;
  {
    const RequestContext::StageTimer timer(ctx, "serialize");
    payload = handout ? cached.payload
                      : render_csv(cached.state, columns, rows);
  }
  std::size_t num_rows = cached.state.num_rows();
  if (!handout) {
    num_rows = 0;
    for (const dataflow::RowRange& r : rows) num_rows += r.end - r.begin;
  }
  ctx.rows = num_rows;
  json::Object body = ctx.base();
  body.add("rows", static_cast<std::uint64_t>(num_rows))
      .add("columns", static_cast<std::uint64_t>(columns.size()))
      .add("cached", lookup.hit)
      .add("payload_format", "csv");
  return ctx.finish(body, std::move(payload));
}

QueryResult QueryEngine::op_mine(RequestContext& ctx) {
  const TraceEntry& entry = catalog_->require(ctx.trace);
  const StateLookup lookup = state_entry(ctx, entry, /*with_payload=*/false);
  ctx.state_cache_hit = lookup.hit;

  apps::AnomalyConfig config;
  config.top_k = static_cast<std::size_t>(std::max<std::int64_t>(ctx.top_k, 0));
  std::vector<apps::Anomaly> anomalies;
  {
    const RequestContext::StageTimer timer(ctx, "mine");
    OBS_SPAN("serve.mine");
    anomalies = apps::detect_element_anomalies(lookup.entry->krep, config);
  }
  std::string array = "[";
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    const apps::Anomaly& a = anomalies[i];
    json::Object obj;
    obj.add("t_ns", a.t_ns)
        .add("signal", a.signal)
        .add("description", a.description)
        .add("severity", a.severity)
        .add("occurrences", static_cast<std::uint64_t>(a.occurrences));
    if (i > 0) array += ",";
    array += obj.str();
  }
  array += "]";
  ctx.rows = anomalies.size();
  json::Object body = ctx.base();
  body.add("count", static_cast<std::uint64_t>(anomalies.size()))
      .add("cached", lookup.hit)
      .raw("anomalies", array);
  return ctx.finish(body);
}

std::size_t approx_table_bytes(const dataflow::Table& table) {
  std::size_t bytes = 0;
  std::unordered_set<const dataflow::Column::Dictionary*> dictionaries;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    const dataflow::Partition& part = table.partition(p);
    for (const dataflow::Column& col : part.columns) {
      bytes += col.size();  // validity mask
      if (const dataflow::Column::Dictionary* dict = col.dictionary()) {
        bytes += col.size() * sizeof(std::uint32_t);
        if (dictionaries.insert(dict).second) {
          bytes += dict->size() * sizeof(std::string);
          for (const std::string& s : *dict) bytes += s.size();
        }
        continue;
      }
      switch (col.type()) {
        case dataflow::ValueType::Int64:
          bytes += col.size() * sizeof(std::int64_t);
          break;
        case dataflow::ValueType::Float64:
          bytes += col.size() * sizeof(double);
          break;
        case dataflow::ValueType::String:
          bytes += col.size() * sizeof(std::string);
          for (std::size_t r = 0; r < col.size(); ++r) {
            bytes += col.string_at(r).size();
          }
          break;
        default:
          break;
      }
    }
  }
  return bytes;
}

}  // namespace ivt::serve
