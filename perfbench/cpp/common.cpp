#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "colstore/columnar_writer.hpp"
#include "dataflow/csv.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "signaldb/catalog.hpp"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[++i];
  }
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::string Args::require(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

double Args::number(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stod(it->second);
}

const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = {
      {"lig-batch", Kind::Pipeline,
       {{"lig", ivt::simnet::lig_spec(), 0.025}}, "batch", "decoded",
       "streaming"},
      {"syn-stream", Kind::Pipeline,
       {{"syn", ivt::simnet::syn_spec(), 0.3}}, "streaming", "decoded",
       "batch"},
      {"syn-dist", Kind::Pipeline,
       {{"syn", ivt::simnet::syn_spec(), 0.3}}, "dist", "compressed",
       "batch"},
      {"serve-mix", Kind::Serve,
       {{"syn", ivt::simnet::syn_spec(), 0.02},
        {"lig", ivt::simnet::lig_spec(), 0.005}},
       "", "compressed", "batch"},
      // Seconds-scale stand-in for the test suite.
      {"tiny", Kind::Pipeline,
       {{"syn", ivt::simnet::syn_spec(), 0.002}}, "streaming", "decoded",
       "batch"},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void generate_inputs(const Workload& workload, std::uint64_t seed,
                     const std::string& dir) {
  for (const DatasetInput& input : workload.inputs) {
    // simnet::make_dataset with the plan seed pinned (see kPlanSeed).
    const ivt::simnet::VehiclePlan plan =
        ivt::simnet::plan_vehicle(input.spec, kPlanSeed);
    const auto duration_ns = static_cast<std::int64_t>(
        static_cast<double>(input.spec.full_duration_ns) * input.scale);
    ivt::simnet::NetworkSimulator sim =
        ivt::simnet::build_simulator(plan, seed * 31 + 7, true, duration_ns);
    ivt::simnet::SimulationConfig config;
    config.duration_ns = duration_ns;
    config.seed = seed;
    config.faults.dropout_rate = 0.0015;
    config.faults.cycle_violation_rate = 0.002;
    config.faults.violation_factor = 3.0;
    config.faults.error_frame_rate = 5e-4;
    const ivt::tracefile::Trace trace =
        sim.run(config, "V001", input.spec.name + "_J1");
    ivt::signaldb::save_catalog(plan.catalog, input.catalog_path(dir));
    ivt::colstore::save_trace_columnar(trace, input.trace_path(dir));
  }
}

void Fnv64::update(const char* data, std::size_t n) {
  std::uint64_t h = h_;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  h_ = h;
}

std::string Fnv64::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string hash_bytes(const std::string& bytes) {
  Fnv64 h;
  h.update(bytes.data(), bytes.size());
  return h.hex();
}

namespace {

/// Output stream buffer that hashes what is written through it, in
/// 64 KiB blocks.
class HashingBuf : public std::streambuf {
 public:
  HashingBuf() { setp(buf_, buf_ + sizeof(buf_)); }
  [[nodiscard]] std::string hex() {
    drain();
    return hash_.hex();
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    hash_.update(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(buf_, buf_ + sizeof(buf_));
  }
  char buf_[1 << 16];
  Fnv64 hash_;
};

}  // namespace

std::string hash_csv(const ivt::dataflow::Table& table) {
  HashingBuf buf;
  std::ostream out(&buf);
  ivt::dataflow::write_csv(table, out);
  out.flush();
  return buf.hex();
}

std::string hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  Fnv64 h;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h.update(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return h.hex();
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

double span_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The repository module a span name's first component belongs to.
std::string layer_of(std::string_view name) {
  const std::string_view head = name.substr(0, name.find('.'));
  if (head == "pipeline" || head == "sequence" || head == "branch") {
    return "core";
  }
  if (head == "engine") return "dataflow";
  return std::string(head);
}

}  // namespace

SpanSummary SpanSummary::collect() {
  if (ivt::obs::dropped_span_count() != 0) {
    throw std::runtime_error(
        std::to_string(ivt::obs::dropped_span_count()) +
        " spans lost to ring wrap-around; per-layer totals would be short");
  }
  SpanSummary out;
  out.events_ = ivt::obs::collect_spans();
  return out;
}

double SpanSummary::total_s(std::string_view name) const {
  double total = 0.0;
  for (const ivt::obs::SpanEvent& e : events_) {
    if (name == e.name) total += span_s(e.dur_ns);
  }
  return total;
}

double SpanSummary::max_s(std::string_view name) const {
  double best = 0.0;
  for (const ivt::obs::SpanEvent& e : events_) {
    if (name == e.name) best = std::max(best, span_s(e.dur_ns));
  }
  return best;
}

double SpanSummary::last_end_s(std::string_view name) const {
  double last = 0.0;
  for (const ivt::obs::SpanEvent& e : events_) {
    if (name == e.name) last = std::max(last, span_s(e.start_ns + e.dur_ns));
  }
  return last;
}

double SpanSummary::rows(std::string_view name) const {
  double total = 0.0;
  for (const ivt::obs::SpanEvent& e : events_) {
    if (name == e.name && e.rows != ivt::obs::kSpanAttrUnset) {
      total += static_cast<double>(e.rows);
    }
  }
  return total;
}

std::map<std::string, double> SpanSummary::self_time_by_layer() const {
  // Per thread, in start order (outer before inner on a tie): a span's
  // parent is the innermost still-open span of lower depth.
  std::vector<const ivt::obs::SpanEvent*> order;
  for (const ivt::obs::SpanEvent& e : events_) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const ivt::obs::SpanEvent* a, const ivt::obs::SpanEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->depth < b->depth;
            });
  std::vector<double> self(order.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ivt::obs::SpanEvent& e = *order[i];
    self[i] = span_s(e.dur_ns);
    while (!open.empty()) {
      const ivt::obs::SpanEvent& top = *order[open.back()];
      if (top.tid == e.tid && top.depth < e.depth &&
          top.start_ns + top.dur_ns >= e.start_ns + e.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= span_s(e.dur_ns);
    open.push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[layer_of(order[i]->name)] += std::max(0.0, self[i]);
  }
  return out;
}

RunCounts run_counts() {
  ivt::obs::Registry& registry = ivt::obs::Registry::instance();
  return {static_cast<double>(registry.counter("colstore.runs_pruned").value()),
          static_cast<double>(
              registry.counter("colstore.runs_accepted").value())};
}

double runs_pruned_frac(const RunCounts& before, const RunCounts& after) {
  const double pruned = after.pruned - before.pruned;
  const double considered = pruned + after.accepted - before.accepted;
  return considered > 0.0 ? pruned / considered : 0.0;
}

void Result::set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
  fields_[key] = buf;
}

void Result::set(const std::string& key, const std::string& value) {
  fields_[key] = "\"" + ivt::serve::json::escape(value) + "\"";
}

void Result::set(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  fields_[key] = out + "]";
}

void Result::set(const std::string& key,
                 const std::vector<std::string>& values) {
  fields_[key] = ivt::serve::json::render_array(values);
}

void Result::set(const std::string& key,
                 const std::map<std::string, double>& values) {
  Result nested;
  for (const auto& [name, value] : values) nested.set(name, value);
  fields_[key] = nested.str();
}

void Result::set_raw(const std::string& key, const std::string& json) {
  fields_[key] = json;
}

std::string Result::str() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    out += (first ? "\"" : ",\"") + ivt::serve::json::escape(key) +
           "\":" + value;
    first = false;
  }
  return out + "}";
}

}  // namespace perfbench
