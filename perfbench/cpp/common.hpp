// Shared pieces of the benchmark binary: argument parsing, the
// workload table, input paths, output hashing, clocks, the span summary
// of the traced runs and the JSON result object.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/table.hpp"
#include "obs/span.hpp"
#include "simnet/datasets.hpp"

namespace perfbench {

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  [[nodiscard]] std::string require(const std::string& key) const;
  [[nodiscard]] double number(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Worker count every engine, server and sim-node pool is pinned to (the
/// benchmark box has 4 cores; nothing is left at "hardware default").
inline constexpr std::size_t kWorkers = 4;

/// The vehicle model is fixed (simnet plan seed 42, the repo's default);
/// `--seed` selects the journey driven with it, so the catalog, message
/// rates and signal classes are the same for every seed and only the
/// recorded values, jitter and injected faults vary.
inline constexpr std::uint64_t kPlanSeed = 42;

/// One generated trace: a catalog and a packed .ivc journey.
struct DatasetInput {
  std::string name;  ///< file stem in the work directory ("syn", "lig")
  ivt::simnet::DatasetSpec spec;
  double scale = 0.0;
  [[nodiscard]] std::string catalog_path(const std::string& dir) const {
    return dir + "/" + name + ".ivsdb";
  }
  [[nodiscard]] std::string trace_path(const std::string& dir) const {
    return dir + "/" + name + ".ivc";
  }
};

enum class Kind { Pipeline, Serve };

struct Workload {
  std::string name;
  Kind kind = Kind::Pipeline;
  std::vector<DatasetInput> inputs;
  std::string exec;         ///< batch | streaming | dist (pipeline kind)
  std::string scan;         ///< decoded | compressed
  std::string oracle_exec;  ///< exec mode whose hash checks the output
};

/// Throws std::invalid_argument on an unknown name.
const Workload& find_workload(const std::string& name);

/// Writes every input of `workload` for `seed` into `dir`.
void generate_inputs(const Workload& workload, std::uint64_t seed,
                     const std::string& dir);

/// FNV-1a 64 over bytes, rendered as 16 hex digits.
class Fnv64 {
 public:
  void update(const char* data, std::size_t n);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};
[[nodiscard]] std::string hash_bytes(const std::string& bytes);
/// Hash of the table's CSV rendering (dataflow::write_csv, the bytes
/// `ivt run --state` and the served payloads carry), streamed: the CSV is
/// never held in memory.
[[nodiscard]] std::string hash_csv(const ivt::dataflow::Table& table);
[[nodiscard]] std::string hash_file(const std::string& path);

[[nodiscard]] double wall_s();  ///< steady clock, seconds
[[nodiscard]] double cpu_s();   ///< user + system CPU of this process

/// Median of `xs` (0 when empty).
[[nodiscard]] double median(std::vector<double> xs);

/// The obs spans (src/obs) recorded in this process, as the traced runs
/// read them: totals per span name and self time per layer. A span's
/// layer is the repository module its name's first component belongs to
/// ("pipeline.*", "sequence.*" and "branch.*" are core, "engine.*" is
/// dataflow).
class SpanSummary {
 public:
  /// Snapshot of obs::collect_spans(); throws when the per-thread rings
  /// wrapped since the last obs::reset_spans(), since totals would then
  /// miss spans.
  static SpanSummary collect();

  /// Summed duration of every span with this exact name.
  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] double max_s(std::string_view name) const;
  /// Latest end of a span with this name, on the trace clock (0 if none).
  [[nodiscard]] double last_end_s(std::string_view name) const;
  /// Summed row attribute of the spans with this name.
  [[nodiscard]] double rows(std::string_view name) const;
  /// Per layer: each span's duration minus its direct children's on the
  /// same thread, summed over the layer's spans.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;

 private:
  std::vector<ivt::obs::SpanEvent> events_;
};

/// The program's compressed-scan run counters (obs counters
/// colstore.runs_pruned and colstore.runs_accepted), process totals. They
/// count in every exec mode and in the daemons, where ScanStats does not
/// reach the caller.
struct RunCounts {
  double pruned = 0.0;
  double accepted = 0.0;
};
[[nodiscard]] RunCounts run_counts();
/// Runs the key filter skipped, as a share of the runs considered between
/// two readings (0 when none were).
[[nodiscard]] double runs_pruned_frac(const RunCounts& before,
                                      const RunCounts& after);

/// Flat JSON object written as the subcommand's result (one line).
class Result {
 public:
  void set(const std::string& key, double value);
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, const std::vector<double>& values);
  void set(const std::string& key, const std::vector<std::string>& values);
  void set(const std::string& key, const std::map<std::string, double>& values);
  /// Pre-rendered JSON value.
  void set_raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const;

 private:
  std::map<std::string, std::string> fields_;
};

}  // namespace perfbench
