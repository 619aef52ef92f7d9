// Entry points of the benchmark binary's subcommands, one per workload kind.
#pragma once

#include <memory>
#include <string>

#include "colstore/columnar_reader.hpp"
#include "common.hpp"
#include "core/pipeline.hpp"
#include "dataflow/engine.hpp"
#include "signaldb/catalog.hpp"

namespace perfbench {

/// Everything a pipeline workload builds before its first timed run
/// (what `setup_s` measures).
struct PipelineSetup {
  std::string trace_path;
  std::string catalog_path;
  std::unique_ptr<ivt::signaldb::Catalog> catalog;
  std::unique_ptr<ivt::colstore::ColumnarReader> reader;
  std::unique_ptr<ivt::core::Pipeline> pipeline;
  std::unique_ptr<ivt::dataflow::Engine> engine;
};

PipelineSetup setup_pipeline(const Workload& workload, const std::string& dir,
                             const std::string& exec, const std::string& scan);
/// One full Algorithm 1 run in the setup's exec mode, from the opened
/// reader to the state table and K_rep in memory. `stats` (optional)
/// receives the scan statistics.
ivt::core::PipelineResult run_pipeline(
    const PipelineSetup& setup, ivt::colstore::ScanStats* stats = nullptr);

/// Untimed reference run in the workload's oracle exec mode with the
/// reference (decoded) scan; prints the output hashes.
int pipeline_oracle(const Workload& workload, const std::string& dir,
                    const std::string& state_out);
/// Timed runs for `seconds`; prints samples, hashes and counts.
int pipeline_measure(const Workload& workload, const std::string& dir,
                     double seconds);
/// The traced run: untraced runs for the overhead baseline, one run with
/// the program's obs spans recorded, then the benchmark's own spans
/// around the public calls the program has none for.
int pipeline_traced(const Workload& workload, const std::string& dir,
                    const std::string& chrome_trace_path);

/// serve-mix: request list written next to the generated traces.
void generate_serve_requests(const Workload& workload, std::uint64_t seed,
                             const std::string& dir);
int serve_oracle(const Workload& workload, const std::string& dir);
int serve_measure(const Workload& workload, const std::string& dir,
                  double seconds, bool traced,
                  const std::string& chrome_trace_path);

}  // namespace perfbench
