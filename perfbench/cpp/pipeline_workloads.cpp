// lig-batch / syn-stream / syn-dist: timed Algorithm 1 runs and the
// oracle run their outputs are checked against.
#include <cstdio>
#include <stdexcept>

#include "dataflow/csv.hpp"
#include "dist/sim.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Set-up samples of a measured run (setup_s is their median): kSetupMin
/// before the first Algorithm 1 run, then after every run up to
/// kSetupBatchMax more, as long as they fit in kSetupBatchS at the last
/// sample's duration. A millisecond-scale set-up is then sampled over the
/// whole measuring period, so a burst of load on the shared host or the
/// process's first allocations, which slow it by up to three times, touch
/// few of its samples. A set-up of tens of milliseconds is sampled at the
/// start only: after a run its time depends on what the allocator kept
/// from the run (bimodal, 30 or 60 ms on SYN 0.3).
constexpr int kSetupMin = 5;
constexpr int kSetupBatchMax = 8;
constexpr double kSetupBatchS = 0.05;

/// Appends the wall time of one set-up to `samples`; returns the set-up.
PipelineSetup timed_setup(const Workload& workload, const std::string& dir,
                          std::vector<double>& samples) {
  const double t0 = wall_s();
  PipelineSetup setup =
      setup_pipeline(workload, dir, workload.exec, workload.scan);
  samples.push_back(wall_s() - t0);
  return setup;
}

}  // namespace

PipelineSetup setup_pipeline(const Workload& workload, const std::string& dir,
                             const std::string& exec, const std::string& scan) {
  const DatasetInput& input = workload.inputs.front();
  PipelineSetup s;
  s.trace_path = input.trace_path(dir);
  s.catalog_path = input.catalog_path(dir);
  s.catalog = std::make_unique<ivt::signaldb::Catalog>(
      ivt::signaldb::load_catalog(s.catalog_path));
  s.reader = std::make_unique<ivt::colstore::ColumnarReader>(s.trace_path);
  ivt::core::PipelineConfig config;  // `ivt run` defaults otherwise
  config.exec_mode = ivt::core::parse_exec_mode(exec);
  config.scan_mode = ivt::colstore::parse_scan_mode(scan);
  s.pipeline = std::make_unique<ivt::core::Pipeline>(*s.catalog, config);
  ivt::dataflow::EngineConfig engine_config;
  engine_config.workers = kWorkers;
  s.engine = std::make_unique<ivt::dataflow::Engine>(engine_config);
  return s;
}

ivt::core::PipelineResult run_pipeline(const PipelineSetup& setup,
                                       ivt::colstore::ScanStats* stats) {
  const ivt::core::PipelineConfig& config = setup.pipeline->config();
  if (config.exec_mode != ivt::core::ExecMode::Dist) {
    return setup.pipeline->run(*setup.engine, *setup.reader, stats);
  }
  ivt::dist::DistRunConfig dist;
  dist.trace_path = setup.trace_path;
  dist.catalog_path = setup.catalog_path;
  dist.nodes = kWorkers;
  dist.failure_rate = 0.0;
  return ivt::dist::run_dist(*setup.catalog, config, *setup.reader, dist,
                             *setup.engine, stats);
}

int pipeline_oracle(const Workload& workload, const std::string& dir,
                    const std::string& state_out) {
  // The reference scan, so a defect the compressed scan has in every exec
  // mode still shows.
  const PipelineSetup setup =
      setup_pipeline(workload, dir, workload.oracle_exec, "decoded");
  const ivt::core::PipelineResult result = run_pipeline(setup);
  if (!state_out.empty()) {
    ivt::dataflow::write_csv_file(result.state, state_out);
  }
  Result out;
  out.set("exec", workload.oracle_exec + "/decoded");
  out.set("state_hash", hash_csv(result.state));
  out.set("krep_hash", hash_csv(result.krep));
  out.set("krep_rows", static_cast<double>(result.krep_rows));
  out.set("state_rows", static_cast<double>(result.state.num_rows()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int pipeline_measure(const Workload& workload, const std::string& dir,
                     double seconds) {
  // End-to-end metrics are measured with the program's span recording
  // off; the traced run measures what it costs.
  ivt::obs::set_tracing_enabled(false);
  std::vector<double> setup_s;
  for (int i = 1; i < kSetupMin; ++i) {
    static_cast<void>(timed_setup(workload, dir, setup_s));
  }
  const PipelineSetup setup = timed_setup(workload, dir, setup_s);

  std::vector<double> run_s;
  std::vector<double> cpu;
  std::vector<std::string> state_hashes;
  std::vector<std::string> krep_hashes;
  double measured = 0.0;
  do {  // at least one run
    {
      const double w0 = wall_s();
      const double c0 = cpu_s();
      const ivt::core::PipelineResult result = run_pipeline(setup);
      const double elapsed = wall_s() - w0;
      cpu.push_back(cpu_s() - c0);
      run_s.push_back(elapsed);
      measured += elapsed;
      // Outside the timed interval: the output check's hashes.
      state_hashes.push_back(hash_csv(result.state));
      krep_hashes.push_back(hash_csv(result.krep));
    }
    double batch_s = 0.0;
    for (int i = 0;
         i < kSetupBatchMax && batch_s + setup_s.back() <= kSetupBatchS; ++i) {
      static_cast<void>(timed_setup(workload, dir, setup_s));
      batch_s += setup_s.back();
    }
  } while (measured < seconds);

  Result out;
  out.set("setup_s", setup_s);
  out.set("run_s", run_s);
  out.set("cpu_s", cpu);
  out.set("state_hash", state_hashes);
  out.set("krep_hash", krep_hashes);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
