// perfbench: the benchmark's benchmark binary. perfbench/run.py invokes it
// once per step, each step in its own process:
//
//   perfbench gen     --workload W --seed N --dir D   write the inputs
//   perfbench oracle  --workload W --dir D            reference hashes
//   perfbench measure --workload W --dir D --seconds S [--trace-out F]
//   perfbench hash    --file F                        hash of a file
//
// Every step prints one JSON object on stdout; errors go to stderr with
// exit code 1.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int run(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing subcommand");
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (cmd == "hash") {
    Result out;
    out.set("hash", hash_file(args.require("file")));
    std::printf("%s\n", out.str().c_str());
    return 0;
  }
  const Workload& workload = find_workload(args.require("workload"));
  const std::string dir = args.require("dir");
  if (cmd == "gen") {
    const auto seed = static_cast<std::uint64_t>(args.number("seed", 1));
    generate_inputs(workload, seed, dir);
    if (workload.kind == Kind::Serve) {
      generate_serve_requests(workload, seed, dir);
    }
    std::printf("{}\n");
    return 0;
  }
  if (cmd == "oracle") {
    return workload.kind == Kind::Serve
               ? serve_oracle(workload, dir)
               : pipeline_oracle(workload, dir, args.get("state-out"));
  }
  if (cmd == "measure") {
    const double seconds = args.number("seconds", 10);
    const std::string trace_out = args.get("trace-out");
    if (workload.kind == Kind::Serve) {
      return serve_measure(workload, dir, seconds, !trace_out.empty(),
                           trace_out);
    }
    return trace_out.empty() ? pipeline_measure(workload, dir, seconds)
                             : pipeline_traced(workload, dir, trace_out);
  }
  throw std::invalid_argument("unknown subcommand '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  // A reply written to a connection the generator already closed must
  // surface as an error, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
