#!/usr/bin/env python3
"""Benchmark of Algorithm 1 and ivt-serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the repository's
libraries from src/) into .bench_build/ (or $CARGO_TARGET_DIR), generates
the workload's inputs from the seed, runs the workload's reference exec
mode for the output check, then the measured (or, with --trace 1, the
traced) step in a process of its own, and prints one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and leaves a Chrome trace under .bench_build/traces/).
Exits 1 without a result line when the build or a step fails, and with
the result line when an output check fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

WORKLOADS = ("lig-batch", "syn-stream", "syn-dist", "serve-mix")
# serve-mix splits its measuring time over three processes: the daemons'
# peak RSS swings by a third from run to run with which threads' malloc
# arenas the payloads land in, and the highest peak of three is steady.
MEASURE_PROCESSES = {"serve-mix": 3}
BUILD_JOBS = "4"


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configure and build the benchmark binary; returns its path."""
    tree = out / "cmake"
    log = open(out / "build.log", "a")
    try:
        if not (tree / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(tree),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=log, stderr=log)
        subprocess.run(["cmake", "--build", str(tree), "--target", "perfbench",
                        "-j", BUILD_JOBS], check=True, stdout=log, stderr=log)
    finally:
        log.close()
    return tree / "perfbench"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = benchlib.load_spec(ROOT)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    try:
        exe = str(build(out))
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("perfbench: build failed (%s); see %s\n" %
                         (e, out / "build.log"))
        return 1

    work = out / "work" / ("%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--dir", str(work)]
    try:
        benchlib.run_child([exe, "gen", "--seed", str(args.seed)] + common)
        oracle = benchlib.last_json(
            benchlib.run_child([exe, "oracle"] + common)[0])
        processes = 1 if args.trace else MEASURE_PROCESSES.get(
            args.workload, 1)
        measure = [exe, "measure", "--seconds",
                   str(args.seconds / processes)] + common
        if args.trace:
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            measure += ["--trace-out", str(traces / ("%s-%d.json" % (
                args.workload, args.seed)))]
        parts = []
        peak_rss_mb = 0.0
        for _ in range(processes):
            text, rss = benchlib.run_child(measure)
            parts.append(benchlib.last_json(text))
            peak_rss_mb = max(peak_rss_mb, rss)
        measured = benchlib.merge(parts)
    except (RuntimeError, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    serve = "rungs" in measured
    check = benchlib.check_serve if serve else benchlib.check_pipeline
    attempted, failed, messages = check(measured, oracle)
    for message in messages:
        sys.stderr.write("perfbench: OUTPUT MISMATCH: %s\n" % message)

    if args.trace:
        values = dict(measured["layers"])
        if serve:
            values.update(benchlib.serve_layer_metrics(measured))
        metrics = benchlib.render(spec["per_layer"], values)
    else:
        summarize = (benchlib.serve_metrics if serve
                     else benchlib.pipeline_metrics)
        metrics = benchlib.render(spec["end_to_end"],
                                  summarize(measured, peak_rss_mb))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(benchlib.json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
