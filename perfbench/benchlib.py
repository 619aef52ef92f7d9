"""Statistics, checks and metric assembly for perfbench/run.py.

Everything here is pure Python over the JSON the benchmark binary prints, so
perfbench/tests can exercise it without a build.
"""

import json
import os
import subprocess
from pathlib import Path

# Percentiles a tail may be reported at; the tail is the highest of them
# with at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile of recorded samples (exact, no
    histogram buckets)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest TAIL_PERCENTILES entry with at least MIN_BEYOND of n samples
    beyond it; the median when even that has fewer."""
    best = 50.0
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-6:  # float slack
            best = p
    return best


def tail(values):
    """(percentile, value) of the reported tail."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def median(values):
    return percentile(values, 50.0)


def rung_failures(rung):
    """Requests of a rung that got an error reply (Overloaded included) or
    no reply at all."""
    errors = sum(1 for e in rung["error"] if e)
    return errors + int(rung["scheduled"]) - len(rung["latency_ms"])


def rung_passes(rung):
    """A rung of the offered-rate ladder passes when nothing failed, the
    tail latency meets the limit, and the backlog did not grow: what was
    outstanding at the last due time drained within the limit."""
    limit = rung["limit_ms"]
    return (rung_failures(rung) == 0 and rung["drained"] == 1
            and len(rung["latency_ms"]) > 0
            and tail(rung["latency_ms"])[1] <= limit
            and rung["drain_s"] * 1e3 <= limit)


def max_rate(rungs):
    """Completion rate (replies / seconds from the first due time to the
    last reply) of the fastest rung that passes. None when none passes."""
    rates = [len(r["latency_ms"]) / r["seconds"] for r in rungs
             if rung_passes(r)]
    return max(rates) if rates else None


def run_child(cmd, cwd=None):
    """Run cmd in its own process and wait for it; returns (stdout, peak
    RSS in MB of that process alone). os.wait4 reports the child's own
    ru_maxrss, unlike RUSAGE_CHILDREN, which keeps the maximum over every
    child ever waited for."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (cmd[1] if len(cmd) > 1 else
                                                  cmd[0], proc.returncode))
    return out.decode(), usage.ru_maxrss / 1024.0


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def check_pipeline(measured, oracle):
    """Failed runs: a run whose state or K_rep hash differs from the oracle
    exec mode's. Returns (attempted, failed, mismatch messages)."""
    states = measured["state_hash"]
    kreps = measured["krep_hash"]
    failed = 0
    messages = []
    for i, (state, krep) in enumerate(zip(states, kreps)):
        if state != oracle["state_hash"] or krep != oracle["krep_hash"]:
            failed += 1
            messages.append("run %d: state %s krep %s, %s oracle: state %s "
                            "krep %s" % (i, state, krep, oracle["exec"],
                                         oracle["state_hash"],
                                         oracle["krep_hash"]))
    return len(states), failed, messages


def merge(parts):
    """One measurement from the outputs of several measuring processes:
    list fields are concatenated, the rest is taken from the first."""
    merged = dict(parts[0])
    for part in parts[1:]:
        for key, value in part.items():
            if isinstance(value, list):
                merged[key] = merged[key] + value
    return merged


def check_serve(measured, oracle):
    """Failed requests over all rungs, plus served check payloads whose hash
    differs from Pipeline / core::extract_signals on the same slice (each
    measuring process checks every slice once)."""
    attempted = sum(int(r["scheduled"]) for r in measured["rungs"])
    failed = sum(rung_failures(r) for r in measured["rungs"])
    messages = []
    expected = oracle["check_hash"]
    for i, got in enumerate(measured["check_hash"]):
        want = expected[i % len(expected)]
        attempted += 1
        if got != want:
            failed += 1
            messages.append("check %d: served %s, expected %s" % (i, got,
                                                                  want))
    return attempted, failed, messages


def pipeline_metrics(measured, peak_rss_mb):
    run_ms = [s * 1e3 for s in measured["run_s"]]
    return {
        "setup_s": median(measured["setup_s"]),
        "latency_p50_ms": median(run_ms),
        "latency_tail_ms": tail(run_ms)[1],
        "cpu_ms": median([c * 1e3 for c in measured["cpu_s"]]),
        "peak_rss_mb": peak_rss_mb,
    }


def serve_metrics(measured, peak_rss_mb):
    """Latency and CPU pooled over the reference rungs of every measuring
    process."""
    latency = [ms for r in measured["rungs"] for ms in r["latency_ms"]]
    cpu_s = sum(r["cpu_s"] for r in measured["rungs"])
    return {
        "setup_s": median(measured["setup_s"]),
        "latency_p50_ms": median(latency),
        "latency_tail_ms": tail(latency)[1],
        "cpu_ms": cpu_s * 1e3 / len(latency),
        "peak_rss_mb": peak_rss_mb,
    }


def serve_layer_metrics(measured):
    """Generator-side per-layer numbers: the traced reference rung, and the
    highest passing rate of the ladder after it."""
    rung = measured["rungs"][0]
    rate = max_rate(measured["rungs"])
    by_op = {}
    for op, ms in zip(rung["op"], rung["latency_ms"]):
        kind = "state" if op.startswith("state") else op
        by_op.setdefault(kind, []).append(ms)
    out = {
        "serve.generator_late_ms": tail(rung["late_ms"])[1],
        "serve.backlog": float(rung["backlog_max"]),
        "dataflow.parallelism": rung["cpu_s"] / rung["seconds"],
        "serve.max_rate_qps": rate if rate is not None else 0.0,
    }
    for kind in ("state", "extract", "mine"):
        xs = by_op.get(kind, [])
        out["serve.%s_p50_ms" % kind] = median(xs) if xs else 0.0
        out["serve.%s_tail_ms" % kind] = tail(xs)[1] if xs else 0.0
    return out


def load_spec(root):
    with open(Path(root) / "BENCHMARK.json") as f:
        return json.load(f)


def render(spec_metrics, values):
    """{"name": {"value": v, "unit": u}} for every metric of the spec, in
    spec order; a layer the workload never calls reads 0."""
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in spec_metrics}
