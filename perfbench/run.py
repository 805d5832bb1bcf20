"""The repository benchmark: one workload, several fresh-process
repetitions, every metric printed by name and unit.

    python3 perfbench/run.py --workload mixed_live --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout (it imports ``src/repro``).  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off; wall times are scaled to a nominal host
speed (``hostspeed.py``).  With ``--trace 1`` one repetition runs
twice, untraced and traced, with the same seed; it prints the per-layer
metrics of the traced run, checks that both runs produced identical
virtual outputs, and checks layer isolation.  The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_S  # noqa: E402
WORKLOADS = ("sql_dashboard", "mixed_live")

#: Fresh-process repetitions per run, by size.  ``setup_s`` and
#: ``peak_rss_mb`` are their median; the other metrics pool the
#: samples of all repetitions.  A traced run makes one repetition, of
#: the same length, untraced and then traced.
REPETITIONS = {"full": 3, "tiny": 1}
#: Every run must finish inside this many wall seconds.
DEADLINE_S = 175.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "records_per_s": "records/s",
    "queries_per_s": "queries/s",
    "query_wall_p50_ms": "ms",
    "query_wall_p90_ms": "ms",
    "query_virtual_p50_ms": "ms",
    "query_virtual_p90_ms": "ms",
    "sink_virtual_p50_ms": "ms",
    "sink_virtual_p99.99_ms": "ms",
    "commit_2pc_virtual_p50_ms": "ms",
}

#: Per-layer metrics of the traced run, by layer (``src/repro`` module).
PER_LAYER = {
    "simtime.events": "count",
    "simtime.events_per_record": "ratio",
    "simtime.self_s": "s",
    "cluster.network_messages": "count",
    "cluster.network_bytes": "bytes",
    "cluster.processing_wait_ms": "ms",
    "cluster.store_wait_ms": "ms",
    "cluster.query_wait_ms": "ms",
    "dataflow.records": "count",
    "dataflow.deliver_s": "s",
    "dataflow.checkpoints": "count",
    "state.mirror_updates": "count",
    "state.mirror_s": "s",
    "state.snapshot_write_s": "s",
    "state.rows_materialized": "count",
    "state.rows_s": "s",
    "kvstore.lock_acquisitions": "count",
    "kvstore.lock_contentions": "count",
    "sql.parse_s": "s",
    "sql.plan_s": "s",
    "sql.scan_s": "s",
    "sql.rows_scanned": "count",
    "sql.join_s": "s",
    "sql.final_s": "s",
    "sql.compile_hit_ratio": "ratio",
    "query.self_s": "s",
    "query.rows_shipped": "count",
    "query.bytes_shipped": "bytes",
    "query.rows_shipped_per_scanned": "ratio",
    "query.scan_ms_billed": "ms",
    "continuous.capture_s": "s",
    "continuous.apply_s": "s",
    "continuous.route_s": "s",
    "continuous.changes_captured": "count",
    "continuous.deltas_pushed": "count",
    "continuous.push_batches_sent": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}

#: Layers whose spans must stay empty on a workload (layer isolation).
ISOLATED = {
    "sql_dashboard": ("dataflow.", "state.mirror", "continuous."),
    "mixed_live": (),
}

#: Lowest share of the traced timed phase the spans must account for.
#: This holds by construction, because ``simtime.self_s`` and
#: ``query.self_s`` take in all work no narrower span wraps; what it
#: bounds is the benchmark's own loop between top-level calls.
MIN_COVERAGE = 0.95


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_worker(args, rep_seed: int, traced: bool, deadline: float,
               trace_out: str | None = None,
               expect_wrong: bool = False) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(rep_seed),
        "--seconds", str(args.seconds / REPETITIONS[args.size]),
        "--size", args.size,
        "--trace", "1" if traced else "0",
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    if expect_wrong:
        command.append("--expect-wrong")
    command += ["--started", repr(time.time())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before the repetition started")
    # A fixed hash seed removes one source of process-to-process
    # variation (dict and set layout of str keys).
    env = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=remaining, env=env)
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker exited {completed.returncode}:\n"
            f"{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def end_to_end_metrics(reps: list[dict]) -> dict[str, float]:
    def pooled(key):
        return [value for rep in reps for value in rep[key]]

    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "records_per_s": sum(r["stream_records"] for r in reps)
        / sum(r["stream_wall_s"] for r in reps),
        "queries_per_s": sum(r["queries_done"] for r in reps)
        / sum(r["queries_wall_s"] for r in reps),
        "query_wall_p50_ms": percentile(pooled("read_wall_ms"), 50),
        "query_wall_p90_ms": percentile(pooled("read_wall_ms"), 90),
        "query_virtual_p50_ms": percentile(pooled("query_virtual_ms"), 50),
        "query_virtual_p90_ms": percentile(pooled("query_virtual_ms"), 90),
        "sink_virtual_p50_ms": percentile(pooled("sink_ms"), 50),
        "sink_virtual_p99.99_ms": percentile(pooled("sink_ms"), 99.99),
        "commit_2pc_virtual_p50_ms": percentile(pooled("commit_ms"), 50),
    }


def unscaled_metrics(reps: list[dict]) -> dict[str, float]:
    """The scaled wall metrics as measured, before host-speed scaling,
    and the host's speed factor (median reference-loop time over its
    nominal time)."""
    raw = [value for rep in reps for value in rep["read_raw_ms"]]
    loops = [value for rep in reps for value in rep["reference_loop_s"]]
    return {
        "records_per_s": sum(r["stream_records"] for r in reps)
        / sum(r["stream_raw_s"] for r in reps),
        "queries_per_s": sum(r["queries_done"] for r in reps)
        / sum(r["queries_raw_s"] for r in reps),
        "query_wall_p50_ms": percentile(raw, 50),
        "query_wall_p90_ms": percentile(raw, 90),
        "host_factor": statistics.median(loops) / REFERENCE_S,
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    def total(key):
        return sum(rep["layers"][key] for rep in traced)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {key: total(key) for key in traced[0]["layers"]}
    hits = metrics.pop("sql.compile_hits")
    lookups = metrics.pop("sql.compile_lookups")
    metrics["sql.compile_hit_ratio"] = ratio(hits, lookups)
    metrics["simtime.events_per_record"] = ratio(
        metrics["simtime.events"], metrics["dataflow.records"])
    metrics["query.rows_shipped_per_scanned"] = ratio(
        metrics["query.rows_shipped"], metrics["sql.rows_scanned"])
    metrics["state.mirror_updates"] = sum(
        rep["span_calls"].get("SQueryBackend.on_state_update", 0)
        for rep in traced)
    metrics["state.rows_materialized"] = sum(
        rep["rows_materialized"] for rep in traced)
    for name in traced[0]["layer_times"]:
        metrics[name] = sum(rep["layer_times"][name] for rep in traced)
    traced_wall = sum(rep["timed_wall_s"] for rep in traced)
    metrics["trace.overhead_ratio"] = ratio(
        traced_wall, sum(rep["timed_wall_s"] for rep in untraced))
    metrics["trace.coverage"] = ratio(
        sum(metrics[name] for name in traced[0]["layer_times"]),
        traced_wall)
    metrics["trace.spans"] = sum(rep["spans"] for rep in traced)
    return {name: metrics[name] for name in PER_LAYER}


def trace_failures(workload: str, untraced: list[dict],
                   traced: list[dict], metrics: dict) -> list[str]:
    failures = []
    for plain, with_spans in zip(untraced, traced):
        if plain["fingerprint"] != with_spans["fingerprint"]:
            failures.append(
                f"seed {plain['seed']}: traced virtual outputs differ "
                "from untraced ones")
    for prefix in ISOLATED[workload]:
        for rep in traced:
            for name, seconds in rep["layer_times"].items():
                if name.startswith(prefix) and seconds:
                    failures.append(f"layer isolation: {name} = {seconds}")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        failures.append(
            f"spans cover {metrics['trace.coverage']:.3f} of the traced "
            f"timed phase (< {MIN_COVERAGE})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds, split over repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--expect-wrong", action="store_true",
                        help="corrupt every expected result (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    trace_dir = os.path.join(ROOT, ".perfbench")
    untraced, traced = [], []
    try:
        for rep in range(1 if args.trace else REPETITIONS[args.size]):
            rep_seed = args.seed * 1000 + rep
            untraced.append(run_worker(args, rep_seed, False, deadline,
                                       expect_wrong=args.expect_wrong))
            if args.trace:
                os.makedirs(trace_dir, exist_ok=True)
                out = os.path.join(
                    trace_dir, f"{args.workload}-seed{rep_seed}.csv.gz")
                traced.append(run_worker(args, rep_seed, True, deadline,
                                         trace_out=out,
                                         expect_wrong=args.expect_wrong))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced
    failures = [f for rep in reps for f in rep["failures"]]
    attempted = sum(rep["attempted"] for rep in reps)
    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
        failures += trace_failures(args.workload, untraced, traced, metrics)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced)
        units = END_TO_END
    first = untraced[0]
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} repetitions={len(untraced)} "
          f"size={args.size} trace={args.trace} "
          f"sanitizers={first['sanitizers']} "
          f"materialize={first['materialize']}")
    print(f"samples: sink={sum(len(r['sink_ms']) for r in untraced)} "
          f"query_virtual={sum(len(r['query_virtual_ms']) for r in untraced)}"
          f" query_wall={sum(len(r['read_wall_ms']) for r in untraced)} "
          f"commit_2pc={sum(len(r['commit_ms']) for r in untraced)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}")
    print("unscaled: " + " ".join(
        f"{name}={value:.6g}" for name, value in
        unscaled_metrics(untraced).items()))
    error_rate = len(failures) / attempted if attempted else 1.0
    print(f"  {'error_rate':32s} {error_rate:16.6g} fraction "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
