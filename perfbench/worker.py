"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object with the repetition's raw
samples and counters as its last line of output.  A fresh process per
repetition matters: the compiled-fragment cache, the LIKE cache and the
query-id counter are process-wide.

    python3 perfbench/worker.py --workload mixed_live --seed 1 \
        --seconds 12 --size full --trace 0 --started <epoch seconds>
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() just before this process was "
                             "spawned (the start of set-up)")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--expect-wrong", action="store_true")
    args = parser.parse_args()

    import spans
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.size,
                                        expect_wrong=args.expect_wrong)
    workload.setup()
    setup_s = time.time() - args.started

    before = workload.counters()
    if tracer is not None:
        tracer.start()
    loop_s = workload.host.spent_s
    start = time.perf_counter()
    workload.timed()
    # The reference loop's timings are the benchmark's, not the phase's.
    timed_wall_s = (time.perf_counter() - start
                    - (workload.host.spent_s - loop_s))
    if tracer is not None:
        tracer.stop()
    after = workload.counters()
    layers = {name: after[name] - before[name] for name in before}
    layers.update(workload.timed_query_counters())

    workload.check()
    sanitizers = workload.env.sanitizers is not None
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "sanitizers": "on" if sanitizers else "off",
        "materialize": True,
        "setup_s": setup_s,
        "timed_wall_s": timed_wall_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        - workload.host.peak_kib) / 1024.0,
        "attempted": workload.attempted,
        "failures": workload.failures,
        "stream_records": workload.stream_records,
        "stream_wall_s": workload.stream_wall_s,
        "stream_raw_s": workload.stream_raw_s,
        "sink_ms": workload.sink_ms,
        "commit_ms": workload.commit_ms,
        "queries_done": workload.queries_done,
        "queries_wall_s": workload.queries_wall_s,
        "queries_raw_s": workload.queries_raw_s,
        "query_virtual_ms": workload.query_virtual_ms,
        "read_wall_ms": workload.read_wall_ms,
        "read_raw_ms": workload.read_raw_ms,
        "reference_loop_s": workload.host.loop_s,
        "layers": layers,
        "fingerprint": workload.fingerprint(),
    }
    if tracer is not None:
        result["layer_times"] = tracer.layer_times()
        result["span_calls"] = dict(tracer.calls)
        result["rows_materialized"] = sum(tracer.rows_yielded.values())
        result["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
