"""Figure 13: SQL query latency on incremental vs full snapshots for
1K/10K/100K unique keys (two closed-loop query threads).

Paper shape: latency grows with state size; incremental is virtually
identical to full at 1K and 10K (the newest deltas cover the whole key
space, so the backward walk stops immediately) but several times slower
at 100K, where sparse deltas force a deep chain walk.
"""

from repro.bench.harness import run_query_latency_experiment
from repro.bench.report import format_table, percentile_headers, \
    percentile_row

from .conftest import interpreted_baseline, record_result

KEY_COUNTS = (1_000, 10_000, 100_000)
POINTS = (0.0, 50.0, 90.0, 99.0)


def run_figure13():
    rows = []
    medians = {}
    for incremental in (True, False):
        for keys in KEY_COUNTS:
            result = run_query_latency_experiment(
                keys, incremental, checkpoints=50,
            )
            summary = result.latency.summary(POINTS)
            label = "Incremental" if incremental else "Full"
            rows.append(percentile_row(
                f"{label} {keys // 1000}k", summary, POINTS,
            ) + [result.queries])
            medians[(incremental, keys)] = summary[50.0]
    table = format_table(
        ["config"] + percentile_headers(POINTS) + ["queries"],
        rows,
        title=("Fig 13 — SQL query latency (ms), incremental vs full "
               "snapshots, 1K/10K/100K keys, 7 nodes"),
    )
    return table, medians


def test_fig13_vectorized_scan_ablation(benchmark):
    """Columnar before/after on the Fig. 13 workload (10K keys).

    Same snapshot-reconstruction query load on the compiled columnar
    scan path, against the interpreted per-row path's median billed
    scan time and p50 latency recorded before its deletion: billed scan
    time must at least halve.
    """

    def run_ablation():
        return run_query_latency_experiment(
            10_000, incremental=False, checkpoints=20,
        )

    on = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    off = interpreted_baseline("fig13_scan_ablation")
    assert on.queries > 0
    # Compiled scans are at least 2x cheaper on the scan path...
    assert off["scan_ms_median"] >= on.scan_ms_median * 2.0, (
        on.scan_ms_median, off["scan_ms_median"],
    )
    # ...which shows up end to end as strictly lower query latency.
    assert on.latency.percentile(50) < off["latency_p50_ms"]


def test_fig13_query_latency(benchmark):
    table, medians = benchmark.pedantic(run_figure13, rounds=1,
                                        iterations=1)
    record_result("fig13_query_latency", table)
    # Latency grows with state size.
    for incremental in (True, False):
        series = [medians[(incremental, k)] for k in KEY_COUNTS]
        assert series == sorted(series)
    # Near-identical at 1K and 10K...
    assert medians[(True, 1_000)] < medians[(False, 1_000)] * 1.15
    assert medians[(True, 10_000)] < medians[(False, 10_000)] * 1.35
    # ...but several times slower at 100K (the paper reports ~5x).
    ratio = medians[(True, 100_000)] / medians[(False, 100_000)]
    assert ratio > 2.0
