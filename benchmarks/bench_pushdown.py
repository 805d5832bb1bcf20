"""Distributed pushdown ablation: shipped bytes and latency, on vs off.

Three query shapes over a 5-node cluster, each run with the distributed
plan enabled (predicate/projection pushdown + scan-side partial
aggregation) and disabled (ship every raw row to the entry node):

- **selective scan** — a ~1%-selectivity ``WHERE`` over wide rows; the
  pushed predicate drops 99% of rows on the scanning nodes.
- **wide projection** — one referenced column out of ten; only that
  column (plus row identity) ships.
- **group by** — a two-aggregate ``GROUP BY`` collapsing 20K rows into
  seven groups; each node ships one fixed-width state per group.

Values are integers so partial-aggregate merge order cannot introduce
float rounding: results must be identical on and off, byte for byte.
"""

from repro.bench.report import format_table
from repro.config import ClusterConfig
from repro.env import Environment
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

try:
    from .conftest import record_result
except ImportError:  # direct execution: python -m benchmarks.bench_pushdown
    from conftest import record_result  # type: ignore

NODES = 5
KEYS = 20_000

SCENARIOS = (
    ("selective scan",
     'SELECT key, value FROM "metrics" WHERE value < 2'),
    ("wide projection",
     'SELECT value FROM "metrics" WHERE key >= 0'),
    ("group by",
     'SELECT weight, SUM(value) AS s, COUNT(*) AS c FROM "metrics" '
     'GROUP BY weight ORDER BY weight'),
)


def build_env():
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(KEYS):
        imap.put(key, {
            "value": key % 100,
            "weight": key % 7,
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
            "pad4": key * 5, "pad5": key * 7, "pad6": key * 11,
            "pad7": key * 13, "pad8": key * 17,
        })
    return env


def run_bench():
    rows = []
    metrics = {}
    for label, sql in SCENARIOS:
        runs = {}
        # (pushdown, vectorized): the third run keeps pushdown on but
        # falls back to the interpreted per-row scan path, isolating
        # the columnar win from the shipping win.
        for key, pushdown, vectorized in (
            ("on", True, True),
            ("off", False, True),
            ("interp", True, False),
        ):
            env = build_env()
            service = QueryService(env, pushdown=pushdown,
                                   vectorized=vectorized)
            execution = service.execute(sql)
            runs[key] = execution
        on, off, interp = runs["on"], runs["off"], runs["interp"]
        assert on.result.columns == off.result.columns, label
        assert on.result.rows == off.result.rows, label
        assert on.result.rows == interp.result.rows, label
        on_bytes = on.counters["query_bytes_shipped"]
        off_bytes = off.counters["query_bytes_shipped"]
        assert on_bytes == interp.counters["query_bytes_shipped"], label
        assert on.counters["query_rows_shipped"] \
            == interp.counters["query_rows_shipped"], label
        ratio = off_bytes / max(on_bytes, 1)
        scan_ratio = interp.scan_ms_billed / max(on.scan_ms_billed, 1e-9)
        rows.append([
            label,
            f"{on_bytes:,}", f"{off_bytes:,}",
            f"{ratio:.1f}x",
            on.counters["query_rows_shipped"],
            off.counters["query_rows_shipped"],
            f"{on.latency_ms:.2f}", f"{off.latency_ms:.2f}",
            f"{scan_ratio:.1f}x",
        ])
        metrics[label] = {
            "bytes_ratio": ratio,
            "latency_on": on.latency_ms,
            "latency_off": off.latency_ms,
            "scan_ratio": scan_ratio,
        }
    table = format_table(
        ["scenario", "bytes (on)", "bytes (off)", "reduction",
         "rows (on)", "rows (off)", "latency on ms", "latency off ms",
         "scan speedup"],
        rows,
        title=(f"Distributed pushdown ablation — {KEYS:,} rows, "
               f"{NODES} nodes (on = pushdown, off = ship-all; scan "
               "speedup = interpreted scan ms / vectorized scan ms)"),
    )
    return table, metrics


def check(metrics) -> None:
    # The selective WHERE must cut shipped bytes at least 5x...
    assert metrics["selective scan"]["bytes_ratio"] >= 5.0, metrics
    # ...projection alone still wins on wide rows (the baseline bills a
    # flat row_bytes per row, which bounds the visible gap)...
    assert metrics["wide projection"]["bytes_ratio"] >= 1.5, metrics
    # ...and partial aggregation makes the GROUP BY strictly faster.
    group = metrics["group by"]
    assert group["bytes_ratio"] >= 5.0, metrics
    assert group["latency_on"] < group["latency_off"], metrics
    # The vectorized scan path must halve billed scan time everywhere.
    for label, stats in metrics.items():
        assert stats["scan_ratio"] >= 2.0, (label, stats)


def test_bench_pushdown(benchmark):
    table, metrics = benchmark.pedantic(run_bench, rounds=1,
                                        iterations=1)
    record_result("pushdown", table)
    check(metrics)


if __name__ == "__main__":
    bench_table, bench_metrics = run_bench()
    record_result("pushdown", bench_table)
    check(bench_metrics)
    print("pushdown ablation OK")
