"""Secondary-index ablation: rows scanned and latency, on vs off.

Four query shapes over a 5-node cluster, each run with index-backed
scans enabled (cost-based access-path selection over hash and sorted
indexes) and disabled (pruned full scans, PR 3 behaviour).  Indexes
are maintained in both runs — the ablation isolates the read path:

- **equality probe** — ``value = 7`` resolves ~0.5% of rows through the
  hash index;
- **IN probe** — three hash probes per partition;
- **range scan** — a sorted-index interval over the string ``label``;
- **LIKE prefix** — ``label LIKE 'item-00%'`` turned into a sorted
  range probe.

Results must be bit-identical on and off; the indexed run must touch
at least 10x fewer rows and finish faster in simulated time.
"""

from repro.bench.report import format_table
from repro.config import ClusterConfig
from repro.env import Environment
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

try:
    from .conftest import record_result
except ImportError:  # direct execution
    from conftest import record_result  # type: ignore

NODES = 5
KEYS = 20_000

SCENARIOS = (
    ("equality probe",
     'SELECT key, value FROM "metrics" WHERE value = 7'),
    ("IN probe",
     'SELECT COUNT(*) AS n FROM "metrics" WHERE value IN (1, 2, 3)'),
    ("range scan",
     'SELECT COUNT(*) AS n FROM "metrics" '
     "WHERE label BETWEEN 'item-000' AND 'item-004'"),
    ("LIKE prefix",
     'SELECT key FROM "metrics" WHERE label LIKE \'item-00%\' '
     "ORDER BY key LIMIT 20"),
)


def build_env():
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(KEYS):
        imap.put(key, {
            "value": key % 200,
            "weight": key % 7,
            "label": f"item-{key % 100:03d}",
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
        })
    env.store.create_index("metrics", "value", "hash")
    env.store.create_index("metrics", "label", "sorted")
    return env


def run_bench():
    rows = []
    metrics = {}
    for label, sql in SCENARIOS:
        runs = {}
        for indexes in (True, False):
            env = build_env()
            service = QueryService(env, indexes=indexes)
            runs[indexes] = service.execute(sql)
        on, off = runs[True], runs[False]
        assert on.result.columns == off.result.columns, label
        assert on.result.rows == off.result.rows, label
        ratio = off.entries_scanned / max(on.entries_scanned, 1)
        rows.append([
            label,
            f"{on.entries_scanned:,}", f"{off.entries_scanned:,}",
            f"{ratio:.1f}x",
            on.counters["index_probes"],
            f"{on.latency_ms:.2f}", f"{off.latency_ms:.2f}",
        ])
        metrics[label] = {
            "scan_ratio": ratio,
            "probes": on.counters["index_probes"],
            "latency_on": on.latency_ms,
            "latency_off": off.latency_ms,
        }
    table = format_table(
        ["scenario", "rows read (on)", "rows read (off)", "reduction",
         "probes", "latency on ms", "latency off ms"],
        rows,
        title=(f"Secondary-index ablation — {KEYS:,} rows, "
               f"{NODES} nodes (on = index-backed, off = full scan)"),
    )
    return table, metrics


def check(metrics) -> None:
    for label, run in metrics.items():
        # Every scenario is selective: the index path must engage and
        # cut the rows actually read by at least 10x...
        assert run["probes"] > 0, (label, metrics)
        assert run["scan_ratio"] >= 10.0, (label, metrics)
        # ...and touching fewer rows must show up as simulated latency.
        assert run["latency_on"] < run["latency_off"], (label, metrics)


def test_bench_index_ablation(benchmark):
    table, metrics = benchmark.pedantic(run_bench, rounds=1,
                                        iterations=1)
    record_result("index_ablation", table)
    check(metrics)


if __name__ == "__main__":
    bench_table, bench_metrics = run_bench()
    record_result("index_ablation", bench_table)
    check(bench_metrics)
    print("index ablation OK")
