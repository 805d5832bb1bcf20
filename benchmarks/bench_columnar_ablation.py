"""Vectorized columnar scan ablation: latency growth curve, on vs off.

Two query shapes over a 5-node cluster at growing table sizes, each
run with the vectorized scan path enabled (compile-once predicates,
batch evaluation) and disabled (the interpreted per-row ablation
baseline).  Pushdown stays on in both runs, so the only variable is
how the scan fragments execute:

- **selective filter** — conjunctive ``WHERE`` with a ``LIKE``; the
  compiled path evaluates one specialized closure per conjunct per
  batch instead of re-walking the expression AST per row.
- **group aggregate** — a two-aggregate ``GROUP BY``; partial
  aggregation accumulates through compiled feed closures.

Values are integers so partial-aggregate merge order cannot introduce
float rounding: results must be identical on and off, byte for byte.
The speedup must grow with table size (scan cost dominates; compile
cost amortizes) and reach at least 2x end to end at the largest size.
"""

from repro.bench.report import format_table
from repro.config import ClusterConfig
from repro.env import Environment
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

try:
    from .conftest import record_result
except ImportError:  # python -m benchmarks.bench_columnar_ablation
    from conftest import record_result  # type: ignore

NODES = 5
SIZES = (5_000, 20_000, 80_000)
TAGS = ("alpha", "beta", "gamma", "delta")

SCENARIOS = (
    ("selective filter",
     'SELECT key, value FROM "metrics" '
     "WHERE value < 3 AND tag LIKE 'a%' ORDER BY key"),
    ("group aggregate",
     'SELECT weight, SUM(value) AS s, COUNT(*) AS c FROM "metrics" '
     "GROUP BY weight ORDER BY weight"),
)


def build_env(keys: int) -> Environment:
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(keys):
        imap.put(key, {
            "value": key % 100,
            "weight": key % 7,
            "tag": TAGS[key % len(TAGS)],
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
        })
    return env


def run_bench():
    rows = []
    metrics = {}
    for label, sql in SCENARIOS:
        for keys in SIZES:
            runs = {}
            for vectorized in (True, False):
                env = build_env(keys)
                service = QueryService(env, vectorized=vectorized)
                runs[vectorized] = service.execute(sql)
            on, off = runs[True], runs[False]
            assert on.result.columns == off.result.columns, (label, keys)
            assert on.result.rows == off.result.rows, (label, keys)
            assert on.counters["query_bytes_shipped"] \
                == off.counters["query_bytes_shipped"], (label, keys)
            # The gate is real: only the vectorized run compiles and
            # batches; the baseline never touches the compiled path.
            assert on.counters["batches_evaluated"] > 0, (label, keys)
            assert on.counters["predicates_compiled"] \
                + on.counters["compile_cache_hits"] > 0, (label, keys)
            assert off.counters["batches_evaluated"] == 0, (label, keys)
            assert off.counters["predicates_compiled"] == 0, (label, keys)
            speedup = off.latency_ms / max(on.latency_ms, 1e-9)
            scan_speedup = (off.scan_ms_billed
                            / max(on.scan_ms_billed, 1e-9))
            rows.append([
                label, f"{keys:,}",
                f"{on.latency_ms:.2f}", f"{off.latency_ms:.2f}",
                f"{speedup:.2f}x",
                f"{on.scan_ms_billed:.2f}", f"{off.scan_ms_billed:.2f}",
                f"{scan_speedup:.2f}x",
                on.counters["batches_evaluated"],
                on.counters["predicates_compiled"],
            ])
            metrics[(label, keys)] = {
                "speedup": speedup,
                "scan_speedup": scan_speedup,
            }
    table = format_table(
        ["scenario", "rows", "latency on ms", "latency off ms",
         "speedup", "scan on ms", "scan off ms", "scan speedup",
         "batches", "compiled"],
        rows,
        title=(f"Columnar scan ablation — {NODES} nodes "
               "(on = vectorized batches, off = interpreted per-row)"),
    )
    return table, metrics


def check(metrics) -> None:
    for label, _ in SCENARIOS:
        # Billed scan time halves at every size...
        for keys in SIZES:
            stats = metrics[(label, keys)]
            assert stats["scan_speedup"] >= 2.0, (label, keys, stats)
        # ...the end-to-end win grows with table size as scans come to
        # dominate fixed merge/planning cost...
        curve = [metrics[(label, keys)]["speedup"] for keys in SIZES]
        assert curve == sorted(curve), (label, curve)
        # ...and reaches at least 2x where scans dominate.
        assert curve[-1] >= 2.0, (label, curve)


def test_bench_columnar_ablation(benchmark):
    table, metrics = benchmark.pedantic(run_bench, rounds=1,
                                        iterations=1)
    record_result("columnar_ablation", table)
    check(metrics)


if __name__ == "__main__":
    bench_table, bench_metrics = run_bench()
    record_result("columnar_ablation", bench_table)
    check(bench_metrics)
    print("columnar ablation OK")
