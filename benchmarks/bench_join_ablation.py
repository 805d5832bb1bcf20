"""Distributed join ablation on the q-commerce order-lifecycle join.

Two join shapes over an 8-node cluster at growing order counts, each
run with ``distributed_joins`` enabled and disabled (the central
baseline that ships every joined table's rows to the entry node):

- **co-partitioned** — the paper's order-lifecycle monitoring join,
  ``orderinfo JOIN orderstate USING (partitionKey)`` with a selective
  order-state filter: join keys align with the partitioner, so all
  join input stays node-local and only the few joined survivors cross
  the wire.  The headline claim is shipped *bytes*: the central
  baseline must ship at least 10x more at the largest size.
- **broadcast** — ``orderinfo`` against a small active-zones dimension
  on a non-partition-key column: the build side replicates once per
  holder and the probe runs on every scan node in parallel, while the
  central baseline serializes its per-row merge on the entry node.
  The headline claim is *latency*: at least 2x at the largest size,
  growing with the table (fixed costs amortize).

Results must be bit-identical on and off at every size — the ablation
only moves work, never changes answers.
"""

from repro.bench.report import format_table
from repro.config import ClusterConfig
from repro.env import Environment
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

try:
    from .conftest import record_result
except ImportError:  # python -m benchmarks.bench_join_ablation
    from conftest import record_result  # type: ignore

NODES = 8
SIZES = (10_000, 40_000, 120_000)
#: Filler lifecycle states (VENDOR_ACCEPTED is assigned separately so
#: the monitored state stays at exactly ~5% of orders).
STATES = ("NEW", "NOTIFIED", "ACCEPTED", "PICKED_UP", "LEFT_PICKUP",
          "NEAR_CUSTOMER", "DONE")
ZONES = 60
ACTIVE_ZONES = 3  # dimension rows: zoneId = 0, 10, 20

COPARTITIONED_SQL = (
    'SELECT o.deliveryZone, COUNT(*) AS n FROM "orderinfo" AS o '
    'JOIN "orderstate" AS s USING (partitionKey) '
    "WHERE s.orderState = 'VENDOR_ACCEPTED' "
    "GROUP BY o.deliveryZone ORDER BY o.deliveryZone"
)
BROADCAST_SQL = (
    'SELECT o.partitionKey, o.amount, z.region FROM "orderinfo" AS o '
    'JOIN "zones" AS z ON o.deliveryZone = z.zoneId '
    "ORDER BY o.partitionKey"
)


def build_env(orders: int) -> Environment:
    env = Environment(ClusterConfig(nodes=NODES,
                                    processing_workers_per_node=1))
    info = env.store.create_map("orderinfo")
    env.store.register_live_table("orderinfo", LiveStateTable(info))
    state = env.store.create_map("orderstate")
    env.store.register_live_table("orderstate", LiveStateTable(state))
    zones = env.store.create_map("zones")
    env.store.register_live_table("zones", LiveStateTable(zones))
    for key in range(orders):
        info.put(key, {
            "deliveryZone": key % ZONES,
            "vendorCategory": key % 9,
            "amount": key % 500,
        })
        # ~5% of orders sit in VENDOR_ACCEPTED at any instant.
        state.put(key, {
            "orderState": ("VENDOR_ACCEPTED" if key % 20 == 0
                           else STATES[key % len(STATES)]),
            "riderId": key % 997,
        })
    for zone in range(ACTIVE_ZONES):
        zones.put(zone, {"zoneId": zone * 10,
                         "region": ["east", "west"][zone % 2]})
    return env


SCENARIOS = (
    ("co-partitioned", COPARTITIONED_SQL, "copartitioned"),
    ("broadcast", BROADCAST_SQL, "broadcast"),
)


def run_bench():
    rows = []
    metrics = {}
    for label, sql, expected_strategy in SCENARIOS:
        for orders in SIZES:
            runs = {}
            for distributed in (True, False):
                env = build_env(orders)
                service = QueryService(env,
                                       distributed_joins=distributed)
                runs[distributed] = service.execute(sql)
            on, off = runs[True], runs[False]
            assert on.result.columns == off.result.columns, \
                (label, orders)
            assert on.result.rows == off.result.rows, (label, orders)
            # The gate is real: only the distributed run picks a
            # strategy; the baseline joins everything centrally.
            assert on.join_strategies == [expected_strategy], \
                (label, on.join_strategies)
            assert off.join_strategies == ["central"], \
                (label, off.join_strategies)
            speedup = off.latency_ms / max(on.latency_ms, 1e-9)
            on_bytes = on.counters["query_bytes_shipped"]
            off_bytes = off.counters["query_bytes_shipped"]
            bytes_ratio = off_bytes / max(on_bytes, 1)
            rows.append([
                label, f"{orders:,}",
                f"{on.latency_ms:.2f}", f"{off.latency_ms:.2f}",
                f"{speedup:.2f}x",
                f"{on_bytes:,}", f"{off_bytes:,}",
                f"{bytes_ratio:.1f}x",
            ])
            metrics[(label, orders)] = {
                "speedup": speedup,
                "bytes_ratio": bytes_ratio,
            }
    table = format_table(
        ["scenario", "orders", "latency on ms", "latency off ms",
         "speedup", "bytes on", "bytes off", "bytes ratio"],
        rows,
        title=(f"Distributed join ablation — {NODES} nodes "
               "(on = cost-chosen strategies, off = central join)"),
    )
    return table, metrics


def check(metrics) -> None:
    # Co-partitioned: join input never crosses the wire, so the
    # shipped-bytes gap widens with table size and tops 10x.
    copart_curve = [metrics[("co-partitioned", orders)]["bytes_ratio"]
                    for orders in SIZES]
    assert copart_curve == sorted(copart_curve), copart_curve
    assert copart_curve[-1] >= 10.0, copart_curve
    # Broadcast: the parallel probe beats the entry node's serial
    # merge once fixed costs amortize — the win grows to 2x or more.
    bcast_curve = [metrics[("broadcast", orders)]["speedup"]
                   for orders in SIZES]
    assert bcast_curve == sorted(bcast_curve), bcast_curve
    assert bcast_curve[-1] >= 2.0, bcast_curve


def test_bench_join_ablation(benchmark):
    table, metrics = benchmark.pedantic(run_bench, rounds=1,
                                        iterations=1)
    record_result("join_ablation", table)
    check(metrics)


if __name__ == "__main__":
    bench_table, bench_metrics = run_bench()
    record_result("join_ablation", bench_table)
    check(bench_metrics)
    print("join ablation OK")
