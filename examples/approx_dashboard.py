#!/usr/bin/env python3
"""Approximate operations dashboard over the Q-commerce workload.

The monitoring queries of §VIII don't need exact answers — "roughly
how many deliveries are late?" tolerates a few percent error if it
comes back 10x faster.  This example deploys the three-operator
Q-commerce job with sketches declared on its state (exactly like
indexes, via ``SketchSpec``), then answers dashboard questions twice:
``SELECT APPROX`` off the incrementally-maintained sketches, and the
exact distributed scan.  Every approximate answer carries its own
``error_bound`` and ``confidence``.

Run:  python examples/approx_dashboard.py
"""

from repro import ClusterConfig, Environment, QueryService
from repro.config import SketchSpec, SQueryConfig
from repro.observability import collect_report
from repro.state import SQueryBackend
from repro.workloads.qcommerce import build_qcommerce_job

#: (label, approx sql, exact sql, output column)
QUESTIONS = (
    ("orders picked up by a rider",
     'SELECT APPROX COUNT(*) AS n FROM "orderstate" '
     "WHERE orderState = 'PICKED_UP'",
     'SELECT COUNT(*) AS n FROM "orderstate" '
     "WHERE orderState = 'PICKED_UP'", "n"),
    ("delivery zones active",
     'SELECT APPROX COUNT(DISTINCT deliveryZone) AS z '
     'FROM "orderinfo"',
     'SELECT COUNT(DISTINCT deliveryZone) AS z FROM "orderinfo"', "z"),
    ("mean rider latitude",
     'SELECT APPROX AVG(latitude) AS lat FROM "riderlocation"',
     'SELECT AVG(latitude) AS lat FROM "riderlocation"', "lat"),
    ("orders near the customer (snapshot)",
     'SELECT APPROX COUNT(*) AS n FROM "snapshot_orderstate" '
     "WHERE orderState = 'NEAR_CUSTOMER'",
     'SELECT COUNT(*) AS n FROM "snapshot_orderstate" '
     "WHERE orderState = 'NEAR_CUSTOMER'", "n"),
)


def main() -> None:
    # Few enough partitions that the fixed per-partition probe cost
    # stays well under the scans it replaces.
    env = Environment(ClusterConfig(nodes=3,
                                    processing_workers_per_node=2,
                                    partition_count=48))
    backend = SQueryBackend(env.cluster, env.store, SQueryConfig(
        sketches=(
            SketchSpec("orderstate", "orderState", "countmin"),
            SketchSpec("orderinfo", "deliveryZone", "hll"),
            SketchSpec("riderlocation", "latitude", "reservoir"),
        ),
    ))
    job = build_qcommerce_job(
        env, backend,
        orders=5_000, riders=1_200, events_per_s=8_000,
        checkpoint_interval_ms=500, parallelism=3,
    )
    job.start()
    env.run_for(3_000)

    approx = QueryService(env, sketches=True)
    exact = QueryService(env, sketches=False)
    for label, approx_sql, exact_sql, column in QUESTIONS:
        lhs = approx.execute(approx_sql)
        rhs = exact.execute(exact_sql)
        row = lhs.result.rows[0]
        path = ("sketch" if lhs.counters["approx_queries_answered"]
                else "exact fallback")
        print(f"\n{label}  [{path}]")
        print(f"  approx {row[column]:>12,.1f}  "
              f"+/- {row['error_bound']:,.1f} "
              f"@ {row['confidence']:.0%}  "
              f"({lhs.latency_ms:.2f} ms, "
              f"{lhs.counters['sketch_probes']} probes)")
        print(f"  exact  {rhs.result.rows[0][column]:>12,.1f}  "
              f"({rhs.latency_ms:.2f} ms, "
              f"{rhs.entries_scanned:,} rows scanned)")

    # The planner explains its choice — including why each losing
    # access path was rejected, with priced estimates.
    print("\nplanner view of the first question:")
    for line in approx.explain(QUESTIONS[0][1]).splitlines():
        print(f"  {line}")

    report = collect_report(env)
    print(f"\nsketches answered {report.approx_queries_answered} "
          f"APPROX queries with {report.sketch_probes:,} probes; "
          f"{report.sketch_maintenance_ops:,} maintenance ops "
          f"({report.sketch_maintenance_cost:,.1f} ms billed on the "
          "write path)")


if __name__ == "__main__":
    main()
