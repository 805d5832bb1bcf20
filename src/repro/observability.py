"""Cluster and job observability: counters and utilisation reports.

Benchmarks and operators of the reproduction often need to know *why* a
configuration behaves as it does — which worker pools are saturated,
how busy the store partition threads are, how much the network carried,
how often key locks contended.  :func:`collect_report` gathers all of
that into one structured snapshot, and :func:`format_report` renders it
as an aligned table.

Every counter the report carries is declared once, in
:data:`COUNTERS`.  Query counters are incremented on each
``QueryExecution.counters`` and rolled up, by ``Counter.update``, into
``QueryService.counters`` when the query finishes and into
``ClusterReport.counters`` when the report is collected; gauges are
read from the cluster, store and subsystems at collection time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .bench.report import format_table
from .env import Environment

#: Counted per query (the fault-tolerance trio per service) and rolled
#: up through ``QueryService.counters`` into the report.
QUERY_COUNTERS: dict[str, str] = {
    "query_retries": "shards rescheduled onto survivors after a node death",
    "query_aborts": "queries failed fast: entry-node death, retry budget "
                    "exhausted, or timeout",
    "query_timeouts": "subset of aborts caused by the watchdog timeout",
    "query_rows_shipped": "rows shipped to entry nodes (drives merge "
                          "billing)",
    "query_bytes_shipped": "payload bytes of scan results and join "
                           "exchanges",
    "query_partitions_pruned": "store partitions skipped by key/range "
                               "pruning",
    "index_probes": "secondary-index probes issued",
    "index_rows_read": "candidate rows fetched through an index",
    "rows_skipped_by_index": "rows an index-backed scan never touched",
    "sketch_probes": "sketch probes issued by APPROX aggregates",
    "approx_queries_answered": "queries answered from sketches",
    "predicates_compiled": "pushed conjuncts compiled into closures "
                           "(compile-cache misses)",
    "batches_evaluated": "scan chunks evaluated as columnar batches",
    "compile_cache_hits": "fragment compilations served by the cache",
    "joins_copartitioned": "join steps run co-partitioned",
    "joins_broadcast": "join steps run as broadcast hash joins",
    "joins_shuffle": "join steps run as shuffle hash joins",
    "joins_index_nested": "join steps run as index-nested-loop joins",
    "joins_central": "join steps run centrally on the entry node",
    "join_build_rows": "rows fed into distributed join build indexes",
    "join_bytes_broadcast": "build-package bytes replicated by broadcast "
                            "steps",
    "join_bytes_shuffled": "bytes repartitioned by shuffle steps",
}

#: Read from the cluster, store and subsystems by :func:`collect_report`.
GAUGES: dict[str, str] = {
    "network_messages": "network messages sent",
    "network_bytes": "network bytes sent",
    "lock_acquisitions": "key-lock acquisitions",
    "lock_contentions": "key-lock acquisitions that had to wait",
    "locks_held": "key locks held at collection time",
    "open_channels": "FIFO network channels open at collection time",
    "index_maintenance_ops": "secondary-index write-path updates",
    "index_maintenance_cost": "simulated ms billed for index maintenance",
    "sketch_maintenance_ops": "sketch write-path updates",
    "sketch_maintenance_cost": "simulated ms billed for sketch "
                               "maintenance",
    "like_cache_hits": "compiled-LIKE cache hits (process-wide)",
    "like_cache_misses": "compiled-LIKE cache misses (process-wide)",
    "active_subscriptions": "continuous-query subscriptions open",
    "changes_captured": "state changes captured for continuous queries",
    "deltas_pushed": "result deltas pushed to subscribers",
    "push_batches_sent": "push batches sent to subscribers",
    "push_batches_coalesced": "pending deltas collapsed into a snapshot "
                              "(full queue or backpressure)",
    "subscription_rescans": "standing-query rescans started",
    "shared_plans": "deduplicated standing plans",
    "subscriptions_per_plan_max": "subscribers on the most shared plan",
    "subscriptions_per_plan_mean": "mean subscribers per shared plan",
    "router_deltas_routed": "deltas routed to subscribers by residual",
    "residual_filter_drops": "deltas dropped by subscriber residual "
                             "filters",
    "coalesced_batches": "batches merged into a shared network message",
    "slow_consumers_evicted": "subscribers evicted for stalling",
    "plan_maintenance_ops": "standing-plan applies",
    "plan_maintenance_cost": "simulated ms billed for plan maintenance",
    "sanitizer_violations": "runtime invariant violations detected",
    "lock_order_edges_observed": "lock-order edges seen by lockdep",
    "lockdep_violations": "lock-order inversions seen by lockdep",
}

#: Every counter name and its one-line meaning.
COUNTERS: dict[str, str] = {**QUERY_COUNTERS, **GAUGES}


class CounterSet(Counter):
    """A :class:`collections.Counter` over the names in :data:`COUNTERS`.

    A registered name reads 0 until counted; writing or reading any
    other name raises :class:`KeyError` instead of counting it, or
    reading it as 0, silently.  ``update`` trusts its source, which is
    itself a ``CounterSet`` in every rollup.
    """

    def __missing__(self, name: str) -> int:
        if name in COUNTERS:
            return 0
        raise KeyError(f"unregistered counter {name!r}")

    def __setitem__(self, name: str, value) -> None:
        if name not in COUNTERS:
            raise KeyError(f"unregistered counter {name!r}")
        super().__setitem__(name, value)


@dataclass(frozen=True)
class NodeReport:
    """Resource usage of one node over the observed horizon."""

    node_id: int
    alive: bool
    processing_utilization: float
    processing_jobs: int
    query_utilization: float
    query_jobs: int
    store_utilization: float
    store_jobs: int


@dataclass
class ClusterReport:
    """A point-in-time utilisation snapshot of the whole deployment.

    Every registered counter also reads as an attribute:
    ``report.network_bytes`` is ``report.counters["network_bytes"]``.
    """

    horizon_ms: float
    nodes: list[NodeReport] = field(default_factory=list)
    counters: CounterSet = field(default_factory=CounterSet)

    def __getattr__(self, name: str):
        if name in COUNTERS:
            return self.counters[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def hottest_pool(self) -> tuple[int, str, float]:
        """(node, pool kind, utilisation) of the busiest worker pool."""
        best = (0, "processing", 0.0)
        for node in self.nodes:
            if node.processing_utilization > best[2]:
                best = (node.node_id, "processing",
                        node.processing_utilization)
            if node.query_utilization > best[2]:
                best = (node.node_id, "query", node.query_utilization)
            if node.store_utilization > best[2]:
                best = (node.node_id, "store", node.store_utilization)
        return best


def collect_report(env: Environment) -> ClusterReport:
    """Snapshot resource usage from time 0 to the current virtual time."""
    horizon = max(env.sim.now, 1e-9)
    report = ClusterReport(horizon_ms=horizon)
    for node in env.cluster.nodes:
        store_busy = sum(s.total_busy_ms for s in node.store_servers)
        store_capacity = horizon * len(node.store_servers)
        report.nodes.append(NodeReport(
            node_id=node.node_id,
            alive=node.alive,
            processing_utilization=node.processing_pool.utilization(
                horizon
            ),
            processing_jobs=node.processing_pool.jobs_served,
            query_utilization=node.query_pool.utilization(horizon),
            query_jobs=node.query_pool.jobs_served,
            store_utilization=store_busy / store_capacity,
            store_jobs=sum(s.jobs_served for s in node.store_servers),
        ))
    counters = report.counters
    network = env.cluster.network
    counters["network_messages"] = network.messages_sent
    counters["network_bytes"] = network.bytes_sent
    counters["open_channels"] = network.open_channels
    locks = env.store.locks
    counters["lock_acquisitions"] = locks.acquisitions
    counters["lock_contentions"] = locks.contentions
    counters["locks_held"] = locks.held_count
    for service in getattr(env, "query_services", ()):
        counters.update(service.counters)
    counters["index_maintenance_ops"] = env.store.index_maintenance_ops()
    counters["index_maintenance_cost"] = (
        counters["index_maintenance_ops"] * env.costs.index_maintain_entry_ms
    )
    counters["sketch_maintenance_ops"] = env.store.sketch_maintenance_ops()
    counters["sketch_maintenance_cost"] = (
        counters["sketch_maintenance_ops"]
        * env.costs.sketch_maintain_entry_ms
    )
    continuous = getattr(env, "continuous", None)
    if continuous is not None:
        counters["active_subscriptions"] = continuous.active_subscriptions
        counters["changes_captured"] = continuous.recorder.changes_captured
        counters["deltas_pushed"] = continuous.deltas_pushed
        counters["push_batches_sent"] = continuous.batches_sent
        counters["push_batches_coalesced"] = continuous.batches_coalesced
        counters["subscription_rescans"] = continuous.rescans_run
        counters["shared_plans"] = len(continuous.plans)
        sizes = [
            plan.subscriber_count
            for plan in continuous.plans.values()
        ]
        if sizes:
            counters["subscriptions_per_plan_max"] = max(sizes)
            counters["subscriptions_per_plan_mean"] = sum(sizes) / len(sizes)
        counters["router_deltas_routed"] = continuous.router.deltas_routed
        counters["residual_filter_drops"] = \
            continuous.router.residual_filter_drops
        counters["coalesced_batches"] = continuous.coalesced_batches
        counters["slow_consumers_evicted"] = continuous.slow_consumers_evicted
        counters["plan_maintenance_ops"] = continuous.plan_maintenance_ops
        counters["plan_maintenance_cost"] = continuous.plan_maintenance_ms
    # Process-wide cache (shared across environments), documented as
    # such: the counters are cumulative for the process.
    from .sql.compiled import like_cache_stats

    counters["like_cache_hits"], counters["like_cache_misses"] = \
        like_cache_stats()
    sanitizers = getattr(env, "sanitizers", None)
    if sanitizers is not None:
        counters["sanitizer_violations"] = len(sanitizers.violations)
        counters["lock_order_edges_observed"] = getattr(
            sanitizers, "lock_order_edges_observed", 0
        )
        counters["lockdep_violations"] = getattr(
            sanitizers, "lockdep_violations", 0
        )
    return report


def format_report(report: ClusterReport) -> str:
    """Render a :class:`ClusterReport` as an aligned text table."""
    rows = []
    for node in report.nodes:
        rows.append([
            node.node_id,
            "up" if node.alive else "DOWN",
            f"{node.processing_utilization:.1%}",
            node.processing_jobs,
            f"{node.query_utilization:.1%}",
            node.query_jobs,
            f"{node.store_utilization:.1%}",
            node.store_jobs,
        ])
    table = format_table(
        ["node", "status", "proc util", "proc jobs", "query util",
         "query jobs", "store util", "store ops"],
        rows,
        title=(f"cluster utilisation over {report.horizon_ms:.0f} ms "
               "virtual"),
    )
    footer = (
        f"network: {report.network_messages:,} messages, "
        f"{report.network_bytes:,} bytes | locks: "
        f"{report.lock_acquisitions:,} acquisitions, "
        f"{report.lock_contentions:,} contended"
    )
    if report.query_rows_shipped or report.query_partitions_pruned:
        footer += (
            f"\nquery shipping: {report.query_rows_shipped:,} rows, "
            f"{report.query_bytes_shipped:,} bytes | "
            f"{report.query_partitions_pruned:,} partitions pruned"
        )
    if report.index_probes or report.index_maintenance_ops:
        footer += (
            f"\nindexes: {report.index_probes:,} probes, "
            f"{report.index_rows_read:,} rows read, "
            f"{report.rows_skipped_by_index:,} rows skipped | "
            f"{report.index_maintenance_ops:,} maintenance ops "
            f"({report.index_maintenance_cost:,.1f} ms billed)"
        )
    if report.sketch_probes or report.sketch_maintenance_ops:
        footer += (
            f"\nsketches: {report.sketch_probes:,} probes answered "
            f"{report.approx_queries_answered:,} APPROX queries | "
            f"{report.sketch_maintenance_ops:,} maintenance ops "
            f"({report.sketch_maintenance_cost:,.1f} ms billed)"
        )
    if report.batches_evaluated or report.predicates_compiled:
        footer += (
            f"\ncolumnar: {report.batches_evaluated:,} batches, "
            f"{report.predicates_compiled:,} predicates compiled "
            f"({report.compile_cache_hits:,} fragment-cache hits) | "
            f"LIKE cache: {report.like_cache_hits:,} hits, "
            f"{report.like_cache_misses:,} misses"
        )
    distributed_join_steps = (
        report.joins_copartitioned + report.joins_broadcast
        + report.joins_shuffle + report.joins_index_nested
    )
    if distributed_join_steps or report.joins_central:
        footer += (
            f"\njoins: {report.joins_copartitioned:,} co-partitioned, "
            f"{report.joins_broadcast:,} broadcast, "
            f"{report.joins_shuffle:,} shuffle, "
            f"{report.joins_index_nested:,} index-nested-loop, "
            f"{report.joins_central:,} central | "
            f"{report.join_build_rows:,} build rows, "
            f"{report.join_bytes_broadcast:,} B broadcast, "
            f"{report.join_bytes_shuffled:,} B shuffled"
        )
    if report.query_retries or report.query_aborts:
        footer += (
            f"\nquery fault tolerance: {report.query_retries:,} "
            f"retries, {report.query_aborts:,} aborts "
            f"({report.query_timeouts:,} by timeout)"
        )
    if report.active_subscriptions or report.push_batches_sent:
        footer += (
            f"\ncontinuous: {report.active_subscriptions:,} "
            f"subscriptions, {report.changes_captured:,} changes "
            f"captured, {report.deltas_pushed:,} deltas pushed in "
            f"{report.push_batches_sent:,} batches "
            f"({report.push_batches_coalesced:,} coalesced), "
            f"{report.subscription_rescans:,} rescans"
        )
    if report.shared_plans or report.router_deltas_routed:
        footer += (
            f"\nfan-out: {report.shared_plans:,} shared plans "
            f"(max {report.subscriptions_per_plan_max:,} / mean "
            f"{report.subscriptions_per_plan_mean:,.1f} subscribers), "
            f"{report.router_deltas_routed:,} deltas routed, "
            f"{report.residual_filter_drops:,} residual drops, "
            f"{report.coalesced_batches:,} batches coalesced, "
            f"{report.slow_consumers_evicted:,} slow consumers evicted"
        )
    if report.sanitizer_violations:
        footer += (
            f"\nsanitizers: {report.sanitizer_violations:,} invariant "
            "violations detected"
        )
    if report.lock_order_edges_observed or report.lockdep_violations:
        footer += (
            f"\nlockdep: {report.lock_order_edges_observed:,} "
            f"lock-order edges observed, {report.lockdep_violations:,} "
            "inversions"
        )
    return f"{table}\n{footer}"
