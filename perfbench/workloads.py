"""The benchmark's two workloads, driven through the public API.

Each workload is one repetition in one process: :meth:`setup` builds the
deployment and warms it up (committed snapshots, one warm query
rotation), :meth:`timed` is the measured phase, and :meth:`check`
verifies the program's outputs.  The amount of virtual work is a
function of the seed, the size preset and the run length only, so the
virtual outputs of a repetition repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from repro import (
    Environment,
    Job,
    QueryService,
    SQueryBackend,
    SQueryConfig,
    collect_report,
)
from repro.bench.harness import preload_qcommerce_state, scaled_cluster
from repro.sql.batch import fragment_cache_stats
from repro.workloads.qcommerce import (
    ALL_QUERIES,
    ORDER_STATES,
    QUERY_1,
    build_qcommerce_job,
)
from repro.workloads.qcommerce.model import DELIVERY_ZONES, VENDOR_CATEGORIES

from hostspeed import HostSpeed

SIZES = {
    "full": {
        "sql_dashboard": dict(nodes=5, orders=10_000, events_per_s=9000,
                              checkpoint_ms=1000.0, stream_commits=6,
                              rotations_per_s=0.5),
        "mixed_live": dict(nodes=5, orders=10_000, events_per_s=22_000,
                           rider_events_per_s=2000, checkpoint_ms=500.0,
                           queries_per_s=100 / 3, virtual_ms_per_s=120,
                           read_passes=2),
    },
    # Seconds-long runs for the benchmark's own tests.
    "tiny": {
        "sql_dashboard": dict(nodes=5, orders=500, events_per_s=3000,
                              checkpoint_ms=200.0, stream_commits=2,
                              rotations_per_s=0.01),
        "mixed_live": dict(nodes=5, orders=500, events_per_s=2200,
                           rider_events_per_s=200, checkpoint_ms=100.0,
                           queries_per_s=100, virtual_ms_per_s=100,
                           read_passes=1),
    },
}

#: Virtual ms between warm-up polls for the first committed snapshot.
POLL_MS = 10.0
#: Virtual ms per measured slice of a stream phase.
STREAM_SLICE_MS = 250.0


def build_qcommerce(env, orders: int, events_per_s: float,
                    rider_events_per_s: float, checkpoint_ms: float,
                    randomized: bool, seed: int) -> Job:
    """The Q-commerce job with its state preloaded.  Its three operators
    are terminal, so every record's source-to-sink latency is recorded
    where its operator finishes it."""
    job = build_qcommerce_job(
        env, SQueryBackend(env.cluster, env.store, SQueryConfig()),
        orders=orders, events_per_s=events_per_s,
        rider_events_per_s=rider_events_per_s,
        checkpoint_interval_ms=checkpoint_ms,
        parallelism=env.cluster.config.total_processing_workers,
        randomized=randomized, seed=seed,
    )
    preload_qcommerce_state(job, orders, max(10, orders // 10))
    return job


def canonical(rows) -> list[str]:
    """Order-insensitive comparable form of a row list."""
    return sorted(repr(sorted(row.items())) for row in rows)


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def rows_match(rows: list[dict], want: list[dict]) -> bool:
    """Same rows in the same order with the same columns.  Floats match
    to 1e-9 relative: merging per-node partial SUM/AVG states adds in a
    different order than the reference path, which moves the last bits
    (the program documents this as rounding noise, not a defect)."""
    return len(rows) == len(want) and all(
        list(row) == list(other)
        and all(_same_value(row[c], other[c]) for c in row)
        for row, other in zip(rows, want)
    )


class Workload:
    """Shared bookkeeping: failure counting, the timed-phase counters
    the per-layer metrics are deltas of, and wall times measured both
    as they are and scaled to the nominal host speed (``hostspeed``)."""

    name = ""

    def __init__(self, seed: int, seconds: float, size: str,
                 expect_wrong: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.params = SIZES[size][self.name]
        self.rng = random.Random(seed)
        #: Test hook: corrupt every expected result so the output
        #: checks must report failures.
        self.expect_wrong = expect_wrong
        self.attempted = 0
        self.failures: list[str] = []
        self.env: Environment | None = None
        self.job: Job | None = None
        self.executions: list = []   # timed-phase query handles
        self.sink_ms: list[float] = []
        self.commit_ms: list[float] = []
        self.host = HostSpeed()
        self.stream_records = 0
        self.stream_wall_s = 0.0   # scaled
        self.stream_raw_s = 0.0
        self.read_wall_ms: list[float] = []   # scaled
        self.read_raw_ms: list[float] = []
        self.read_virtual_ms: list[float] = []
        self.queries_done = 0
        self.queries_wall_s = 0.0   # scaled
        self.queries_raw_s = 0.0
        self.query_virtual_ms: list[float] = []
        self.digest: list = []

    # -- helpers ----------------------------------------------------------

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def expected(self, rows: list) -> list:
        """``rows`` as the expected result.  Under the test hook one value
        of the first row is corrupted, so the checks must compare values,
        not only row counts (an empty result gets a spurious row)."""
        if not self.expect_wrong:
            return rows
        if not rows:
            return [{"wrong": True}]
        first = dict(rows[0])
        column = next(iter(first))
        first[column] = ("wrong", first[column])
        return [first, *rows[1:]]

    def run_query(self, service: QueryService, sql: str,
                  record: bool = False):
        """One closed-loop ``execute``; returns the execution, or None on
        error, which counts as a failure.  With ``record`` its wall time,
        scaled and as measured, and its billed latency join the query
        samples."""
        self.attempted += 1
        try:
            if not record:
                return service.execute(sql)
            execution, wall_s, scaled_s = self.host.measure(
                service.execute, sql)
        except Exception as exc:  # every query error is a failure
            self.failures.append(f"{sql[:60]}: {type(exc).__name__}: {exc}")
            return None
        self.read_wall_ms.append(scaled_s * 1000.0)
        self.read_raw_ms.append(wall_s * 1000.0)
        self.read_virtual_ms.append(execution.latency_ms)
        return execution

    def run_stream(self, duration_ms: float) -> tuple[float, float]:
        """``env.run_for(duration_ms)``; returns its wall seconds, scaled
        and as measured."""
        _, wall_s, scaled_s = self.host.measure(self.env.run_for,
                                                duration_ms)
        return scaled_s, wall_s

    def warm_up_to_commit(self, commits: int = 1) -> None:
        while self.job.coordinator.completed < commits:
            self.env.run_for(POLL_MS)

    def records_emitted(self) -> int:
        return sum(s.records_emitted for s in self.job.source_instances())

    def counters(self) -> dict:
        """Cumulative program counters; the timed phase reports deltas."""
        env = self.env
        report = collect_report(env)
        hits, misses = fragment_cache_stats()
        nodes = env.cluster.nodes
        return {
            "simtime.events": env.sim.processed_events,
            "dataflow.records": self.records_emitted(),
            "dataflow.checkpoints": self.job.coordinator.completed,
            "cluster.network_messages": report.network_messages,
            "cluster.network_bytes": report.network_bytes,
            "cluster.processing_wait_ms": sum(
                n.processing_pool.total_wait_ms for n in nodes),
            "cluster.store_wait_ms": sum(
                s.total_wait_ms for n in nodes for s in n.store_servers),
            "cluster.query_wait_ms": sum(
                n.query_pool.total_wait_ms for n in nodes),
            "kvstore.lock_acquisitions": report.lock_acquisitions,
            "kvstore.lock_contentions": report.lock_contentions,
            "query.rows_shipped": report.query_rows_shipped,
            "query.bytes_shipped": report.query_bytes_shipped,
            "continuous.changes_captured": report.changes_captured,
            "continuous.deltas_pushed": report.deltas_pushed,
            "continuous.push_batches_sent": report.push_batches_sent,
            "sql.compile_hits": hits,
            "sql.compile_lookups": hits + misses,
        }

    def timed_query_counters(self) -> dict:
        done = [e for e in self.executions if e.done]
        return {
            "sql.rows_scanned": sum(e.entries_scanned for e in done),
            "query.scan_ms_billed": sum(e.scan_ms_billed for e in done),
        }

    def fingerprint(self) -> str:
        """Digest of every virtual output of the repetition."""
        payload = json.dumps([
            self.env.sim.now, self.env.sim.processed_events,
            self.records_emitted(), self.sink_ms, self.commit_ms,
            self.query_virtual_ms, self.read_virtual_ms, self.digest,
        ], default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()

    def commits_since(self, start_ms: float) -> list[float]:
        return [s.phase2_ms for s in self.job.coordinator.samples
                if s.started_ms >= start_ms]


class SqlDashboard(Workload):
    """Closed-loop SQL over static Q-commerce state (10K orders).  The
    stream metrics of this workload come from the warm-up, which runs
    the job to its ``stream_commits``-th committed snapshot before it
    stops it."""

    name = "sql_dashboard"

    def setup(self) -> None:
        p = self.params
        self.env = Environment(scaled_cluster(p["nodes"], 1), seed=self.seed)
        self.job = build_qcommerce(
            self.env, p["orders"], events_per_s=p["events_per_s"] * 2 / 3,
            rider_events_per_s=p["events_per_s"] / 3,
            checkpoint_ms=p["checkpoint_ms"], randomized=False,
            seed=self.seed,
        )
        self.job.start()
        while self.job.coordinator.completed < p["stream_commits"]:
            scaled_s, wall_s = self.run_stream(STREAM_SLICE_MS)
            self.stream_wall_s += scaled_s
            self.stream_raw_s += wall_s
        self.stream_records = self.records_emitted()
        self.sink_ms = list(self.job.metrics.sink_latencies)
        self.commit_ms = self.commits_since(0.0)
        self.job.stop()  # state is static from here on
        self.qs = QueryService(self.env)
        # One warm rotation, plus the two paper queries it lacks.
        for sql in self.rotation(0) + list(ALL_QUERIES[2:4]):
            self.run_query(self.qs, sql)

    def rotation(self, index: int) -> list[str]:
        """16 statements: three joins (two of the paper's Queries 1-4 on
        snapshot tables, alternating by rotation, and the same join on
        live tables), nine live filters with ORDER BY/LIMIT and
        single-table GROUP BYs, four point and IN lookups.  Literals
        come from the seeded generator; they change which rows qualify,
        not how many are scanned or sorted, so the work per slot is
        steady.  The mix puts the median inside the filter band and the
        90th percentile inside the join band."""
        rng = self.rng
        orders = self.params["orders"]

        def point(table="orderstate"):
            return (f'SELECT * FROM "{table}" '
                    f"WHERE partitionKey = {rng.randrange(orders)}")

        def in_list():
            keys = ", ".join(str(rng.randrange(orders)) for _ in range(4))
            return ('SELECT partitionKey, deliveryZone, vendorCategory '
                    f'FROM "orderinfo" WHERE partitionKey IN ({keys})')

        def live_filter():
            # customerLat is uniform over [52.0, 53.0): a window of fixed
            # width selects about 5% of the orders wherever it starts.
            low = 52.0 + rng.randrange(950) / 1000.0
            return ('SELECT partitionKey, customerLat, deliveryZone '
                    f'FROM "orderinfo" WHERE customerLat >= {low:.3f} '
                    f"AND customerLat < {low + 0.05:.3f} "
                    "ORDER BY customerLat DESC, partitionKey LIMIT 20")

        def group_info():
            category = rng.choice(VENDOR_CATEGORIES)
            return ('SELECT deliveryZone, COUNT(*) AS n, AVG(customerLon) '
                    f"AS lon FROM \"orderinfo\" WHERE vendorCategory = "
                    f"'{category}' GROUP BY deliveryZone")

        def group_state():
            state = rng.choice(ORDER_STATES)
            return ('SELECT orderState, COUNT(*) AS n FROM "orderstate" '
                    f"WHERE orderState <> '{state}' GROUP BY orderState")

        def live_join():
            state = rng.choice(ORDER_STATES)
            return ('SELECT COUNT(*), deliveryZone FROM "orderinfo" '
                    'JOIN "orderstate" USING(partitionKey) '
                    f"WHERE orderState = '{state}' GROUP BY deliveryZone")

        first, second = ALL_QUERIES[2 * (index % 2):2 * (index % 2) + 2]
        return [
            first, point(), live_filter(), group_info(), in_list(),
            group_state(), live_filter(), second, point("orderinfo"),
            group_info(), live_filter(), live_join(), in_list(),
            group_state(), live_filter(), group_info(),
        ]

    def timed(self) -> None:
        rotations = max(1, round(self.seconds
                                 * self.params["rotations_per_s"]))
        statements = [sql for index in range(rotations)
                      for sql in self.rotation(index)]
        self.results = []
        for sql in statements:
            execution = self.run_query(self.qs, sql, record=True)
            if execution is None:
                continue
            self.executions.append(execution)
            self.results.append((sql, execution.result.rows))
        self.query_virtual_ms = list(self.read_virtual_ms)
        self.queries_done = len(self.read_wall_ms)
        self.queries_wall_s = sum(self.read_wall_ms) / 1000.0
        self.queries_raw_s = sum(self.read_raw_ms) / 1000.0

    def check(self) -> None:
        """Every statement's rows equal the reference path (no pushdown:
        every raw row shipped to the entry node and evaluated there)."""
        reference = QueryService(self.env, pushdown=False)
        expected: dict[str, list] = {}
        for sql, rows in self.results:
            if sql not in expected:
                execution = self.run_query(reference, sql)
                expected[sql] = (None if execution is None
                                 else execution.result.rows)
            want = expected[sql]
            self.digest.append(len(rows))
            self.expect(want is not None
                        and rows_match(rows, self.expected(want)),
                        f"rows differ from the reference path: {sql[:60]}")


class MixedLive(Workload):
    """Q-commerce writes, an open-loop SQL client, a closed-loop SQL
    client and standing subscriptions sharing one deployment."""

    name = "mixed_live"

    def setup(self) -> None:
        p = self.params
        self.env = Environment(scaled_cluster(p["nodes"], 1), seed=self.seed)
        self.job = build_qcommerce(
            self.env, p["orders"], events_per_s=p["events_per_s"],
            rider_events_per_s=p["rider_events_per_s"],
            checkpoint_ms=p["checkpoint_ms"], randomized=True,
            seed=self.seed,
        )
        self.qs = QueryService(self.env)
        states = self.rng.sample(ORDER_STATES, 3)
        self.subscription_sql = [
            'SELECT orderState, COUNT(*) AS n FROM "orderstate" '
            "GROUP BY orderState",
        ] + [
            'SELECT partitionKey, orderState, lateTimestamp FROM '
            f"\"orderstate\" WHERE orderState = '{state}'"
            for state in states
        ]
        self.subscriptions = []
        for sql in self.subscription_sql:
            self.attempted += 1
            self.subscriptions.append(self.qs.subscribe(sql))
        self.job.start()
        self.warm_up_to_commit()
        for sql in self.rotation():
            self.run_query(self.qs, sql)

    def rotation(self) -> list[str]:
        """20 statements: 5 live point/IN lookups, 12 live filters and
        GROUP BYs, 3 snapshot Query 1 joins.  The mix puts the median
        inside the filter band and the 90th percentile inside the join
        band."""
        rng = self.rng
        orders = self.params["orders"]

        def point():
            return ('SELECT * FROM "orderstate" WHERE partitionKey = '
                    f"{rng.randrange(orders)}")

        def in_list():
            keys = ", ".join(str(rng.randrange(orders)) for _ in range(4))
            return ('SELECT partitionKey, orderState FROM "orderstate" '
                    f"WHERE partitionKey IN ({keys})")

        # The filters take every state once, in a seeded order, so each
        # rotation filters the same rows whatever the seed.
        filter_states = iter(rng.sample(ORDER_STATES, len(ORDER_STATES)))

        def live_filter():
            return ('SELECT partitionKey, lateTimestamp FROM "orderstate" '
                    f"WHERE orderState = '{next(filter_states)}' "
                    "ORDER BY partitionKey LIMIT 10")

        def group_zone():
            zone = rng.choice(DELIVERY_ZONES)
            return ('SELECT vendorCategory, COUNT(*) AS n FROM "orderinfo" '
                    f"WHERE deliveryZone = '{zone}' GROUP BY vendorCategory")

        return [
            point(), live_filter(), group_zone(), live_filter(), QUERY_1,
            in_list(), live_filter(), group_zone(), live_filter(), point(),
            live_filter(), QUERY_1, group_zone(), live_filter(), in_list(),
            live_filter(), group_zone(), point(), QUERY_1, live_filter(),
        ]

    def timed(self) -> None:
        """The job streams for the run's virtual duration while the
        open-loop client submits on its schedule.  The closed-loop
        client's ``execute`` calls are spread evenly over the window:
        the stream runs a slice, then one statement of the rotation
        executes against the live state (the job keeps running inside
        ``execute``), so its wall-time samples span the whole phase."""
        p = self.params
        duration_ms = self.seconds * p["virtual_ms_per_s"]
        self.statements = statements = self.rotation()
        # A Poisson process conditioned on its count: the number of
        # queries, and so the statement mix, is fixed for a run length;
        # the arrival times are seeded uniform draws over the window.
        rotations = max(1, round(p["queries_per_s"] * duration_ms / 1000.0
                                 / len(statements)))
        arrivals = sorted(self.rng.uniform(0.0, duration_ms)
                          for _ in range(rotations * len(statements)))
        self.submitted = []

        def fire(sql: str) -> None:
            self.attempted += 1
            self.submitted.append(self.qs.submit(sql, materialize=True))

        for delay, sql in zip(arrivals, statements * rotations):
            self.env.sim.schedule(delay, fire, sql)
        reads = statements * p["read_passes"]
        slice_ms = duration_ms / len(reads)
        self.timed_start_ms = self.env.sim.now
        skip = len(self.job.metrics.sink_latencies)
        before = self.records_emitted()
        for sql in reads:
            scaled_s, wall_s = self.run_stream(slice_ms)
            self.stream_wall_s += scaled_s
            self.stream_raw_s += wall_s
            execution = self.run_query(self.qs, sql, record=True)
            if execution is not None:
                self.executions.append(execution)
        self.stream_wall_s += sum(self.read_wall_ms) / 1000.0
        self.stream_raw_s += sum(self.read_raw_ms) / 1000.0
        self.stream_records = self.records_emitted() - before
        self.sink_ms = self.job.metrics.sink_latencies[skip:]
        self.commit_ms = self.commits_since(self.timed_start_ms)
        self.executions += self.submitted
        self.queries_done = (len(self.read_wall_ms)
                             + sum(1 for e in self.submitted if e.done))
        self.queries_wall_s = self.stream_wall_s
        self.queries_raw_s = self.stream_raw_s

    def check(self) -> None:
        """Drain with sources stopped; then no query errored or aborted,
        no subscriber was evicted, and each subscription's view equals a
        fresh execute of its SQL."""
        self.job.stop()
        guard = 0
        while not all(e.done for e in self.submitted) and guard < 10_000:
            self.env.run_for(POLL_MS)
            guard += 1
        self.env.run_for(100 * POLL_MS)  # last push batches land
        for execution in self.submitted:
            if not execution.done or execution.error is not None:
                self.failures.append(
                    f"open-loop query failed: {execution.sql[:60]}: "
                    f"{execution.error!r}")
                continue
            self.query_virtual_ms.append(execution.latency_ms)
            self.digest.append(len(execution.result.rows))
        for sql, subscription in zip(self.subscription_sql,
                                     self.subscriptions):
            if subscription.evicted:
                self.failures.append(f"subscriber evicted: {sql[:60]}")
            execution = self.run_query(self.qs, sql)
            if execution is None:
                continue
            want = self.expected(execution.result.rows)
            self.digest.append(canonical(subscription.rows()))
            self.expect(canonical(subscription.rows()) == canonical(want),
                        f"subscription view differs from execute: {sql[:60]}")


WORKLOADS = {cls.name: cls for cls in (SqlDashboard, MixedLive)}
