"""Property tests for APPROX query answering.

The subsystem's contract: every sketch-answered result is within its
*reported* ``error_bound`` of the exact answer at the declared
confidence — live and snapshot, with and without pushdown, and under
seeded chaos kills.  All workloads are fixed-seed, so the probabilistic
bounds are checked reproducibly, not flakily.  Count-min is one-sided
by construction (``exact <= estimate <= exact + bound`` always), which
is asserted as a hard property.

Rollback recovery rewrites live partitions wholesale, so the sketch
write path must stay coherent through failures exactly like the index
write path (PR 5's property, extended to sketches).
"""

import random

import pytest

from repro import Environment
from repro.chaos import ChaosHarness, assert_invariants
from repro.config import (
    ClusterConfig,
    CostModel,
    QueryRetryPolicy,
    SketchSpec,
)
from repro.errors import QueryError
from repro.query import QueryService
from repro.state import FullSnapshotTable
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

KEYS = 3_000

#: (approx sql, exact sql, output column, mode)
QUERIES = [
    ('SELECT APPROX COUNT(*) AS n FROM "data" WHERE v = 17',
     'SELECT COUNT(*) AS n FROM "data" WHERE v = 17',
     "n", "count_eq"),
    ('SELECT APPROX COUNT(DISTINCT zone) AS d FROM "data"',
     'SELECT COUNT(DISTINCT zone) AS d FROM "data"',
     "d", "distinct"),
    ('SELECT APPROX SUM(x) AS s FROM "data"',
     'SELECT SUM(x) AS s FROM "data"',
     "s", "sum"),
    ('SELECT APPROX AVG(x) AS a FROM "data"',
     'SELECT AVG(x) AS a FROM "data"',
     "a", "avg"),
]


def populate(env, seed, keys=KEYS):
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    rng = random.Random(seed)
    for key in range(keys):
        imap.put(key, {
            "v": rng.randrange(0, 50),
            "zone": f"zone-{rng.randrange(0, 120)}",
            "x": rng.uniform(0.0, 100.0),
        })
    # Small reservoirs force genuine sampling (~60 rows per partition
    # vs 16 slots), so the CLT bound is exercised, not vacuous.
    env.store.create_sketch("data", "v", "countmin")
    env.store.create_sketch("data", "zone", "hll")
    env.store.create_sketch("data", "x", "reservoir", capacity=16,
                            confidence=0.99)


def sketch_cluster():
    return ClusterConfig(nodes=4, processing_workers_per_node=1,
                         partition_count=48)


def assert_within_bound(mode, approx_row, column, exact_value, sql):
    estimate = approx_row[column]
    bound = approx_row["error_bound"]
    confidence = approx_row["confidence"]
    assert 0.0 < confidence <= 1.0, sql
    if mode == "count_eq":
        # One-sided: collisions only ever add.
        assert exact_value <= estimate <= exact_value + bound, sql
    else:
        slack = 1e-9 * max(abs(exact_value), 1.0)  # float merge order
        assert abs(estimate - exact_value) <= bound + slack, sql


@pytest.mark.parametrize("seed", [1, 17, 42])
@pytest.mark.parametrize("pushdown", [True, False])
def test_live_answers_within_reported_bound(seed, pushdown):
    env = Environment(sketch_cluster())
    populate(env, seed)
    approx = QueryService(env, pushdown=pushdown, sketches=True)
    exact = QueryService(env, pushdown=pushdown, sketches=False)
    for approx_sql, exact_sql, column, mode in QUERIES:
        lhs = approx.execute(approx_sql)
        rhs = exact.execute(exact_sql)
        # Guard against vacuous passes: the sketch path must fire.
        assert lhs.counters["approx_queries_answered"], approx_sql
        assert lhs.counters["sketch_probes"] > 0 and lhs.entries_scanned == 0
        assert lhs.result.columns == [column, "error_bound",
                                      "confidence"]
        assert_within_bound(mode, lhs.result.rows[0], column,
                            rhs.result.rows[0][column], approx_sql)
    assert approx.counters["approx_queries_answered"] == len(QUERIES)


def test_sketches_off_falls_back_to_exact_with_zero_bounds():
    env = Environment(sketch_cluster())
    populate(env, seed=7)
    off = QueryService(env, sketches=False)
    exact = QueryService(env, sketches=False)
    for approx_sql, exact_sql, column, _mode in QUERIES:
        lhs = off.execute(approx_sql)
        rhs = exact.execute(exact_sql)
        assert not lhs.counters["approx_queries_answered"]
        assert lhs.result.columns == [column, "error_bound",
                                      "confidence"]
        row = lhs.result.rows[0]
        assert row["error_bound"] == 0.0 and row["confidence"] == 1.0
        assert row[column] == rhs.result.rows[0][column], approx_sql


def test_mutations_keep_live_answers_within_bound():
    env = Environment(sketch_cluster())
    populate(env, seed=11)
    imap = env.store.get_map("data")
    rng = random.Random(99)
    approx = QueryService(env, sketches=True)
    exact = QueryService(env, sketches=False)
    for round_no in range(6):
        for _ in range(80):
            key = rng.randrange(0, KEYS + 400)
            if rng.random() < 0.25 and imap.contains(key):
                imap.delete(key)
            else:
                imap.put(key, {
                    "v": rng.randrange(0, 50),
                    "zone": f"zone-{rng.randrange(0, 120)}",
                    "x": rng.uniform(0.0, 100.0),
                })
        approx_sql, exact_sql, column, mode = \
            QUERIES[round_no % len(QUERIES)]
        lhs = approx.execute(approx_sql)
        rhs = exact.execute(exact_sql)
        assert lhs.counters["approx_queries_answered"], approx_sql
        assert_within_bound(mode, lhs.result.rows[0], column,
                            rhs.result.rows[0][column], approx_sql)
    live = env.store.get_live_table("data")
    assert live.sketch_coherence_errors() == []


def test_snapshot_answers_within_bound_and_pin_by_ssid():
    env = Environment(sketch_cluster())
    table = FullSnapshotTable("snap", 8, lambda i: i % 4)
    env.store.register_snapshot_table("snap", table)
    env.store.create_sketch("snap", "v", "countmin")
    env.store.create_sketch("snap", "zone", "hll")
    rng = random.Random(23)
    for ssid in (1, 2):
        env.store.begin_snapshot(ssid)
        for instance in range(8):
            table.write_instance(ssid, instance, {
                f"k{instance}-{j}": {
                    "v": rng.randrange(0, 50),
                    "zone": f"zone-{rng.randrange(0, 40)}",
                }
                for j in range(300)
            })
        env.store.commit_snapshot(ssid)
    approx = QueryService(env, sketches=True)
    exact = QueryService(env, sketches=False)
    for ssid in (1, 2):
        for sql_template, column, mode in (
            ('SELECT{} COUNT(*) AS n FROM "snap" '
             "WHERE v = 17 AND ssid = {}", "n", "count_eq"),
            ('SELECT{} COUNT(DISTINCT zone) AS d FROM "snap" '
             "WHERE ssid = {}", "d", "distinct"),
        ):
            approx_sql = sql_template.format(" APPROX", ssid)
            exact_sql = sql_template.format("", ssid)
            lhs = approx.execute(approx_sql)
            rhs = exact.execute(exact_sql)
            assert lhs.counters["approx_queries_answered"]
            assert lhs.snapshot_id == ssid
            assert_within_bound(mode, lhs.result.rows[0], column,
                                rhs.result.rows[0][column], approx_sql)
    for ssid in (1, 2):
        assert table.sketch_ready(ssid)
        assert table.sketch_coherence_errors(ssid) == []


#: Slow scans widen the mid-scan failure window and make the sketch
#: path a clear win, so chaos exercises sketch-answered queries.
SLOW_SCANS = CostModel(scan_entry_ms=0.05,
                       vectorized_scan_entry_ms=0.05)
TIMEOUT_MS = 2_000.0


@pytest.mark.parametrize("seed", [5, 23])
def test_chaos_kills_keep_answers_within_bound(seed):
    env = Environment(sketch_cluster(), costs=SLOW_SCANS)
    populate(env, seed, keys=900)
    approx = QueryService(env, sketches=True,
                          retry_policy=QueryRetryPolicy(
                              query_timeout_ms=TIMEOUT_MS))
    exact = QueryService(env, sketches=False,
                         retry_policy=QueryRetryPolicy(
                             query_timeout_ms=TIMEOUT_MS))
    chaos = ChaosHarness(env, seed=seed)
    chaos.plan_random(horizon_ms=2_500.0, kills=2,
                      restart_after_ms=300.0)

    pairs = []
    executions = []

    def fire(index: int) -> None:
        approx_sql, exact_sql, column, mode = \
            QUERIES[index % len(QUERIES)]
        try:
            pair = (approx.submit(approx_sql), exact.submit(exact_sql))
        except QueryError:
            return  # "no surviving nodes" is a legal rejection
        pairs.append((approx_sql, column, mode, *pair))
        executions.extend(pair)

    for index in range(16):
        env.sim.schedule_at(10.0 + index * 150.0, fire, index)

    env.run_until(2_500.0 + TIMEOUT_MS + 1_000.0)

    assert chaos.kills_executed >= 1
    assert pairs, "workload generated no query pairs"
    # assert_invariants includes sketch/store coherence after the
    # kill-and-restart partition reshuffles.
    assert_invariants(env, executions)
    compared = 0
    for approx_sql, column, mode, lhs, rhs in pairs:
        assert lhs.done and rhs.done
        if lhs.error is not None or rhs.error is not None:
            continue  # aborted by chaos; completion is all we require
        # The live table is quiescent, so the sketch answer and the
        # exact scan observed the same rows regardless of retries.
        assert_within_bound(mode, lhs.result.rows[0], column,
                            rhs.result.rows[0][column], approx_sql)
        compared += 1
    assert compared > 0, "no pair completed cleanly under chaos"


@pytest.mark.parametrize("kill_at_ms", [900, 1_234])
def test_rollback_recovery_keeps_sketches_coherent(kill_at_ms):
    env = Environment(ClusterConfig(nodes=3,
                                    processing_workers_per_node=2))
    backend = make_squery_backend(
        env,
        sketches=(SketchSpec("average", "total", "countmin"),
                  SketchSpec("average", "total", "reservoir")),
    )
    job = build_average_job(env, backend=backend, rate=2000, keys=50,
                            limit_per_instance=800,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(kill_at_ms)
    env.cluster.kill_node(2)
    env.run_until(30_000)
    assert job.all_sources_exhausted()
    assert job.metrics.recoveries == 1

    # Recovery rewrote live partitions from the rolled-back snapshot;
    # the incremental sketch maintenance must have followed every step.
    live = env.store.get_live_table("average")
    assert live.sketch_count == 2
    assert live.sketch_coherence_errors() == []
    snap = env.store.get_snapshot_table("snapshot_average")
    for ssid in env.store.available_ssids():
        if not snap.has_snapshot(ssid):
            continue
        assert snap.sketch_ready(ssid)
        assert snap.sketch_coherence_errors(ssid) == []
    assert_invariants(env)

    # The job is quiescent: the approximate SUM must cover the exact
    # one within its reported bound on both table families.
    for table in ("average", "snapshot_average"):
        lhs = QueryService(env, sketches=True).execute(
            f'SELECT APPROX SUM(total) AS t FROM "{table}"'
        )
        rhs = QueryService(env, sketches=False).execute(
            f'SELECT SUM(total) AS t FROM "{table}"'
        )
        assert_within_bound("sum", lhs.result.rows[0], "t",
                            rhs.result.rows[0]["t"], table)
