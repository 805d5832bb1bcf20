"""Property tests for index-backed scans: equivalence and coherence.

Secondary indexes are a pure access-path optimisation, so for any data
and any supported query the index-on/index-off results must be
bit-identical — live and snapshot, with and without pushdown, and
under seeded chaos kills.  Rollback recovery rewrites live partitions
wholesale, so the write path must keep every index coherent through
failures too.

Integer-only values keep aggregate merges exact: float SUM/AVG merge
order could otherwise introduce rounding noise that has nothing to do
with correctness.
"""

import random

import pytest

from repro import Environment
from repro.chaos import ChaosHarness, assert_invariants
from repro.config import (
    ClusterConfig,
    CostModel,
    IndexSpec,
    QueryRetryPolicy,
)
from repro.errors import QueryError
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

QUERIES = [
    'SELECT key, v FROM "data" WHERE v = 17 ORDER BY key',
    'SELECT COUNT(*) AS n FROM "data" WHERE v IN (5, 17, 100)',
    'SELECT key FROM "data" WHERE s LIKE \'s-0%\' ORDER BY key',
    'SELECT key, s FROM "data" WHERE s LIKE \'s-17\' ORDER BY key',
    'SELECT g, SUM(v) AS t, COUNT(*) AS c FROM "data" WHERE v < 40 '
    "GROUP BY g ORDER BY g",
    'SELECT COUNT(*) AS n FROM "data" '
    "WHERE s BETWEEN 's-10' AND 's-19'",
    'SELECT g, COUNT(*) AS c FROM "data" WHERE v = 17 OR v = 100 '
    "GROUP BY g ORDER BY g",
    'SELECT v FROM "data" WHERE key IN (1, 5, 9, 700)',
    'SELECT COUNT(*) AS n FROM "data" WHERE v = 17 AND g = 3',
]


def populate(env, seed, keys=900):
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    rng = random.Random(seed)
    for key in range(keys):
        imap.put(key, {
            "v": rng.randrange(0, 200),
            "g": rng.randrange(0, 6),
            "s": f"s-{rng.randrange(0, 40):02d}",
            "pad": rng.randrange(0, 10**6),
        })
    env.store.create_index("data", "v", "hash")
    env.store.create_index("data", "s", "sorted")


def indexed_cluster():
    # Few enough partitions that fixed probe costs stay in proportion
    # to the table, so selective predicates genuinely take the index.
    return ClusterConfig(nodes=4, processing_workers_per_node=1,
                         partition_count=48)


@pytest.mark.parametrize("seed", [1, 17, 42])
@pytest.mark.parametrize("pushdown", [True, False])
def test_random_data_on_off_equivalence(seed, pushdown):
    env = Environment(indexed_cluster())
    populate(env, seed)
    on = QueryService(env, pushdown=pushdown, indexes=True)
    off = QueryService(env, pushdown=pushdown, indexes=False)
    for sql in QUERIES:
        lhs = on.execute(sql)
        rhs = off.execute(sql)
        assert lhs.result.columns == rhs.result.columns, sql
        assert lhs.result.rows == rhs.result.rows, sql


def test_selective_probes_actually_use_the_index():
    # Guard against the equivalence above passing vacuously: on this
    # data shape the chooser must take the index for the equality probe.
    env = Environment(indexed_cluster())
    populate(env, seed=7)
    service = QueryService(env, indexes=True)
    execution = service.execute(
        'SELECT key, v FROM "data" WHERE v = 17 ORDER BY key'
    )
    assert execution.counters["index_probes"] > 0
    assert execution.entries_scanned < 900


def test_writes_between_queries_keep_results_equivalent():
    env = Environment(indexed_cluster())
    populate(env, seed=11)
    imap = env.store.get_map("data")
    rng = random.Random(99)
    on = QueryService(env, indexes=True)
    off = QueryService(env, indexes=False)
    for round_no in range(8):
        # Interleave overwrites, inserts, and deletes with queries.
        for _ in range(40):
            key = rng.randrange(0, 1100)
            if rng.random() < 0.2 and imap.contains(key):
                imap.delete(key)
            else:
                imap.put(key, {
                    "v": rng.randrange(0, 200),
                    "g": rng.randrange(0, 6),
                    "s": f"s-{rng.randrange(0, 40):02d}",
                    "pad": round_no,
                })
        sql = QUERIES[round_no % len(QUERIES)]
        assert on.execute(sql).result.rows == \
            off.execute(sql).result.rows, sql
    table = env.store.get_live_table("data")
    assert table.index_coherence_errors() == []


#: Slow scans widen the mid-scan window failure injection lands in —
#: and make every selective index path a clear win, so the chaos run
#: exercises index-resolved fragments under kills.
SLOW_SCANS = CostModel(scan_entry_ms=0.05,
                       vectorized_scan_entry_ms=0.05)
TIMEOUT_MS = 2_000.0


@pytest.mark.parametrize("seed", [5, 23])
def test_chaos_kills_preserve_on_off_equivalence(seed):
    env = Environment(indexed_cluster(), costs=SLOW_SCANS)
    populate(env, seed)
    services = {
        True: QueryService(env, indexes=True,
                           retry_policy=QueryRetryPolicy(
                               query_timeout_ms=TIMEOUT_MS)),
        False: QueryService(env, indexes=False,
                            retry_policy=QueryRetryPolicy(
                                query_timeout_ms=TIMEOUT_MS)),
    }
    chaos = ChaosHarness(env, seed=seed)
    chaos.plan_random(horizon_ms=2_500.0, kills=2,
                      restart_after_ms=300.0)

    pairs = []
    executions = []

    def fire(sql: str) -> None:
        try:
            pair = (services[True].submit(sql),
                    services[False].submit(sql))
        except QueryError:
            return  # "no surviving nodes" is a legal rejection
        pairs.append((sql, *pair))
        executions.extend(pair)

    for index in range(18):
        sql = QUERIES[index % len(QUERIES)]
        env.sim.schedule_at(10.0 + index * 150.0, fire, sql)

    env.run_until(2_500.0 + TIMEOUT_MS + 1_000.0)

    assert chaos.kills_executed >= 1
    assert pairs, "workload generated no query pairs"
    # assert_invariants includes index/store coherence after the
    # kill-and-restart partition reshuffles.
    assert_invariants(env, executions)
    compared = 0
    for sql, on, off in pairs:
        assert on.done and off.done
        if on.error is not None or off.error is not None:
            continue  # aborted by chaos; completion is all we require
        # The live table is quiescent (no job mutates it), so both
        # executions observed the same rows regardless of timing and
        # retries — results must be identical.
        assert on.result.columns == off.result.columns, sql
        assert on.result.rows == off.result.rows, sql
        compared += 1
    assert compared > 0, "no pair completed cleanly under chaos"


@pytest.mark.parametrize("kill_at_ms", [900, 1_234])
def test_rollback_recovery_keeps_indexes_coherent(kill_at_ms):
    env = Environment(ClusterConfig(nodes=3,
                                    processing_workers_per_node=2))
    backend = make_squery_backend(
        env, indexes=(IndexSpec("average", "total", "hash"),)
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
    # the incremental maintenance must have followed every step.
    live = env.store.get_live_table("average")
    assert live.index_coherence_errors() == []
    snap = env.store.get_snapshot_table("snapshot_average")
    for ssid in env.store.available_ssids():
        if not snap.has_snapshot(ssid):
            continue
        assert snap.index_ready(ssid)
        assert snap.index_coherence_errors(ssid) == []
    assert_invariants(env)

    # The job is quiescent: index on/off equivalence on both families.
    for sql in (
        'SELECT key, count, total FROM "average" ORDER BY key',
        'SELECT COUNT(*) AS n, SUM(total) AS t FROM "average" '
        "WHERE total > 0",
        'SELECT key, count, total FROM "snapshot_average" ORDER BY key',
    ):
        on = QueryService(env, indexes=True).execute(sql)
        off = QueryService(env, indexes=False).execute(sql)
        assert on.result.rows == off.result.rows, sql
