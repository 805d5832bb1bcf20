"""Property tests for the vectorized columnar scan path.

Vectorization is a pure execution-strategy change, so for any data and
any supported query the ``vectorized=True`` and ``vectorized=False``
results must be bit-identical — NULL-heavy, mixed-type, and LIKE-heavy
workloads alike, composed with every other ablation gate (pushdown,
indexes, sketches), on snapshot tables, and under seeded chaos kills.
Errors count too: a pushed predicate that fails must surface the same
message whichever scan path hit it.

Integer-only values keep aggregate merges exact: float SUM/AVG merge
order could otherwise introduce rounding noise that has nothing to do
with correctness.
"""

import random

import pytest

from repro import Environment
from repro.chaos import ChaosHarness, assert_invariants
from repro.config import ClusterConfig, CostModel, QueryRetryPolicy
from repro.errors import QueryError, SqlExecutionError
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

#: NULL-heavy, LIKE-heavy, and aggregate shapes; three-valued logic,
#: dynamic patterns, CASE, and NULL group keys all get exercised.
QUERIES = [
    'SELECT key, v FROM "data" WHERE v < 10 ORDER BY key',
    'SELECT key FROM "data" WHERE v IS NULL ORDER BY key',
    'SELECT key FROM "data" WHERE v IS NOT NULL AND v % 3 = 0 '
    "ORDER BY key",
    'SELECT COUNT(*) AS n FROM "data" WHERE v IN (1, 5, NULL)',
    'SELECT key FROM "data" WHERE s LIKE \'s-0%\' ORDER BY key',
    'SELECT key FROM "data" WHERE s LIKE \'s-_7\' ORDER BY key',
    'SELECT key FROM "data" WHERE s NOT LIKE \'s-1%\' AND v < 30 '
    "ORDER BY key",
    'SELECT key FROM "data" WHERE tag LIKE p ORDER BY key',
    'SELECT tag, COUNT(*) AS c FROM "data" GROUP BY tag ORDER BY c, tag',
    'SELECT g, SUM(v) AS s, COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi '
    'FROM "data" WHERE v IS NOT NULL GROUP BY g ORDER BY g',
    'SELECT AVG(v) AS a FROM "data" WHERE COALESCE(v, 0) > 20',
    'SELECT key, CASE WHEN v < 50 THEN \'low\' WHEN v < 150 THEN '
    "'mid' ELSE 'high' END AS band FROM \"data\" WHERE v IS NOT NULL "
    "ORDER BY key",
    'SELECT g, COUNT(*) AS c FROM "data" WHERE v BETWEEN 20 AND 120 '
    "GROUP BY g HAVING COUNT(*) > 2 ORDER BY g",
    'SELECT v FROM "data" WHERE key IN (1, 5, 9, 700)',
]

TAGS = ("alpha", "beta", "gamma", None)


def populate(env, seed, keys=600):
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    rng = random.Random(seed)
    for key in range(keys):
        imap.put(key, {
            # NULL-heavy: ~1 in 5 values is a stored NULL.
            "v": None if rng.random() < 0.2 else rng.randrange(0, 200),
            "g": rng.randrange(0, 6),
            "s": f"s-{rng.randrange(0, 40):02d}",
            "tag": TAGS[rng.randrange(0, len(TAGS))],
            "p": rng.choice(("a%", "%a", "b_ta", "%")),
            "pad": rng.randrange(0, 10**6),
        })


def assert_identical(on, off, sql):
    assert on.result.columns == off.result.columns, sql
    assert on.result.rows == off.result.rows, sql
    assert on.counters["query_bytes_shipped"] \
        == off.counters["query_bytes_shipped"], sql


@pytest.mark.parametrize("seed", [1, 17, 42])
@pytest.mark.parametrize("pushdown", [True, False])
def test_random_data_on_off_equivalence(seed, pushdown):
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed)
    on = QueryService(env, pushdown=pushdown, vectorized=True)
    off = QueryService(env, pushdown=pushdown, vectorized=False)
    for sql in QUERIES:
        assert_identical(on.execute(sql), off.execute(sql), sql)


@pytest.mark.parametrize("seed", [3, 29])
def test_composed_with_index_gate(seed):
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1,
                                    partition_count=48))
    populate(env, seed)
    env.store.create_index("data", "v", "hash")
    env.store.create_index("data", "s", "sorted")
    for indexes in (True, False):
        on = QueryService(env, indexes=indexes, vectorized=True)
        off = QueryService(env, indexes=indexes, vectorized=False)
        for sql in QUERIES:
            assert_identical(on.execute(sql), off.execute(sql),
                             (sql, indexes))


def test_composed_with_sketch_gate():
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed=11)
    for sql in (
        'SELECT APPROX COUNT(*) AS n FROM "data" WHERE v = 17',
        'SELECT APPROX SUM(v) AS s FROM "data"',
    ):
        on = QueryService(env, sketches=True, vectorized=True)
        off = QueryService(env, sketches=True, vectorized=False)
        lhs, rhs = on.execute(sql), off.execute(sql)
        # Sketch answers are approximate but deterministic; the scan
        # path feeding them must not change a single byte.
        assert lhs.result.rows == rhs.result.rows, sql


def test_mixed_type_errors_identical_across_paths_and_central():
    # A poisoned row makes the pushed conjunct raise mid-scan; the
    # message must be verbatim-identical however the scan executes.
    def error_of(**service_kwargs):
        env = Environment(ClusterConfig(nodes=4,
                                        processing_workers_per_node=1))
        populate(env, seed=7)
        env.store.get_map("data").put(9999, {
            "v": "poison", "g": 0, "s": "s-00", "tag": None, "p": "%",
            "pad": 0,
        })
        service = QueryService(env, **service_kwargs)
        with pytest.raises(SqlExecutionError) as excinfo:
            service.execute('SELECT key FROM "data" WHERE v < 10')
        assert env.store.locks.held_count == 0
        return str(excinfo.value)

    on = error_of(vectorized=True)
    off = error_of(vectorized=False)
    central = error_of(pushdown=False)
    assert on == off == central
    assert "cannot compare str with int" in on


def test_snapshot_tables_equivalent_across_scan_paths():
    env = Environment(ClusterConfig(nodes=3,
                                    processing_workers_per_node=2))
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=50,
                            limit_per_instance=800,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(30_000)
    assert job.all_sources_exhausted()
    assert env.store.available_ssids(), "no snapshot completed"

    for sql in (
        'SELECT key, count, total FROM "snapshot_average" '
        "WHERE count > 3 ORDER BY key",
        'SELECT COUNT(*) AS n, SUM(count) AS c '
        'FROM "snapshot_average" WHERE total >= 0',
        'SELECT key, count, total FROM "average" ORDER BY key',
    ):
        on = QueryService(env, vectorized=True).execute(sql)
        off = QueryService(env, vectorized=False).execute(sql)
        assert_identical(on, off, sql)
    assert_invariants(env)


#: Slow scans widen the mid-scan window failure injection lands in
#: (both scan paths, so the window is wide whichever gate is active).
SLOW_SCANS = CostModel(scan_entry_ms=0.05,
                       vectorized_scan_entry_ms=0.05)
TIMEOUT_MS = 2_000.0


@pytest.mark.parametrize("seed", [5, 23])
def test_chaos_kills_preserve_on_off_equivalence(seed):
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_SCANS,
    )
    populate(env, seed)
    services = {
        True: QueryService(env, vectorized=True,
                           retry_policy=QueryRetryPolicy(
                               query_timeout_ms=TIMEOUT_MS)),
        False: QueryService(env, vectorized=False,
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


@pytest.mark.parametrize("kill_after_ms", [2.0, 4.0])
def test_mid_scan_kill_matches_unkilled_vectorized_result(kill_after_ms):
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_SCANS,
    )
    populate(env, seed=9)
    service = QueryService(env, vectorized=True)
    sql = ('SELECT g, SUM(v) AS s, COUNT(*) AS c FROM "data" '
           "WHERE v IS NOT NULL GROUP BY g ORDER BY g")
    expected = service.execute(sql).result.rows

    execution = service.submit(sql)
    env.run_for(kill_after_ms)  # planning done, batch scans in flight
    assert not execution.done
    victim = next(
        node for node in env.cluster.surviving_node_ids()
        if node != execution.entry_node
    )
    env.cluster.fail_node(victim)
    env.run_for(2_000)
    assert execution.done
    assert execution.error is None
    assert execution.retries == 1
    # Attempt tokens discarded the dead node's shipped partials, so
    # no batch was counted twice across the retry.
    assert execution.result.rows == expected
