"""Property tests for distributed joins: equivalence, chaos, pruning.

Distributed join execution is a pure optimisation: for any data and any
eligible statement the ``distributed_joins`` on/off results must be
bit-identical — same columns, same rows, same order — including LEFT
NULL padding, duplicate-key multiplication, NULL join keys, every
combination of the other optimisation gates, and node kills landing
mid-build or mid-probe (the pipeline restarts wholesale and must not
double-count anything).

Integer values keep the comparisons exact, as in the pushdown suite.
"""

import random

import pytest

from repro import Environment
from repro.chaos import ChaosHarness, assert_invariants
from repro.config import ClusterConfig, CostModel, QueryRetryPolicy
from repro.errors import QueryError
from repro.query import QueryService
from repro.sql.access import JoinCandidate, choose_join_path
from repro.state.live import LiveStateTable


def populate(env, seed, orders=300, null_every=0, dup_factor=1):
    """orders/states co-partitioned pair + a small dims dimension.

    ``null_every`` > 0 makes every n-th order's foreign key NULL;
    ``dup_factor`` > 1 multiplies dims rows per key (duplicate join
    keys on the build side).
    """
    rng = random.Random(seed)
    o = env.store.create_map("orders")
    env.store.register_live_table("orders", LiveStateTable(o))
    s = env.store.create_map("states")
    env.store.register_live_table("states", LiveStateTable(s))
    d = env.store.create_map("dims")
    env.store.register_live_table("dims", LiveStateTable(d))
    for k in range(orders):
        fk = None if null_every and k % null_every == 0 \
            else rng.randrange(0, 12)
        o.put(k, {"cust": fk, "amount": rng.randrange(0, 500),
                  "pad": rng.randrange(0, 10**6)})
        if k % 3:
            s.put(k, {"status": rng.choice(["open", "shipped", "done"]),
                      "spad": rng.randrange(0, 10**6)})
    for d_key in range(12 * dup_factor):
        d.put(d_key, {"cust_id": d_key % 12,
                      "region": ["east", "west"][d_key % 2],
                      "tier": d_key % 3})
    return env


QUERIES = [
    # co-partitioned: join key == partition key on both sides
    'SELECT o.partitionKey, o.amount, s.status FROM "orders" AS o '
    'JOIN "states" AS s USING (partitionKey) ORDER BY o.partitionKey',
    'SELECT s.status, COUNT(*) AS n, SUM(o.amount) AS total '
    'FROM "orders" AS o JOIN "states" AS s USING (partitionKey) '
    "GROUP BY s.status ORDER BY s.status",
    'SELECT o.partitionKey, s.status FROM "orders" AS o '
    'LEFT JOIN "states" AS s USING (partitionKey) '
    "WHERE o.amount < 60 ORDER BY o.partitionKey",
    # broadcast: small dims on a non-partition-key column
    'SELECT o.partitionKey, d.region FROM "orders" AS o '
    'JOIN "dims" AS d ON o.cust = d.cust_id '
    "WHERE o.amount > 400 ORDER BY o.partitionKey, d.partitionKey",
    'SELECT d.region, COUNT(*) AS c FROM "orders" AS o '
    'JOIN "dims" AS d ON o.cust = d.cust_id '
    "GROUP BY d.region ORDER BY d.region",
    'SELECT o.partitionKey, d.tier FROM "orders" AS o '
    'LEFT JOIN "dims" AS d ON o.cust = d.cust_id '
    "WHERE o.amount > 450 ORDER BY o.partitionKey, d.partitionKey",
    # 3-table multi-way: co-partitioned step then broadcast step
    'SELECT o.partitionKey, s.status, d.region FROM "orders" AS o '
    'JOIN "states" AS s USING (partitionKey) '
    'JOIN "dims" AS d ON o.cust = d.cust_id '
    "WHERE o.amount > 250 ORDER BY o.partitionKey, d.partitionKey",
    'SELECT o.partitionKey, s.status, d.tier FROM "orders" AS o '
    'LEFT JOIN "states" AS s USING (partitionKey) '
    'JOIN "dims" AS d ON o.cust = d.cust_id '
    "WHERE o.amount < 40 ORDER BY o.partitionKey, d.partitionKey",
]


def run_pair(on, off, sql):
    lhs = on.execute(sql)
    rhs = off.execute(sql)
    assert lhs.error is None, (sql, lhs.error)
    assert rhs.error is None, (sql, rhs.error)
    assert lhs.result.columns == rhs.result.columns, sql
    assert lhs.result.rows == rhs.result.rows, sql
    return lhs


@pytest.mark.parametrize("seed", [1, 17, 42])
def test_join_on_off_equivalence(seed):
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed)
    on = QueryService(env, distributed_joins=True)
    off = QueryService(env, distributed_joins=False)
    distributed = 0
    for sql in QUERIES:
        lhs = run_pair(on, off, sql)
        if any(strategy != "central"
               for strategy in lhs.join_strategies):
            distributed += 1
    assert distributed > 0, "no query exercised the distributed pipeline"
    # The pipeline must actually have chosen both headline strategies.
    assert on.counters["joins_copartitioned"] > 0
    assert on.counters["joins_broadcast"] > 0
    assert off.counters["joins_central"] > 0


@pytest.mark.parametrize("null_every,dup_factor", [(2, 1), (3, 4), (2, 3)])
def test_null_and_duplicate_join_keys(null_every, dup_factor):
    """NULL keys never match (and LEFT-pad); duplicate build keys
    multiply rows — both must survive the distributed rewrite."""
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed=7, null_every=null_every, dup_factor=dup_factor)
    on = QueryService(env, distributed_joins=True)
    off = QueryService(env, distributed_joins=False)
    for sql in QUERIES:
        run_pair(on, off, sql)


def test_shuffle_hash_fallback_equivalence():
    """Neither side fits broadcast and keys are not partition keys:
    the chooser falls back to shuffle-hash, still bit-identical."""
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    rng = random.Random(11)
    left = env.store.create_map("l")
    env.store.register_live_table("l", LiveStateTable(left))
    right = env.store.create_map("r")
    env.store.register_live_table("r", LiveStateTable(right))
    for k in range(400):
        left.put(k, {"fk": rng.randrange(0, 350),
                     "a": rng.randrange(0, 100)})
    for k in range(500):
        right.put(k, {"rk": k % 350, "b": rng.randrange(0, 100)})
    on = QueryService(env, distributed_joins=True)
    off = QueryService(env, distributed_joins=False)
    for sql in [
        'SELECT l.partitionKey, r.b FROM "l" AS l '
        'JOIN "r" AS r ON l.fk = r.rk WHERE l.a < 10 '
        "ORDER BY l.partitionKey, r.partitionKey",
        'SELECT l.partitionKey, r.b FROM "l" AS l '
        'LEFT JOIN "r" AS r ON l.fk = r.rk WHERE l.a < 5 '
        "ORDER BY l.partitionKey, r.partitionKey",
    ]:
        lhs = run_pair(on, off, sql)
        assert lhs.join_strategies == ["shuffle"], lhs.join_strategies
    assert on.counters["join_bytes_shuffled"] > 0


def test_index_nested_loop_equivalence():
    """A tiny probe side against a large indexed build side prices into
    index-nested-loop; results stay bit-identical and the build table
    is resolved through the index, not scanned."""
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    rng = random.Random(13)
    small = env.store.create_map("small")
    env.store.register_live_table("small", LiveStateTable(small))
    big = env.store.create_map("big")
    env.store.register_live_table("big", LiveStateTable(big))
    for k in range(15):
        small.put(k, {"fk": rng.randrange(0, 40), "a": k})
    for k in range(6000):
        big.put(k, {"rk": k % 2000, "b": rng.randrange(0, 100)})
    env.store.create_index("big", "rk")
    on = QueryService(env, distributed_joins=True)
    off = QueryService(env, distributed_joins=False)
    sql = ('SELECT s.partitionKey, b.b FROM "small" AS s '
           'JOIN "big" AS b ON s.fk = b.rk '
           "ORDER BY s.partitionKey, b.partitionKey")
    lhs = run_pair(on, off, sql)
    assert lhs.join_strategies == ["index-nested-loop"]
    assert lhs.counters["index_probes"] > 0
    # The indexed probe touched only candidates, not the 6000 rows.
    assert lhs.entries_scanned < 6000


@pytest.mark.parametrize("gates", [
    dict(pushdown=True, vectorized=True),
    dict(pushdown=True, vectorized=False),
    dict(indexes=False, vectorized=True),
    dict(indexes=False, vectorized=False, sketches=False),
])
def test_composed_gates_stay_bit_identical(gates):
    """Distributed joins compose with every other optimisation gate."""
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed=23)
    on = QueryService(env, distributed_joins=True, **gates)
    off = QueryService(env, distributed_joins=False, **gates)
    for sql in QUERIES:
        run_pair(on, off, sql)


# -- chaos -------------------------------------------------------------------

#: Slow scans and stages widen the windows failure injection lands in.
SLOW_JOINS = CostModel(scan_entry_ms=0.05, vectorized_scan_entry_ms=0.05,
                       join_build_entry_ms=0.05, join_probe_entry_ms=0.05)
TIMEOUT_MS = 4_000.0


@pytest.mark.parametrize("seed", [5, 23])
def test_chaos_kills_preserve_join_equivalence(seed):
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_JOINS,
    )
    populate(env, seed)
    policy = QueryRetryPolicy(query_timeout_ms=TIMEOUT_MS)
    on = QueryService(env, distributed_joins=True, retry_policy=policy)
    off = QueryService(env, distributed_joins=False,
                       retry_policy=QueryRetryPolicy(
                           query_timeout_ms=TIMEOUT_MS))
    chaos = ChaosHarness(env, seed=seed)
    chaos.plan_random(horizon_ms=2_500.0, kills=2,
                      restart_after_ms=300.0)
    pairs = []
    executions = []

    def fire(sql: str) -> None:
        try:
            pair = (on.submit(sql), off.submit(sql))
        except QueryError:
            return  # "no surviving nodes" is a legal rejection
        pairs.append((sql, *pair))
        executions.extend(pair)

    for index in range(16):
        sql = QUERIES[index % len(QUERIES)]
        env.sim.schedule_at(10.0 + index * 150.0, fire, sql)

    env.run_until(2_500.0 + TIMEOUT_MS + 1_000.0)

    assert chaos.kills_executed >= 1
    assert pairs, "workload generated no query pairs"
    assert_invariants(env, executions)
    compared = 0
    for sql, lhs, rhs in pairs:
        assert lhs.done and rhs.done
        if lhs.error is not None or rhs.error is not None:
            continue  # aborted by chaos; completion is all we require
        assert lhs.result.columns == rhs.result.columns, sql
        assert lhs.result.rows == rhs.result.rows, sql
        compared += 1
    assert compared > 0, "no pair completed cleanly under chaos"


@pytest.mark.parametrize("kill_after_ms", [2.0, 5.0, 8.0])
def test_mid_join_kill_restarts_to_identical_rows(kill_after_ms):
    """A node death mid-build/mid-probe restarts the pipeline wholesale
    and must converge to exactly the undisturbed rows."""
    sql = ('SELECT o.partitionKey, s.status FROM "orders" AS o '
           'JOIN "states" AS s USING (partitionKey) '
           "ORDER BY o.partitionKey")
    baseline_env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_JOINS,
    )
    populate(baseline_env, seed=3)
    expected = QueryService(
        baseline_env, distributed_joins=True
    ).execute(sql).result.rows

    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_JOINS,
    )
    populate(env, seed=3)
    service = QueryService(
        env, distributed_joins=True,
        retry_policy=QueryRetryPolicy(query_timeout_ms=30_000.0),
    )
    execution = service.submit(sql)
    env.run_for(kill_after_ms)
    assert not execution.done
    victim = next(
        node for node in env.cluster.surviving_node_ids()
        if node != execution.entry_node
    )
    env.cluster.fail_node(victim)
    env.run_for(60_000)
    assert execution.done
    assert execution.error is None
    assert execution.retries == 1
    assert execution.result.rows == expected


def test_live_join_spanning_rollback_is_flagged():
    """An in-flight live join query crossing a rollback recovery gets
    the fuzzy-view flag, exactly like a plain live scan."""
    env = Environment(
        ClusterConfig(nodes=4, processing_workers_per_node=1),
        costs=SLOW_JOINS,
    )
    populate(env, seed=9)
    service = QueryService(env, distributed_joins=True)
    execution = service.submit(
        'SELECT o.partitionKey, s.status FROM "orders" AS o '
        'JOIN "states" AS s USING (partitionKey) ORDER BY o.partitionKey'
    )
    env.run_for(2.0)
    assert not execution.done
    service.on_rollback_recovery(None)
    env.run_for(60_000)
    assert execution.error is None
    assert execution.observed_rollback


# -- shipping-bytes regressions (join-side projection pruning) ---------------


def test_distributed_join_ships_fewer_bytes_than_central():
    """The headline claim: join inputs stay local (co-partitioned) or
    ship one build package (broadcast) instead of every row."""
    env_on = Environment(ClusterConfig(nodes=4,
                                       processing_workers_per_node=1))
    env_off = Environment(ClusterConfig(nodes=4,
                                        processing_workers_per_node=1))
    populate(env_on, seed=31)
    populate(env_off, seed=31)
    on = QueryService(env_on, distributed_joins=True)
    off = QueryService(env_off, distributed_joins=False)
    # Selective probe-side filter: central still ships every state row
    # to the entry node, the co-partitioned pipeline only the few
    # joined survivors.
    sql = ('SELECT s.status, COUNT(*) AS n FROM "orders" AS o '
           'JOIN "states" AS s USING (partitionKey) '
           "WHERE o.amount < 25 GROUP BY s.status ORDER BY s.status")
    lhs = on.execute(sql)
    rhs = off.execute(sql)
    assert lhs.result.rows == rhs.result.rows
    assert lhs.counters["query_bytes_shipped"] \
        < rhs.counters["query_bytes_shipped"] / 5


def test_join_projection_prunes_unreferenced_columns():
    """Join-side fragments project only referenced + join-key columns:
    the wide ``pad`` columns never ship, so bytes drop vs SELECT *."""
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed=37)
    service = QueryService(env, distributed_joins=False)
    narrow = service.execute(
        'SELECT o.amount, s.status FROM "orders" AS o '
        'JOIN "states" AS s USING (partitionKey) ORDER BY o.partitionKey'
    )
    wide = service.execute(
        'SELECT * FROM "orders" AS o '
        'JOIN "states" AS s USING (partitionKey) ORDER BY o.partitionKey'
    )
    assert narrow.result.rows != wide.result.rows  # sanity: narrower
    assert narrow.counters["query_bytes_shipped"] \
        < wide.counters["query_bytes_shipped"]


# -- cost chooser unit tests -------------------------------------------------


def _candidate(**overrides):
    base = dict(table="right", kind="INNER", left_rows=1000,
                right_rows=1000, left_row_bytes=60, right_row_bytes=60,
                node_count=4, partition_key_join=False,
                copartitioned=False, left_native=True, index_kind=None,
                estimate_source="entries")
    base.update(overrides)
    return JoinCandidate(**base)


def test_chooser_prefers_copartitioned_when_aligned():
    costs = CostModel()
    path = choose_join_path(
        _candidate(partition_key_join=True, copartitioned=True), costs
    )
    assert path.strategy == "copartitioned"
    assert any("central" in reason for reason in path.rejected)


def test_chooser_rejects_copartitioned_without_alignment():
    costs = CostModel()
    path = choose_join_path(
        _candidate(partition_key_join=False, copartitioned=False,
                   right_rows=30), costs
    )
    assert path.strategy != "copartitioned"
    assert any(
        "co-partitioned: join key is not the partition key" in reason
        for reason in path.rejected
    )


def test_chooser_rejects_copartitioned_when_placement_differs():
    costs = CostModel()
    path = choose_join_path(
        _candidate(partition_key_join=True, copartitioned=False), costs
    )
    assert path.strategy != "copartitioned"
    assert any("placement" in reason for reason in path.rejected)


def test_chooser_picks_broadcast_for_small_build_side():
    costs = CostModel()
    path = choose_join_path(
        _candidate(right_rows=20, left_rows=100_000), costs
    )
    assert path.strategy == "broadcast"


def test_chooser_rejects_index_nested_loop_for_left_join():
    costs = CostModel()
    path = choose_join_path(
        _candidate(kind="LEFT", index_kind="hash"), costs
    )
    assert path.strategy != "index-nested-loop"
    assert any(
        "index-nested-loop: LEFT join needs the full build side"
        in reason for reason in path.rejected
    )


def test_chooser_rejects_index_nested_loop_without_index():
    costs = CostModel()
    path = choose_join_path(_candidate(index_kind=None), costs)
    assert any(
        "index-nested-loop: no hash/sorted index" in reason
        for reason in path.rejected
    )


def test_chooser_falls_back_to_central_when_distribution_loses():
    # A tiny statement: fixed stage costs dominate, central wins.
    costs = CostModel()
    path = choose_join_path(
        _candidate(left_rows=1, right_rows=1, node_count=64), costs
    )
    assert path.strategy in ("central", "broadcast", "shuffle")
    describe = path.describe()
    assert "est." in describe and "central" in describe


def test_chooser_estimate_source_is_reported():
    costs = CostModel()
    path = choose_join_path(
        _candidate(right_rows=10, estimate_source="sketch"), costs
    )
    assert "from sketch" in path.describe()


def test_explain_renders_join_strategies():
    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    populate(env, seed=41)
    service = QueryService(env, distributed_joins=True)
    text = service.explain(
        'SELECT o.partitionKey, s.status FROM "orders" AS o '
        'JOIN "states" AS s USING (partitionKey) ORDER BY o.partitionKey'
    )
    assert "join [states]: co-partitioned hash join" in text
    assert "rejected" in text
    disabled = QueryService(env, distributed_joins=False)
    assert "joins: central (distributed joins disabled)" in disabled.explain(
        'SELECT o.partitionKey, s.status FROM "orders" AS o '
        'JOIN "states" AS s USING (partitionKey)'
    )
