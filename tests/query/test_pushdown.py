"""Service-level tests for distributed query execution (pushdown).

The distributed plan must be invisible in results — pushdown on and off
produce identical rows for every query shape — while shipping strictly
less over the network and pruning partitions the key predicates prove
empty.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig
from repro.errors import SqlExecutionError
from repro.observability import collect_report, format_report
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

NODES = 5
KEYS = 1_000


@pytest.fixture
def wide_env():
    """Five nodes, one wide live table, no job (deterministic data)."""
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1)
    )
    imap = env.store.create_map("metrics")
    env.store.register_live_table("metrics", LiveStateTable(imap))
    for key in range(KEYS):
        imap.put(key, {
            "value": key % 50,
            "weight": key % 7,
            "label": f"item-{key % 3}",
            "pad1": key, "pad2": key * 2, "pad3": key * 3,
        })
    return env


@pytest.fixture
def snapshot_env(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=20,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_250)
    return env


EQUIVALENCE_SQL = [
    'SELECT key, value FROM "metrics" WHERE value < 3 ORDER BY key',
    'SELECT * FROM "metrics" WHERE value = 7 AND weight = 2',
    'SELECT weight, SUM(value) AS s, COUNT(*) AS c FROM "metrics" '
    "GROUP BY weight HAVING COUNT(*) > 10 ORDER BY weight",
    'SELECT COUNT(*) AS n FROM "metrics"',
    'SELECT MIN(value) AS lo, MAX(value) AS hi, AVG(weight) AS w '
    'FROM "metrics" WHERE key >= 100',
    'SELECT DISTINCT weight FROM "metrics" WHERE value < 5 '
    "ORDER BY weight",
    'SELECT label, COUNT(DISTINCT value) AS dv FROM "metrics" '
    "GROUP BY label ORDER BY label",
    'SELECT key FROM "metrics" WHERE label LIKE \'item-1%\' '
    "ORDER BY key LIMIT 7 OFFSET 2",
    'SELECT a.key, b.weight FROM "metrics" AS a '
    'JOIN "metrics" AS b ON a.key = b.key '
    "WHERE a.value < 2 ORDER BY a.key",
    'SELECT key, CASE WHEN value < 25 THEN 0 ELSE 1 END AS bucket '
    'FROM "metrics" WHERE key BETWEEN 10 AND 40 ORDER BY key',
    'SELECT COUNT(*) AS n FROM "metrics" WHERE key IN (1, 2, 3, 999)',
]


@pytest.mark.parametrize("sql", EQUIVALENCE_SQL)
def test_pushdown_on_off_results_identical(wide_env, sql):
    on = QueryService(wide_env, pushdown=True).execute(sql)
    off = QueryService(wide_env, pushdown=False).execute(sql)
    assert on.result.columns == off.result.columns
    assert on.result.rows == off.result.rows


def test_selective_scan_ships_fewer_rows_and_bytes(wide_env):
    sql = 'SELECT key, value FROM "metrics" WHERE value = 0'
    on = QueryService(wide_env, pushdown=True).execute(sql)
    off = QueryService(wide_env, pushdown=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.counters["query_rows_shipped"] == KEYS // 50
    assert off.counters["query_rows_shipped"] == KEYS
    assert on.counters["query_bytes_shipped"] * 5 \
        <= off.counters["query_bytes_shipped"]
    # Every entry is still scanned — pushdown saves shipping, not reads.
    assert on.entries_scanned == off.entries_scanned == KEYS


def test_group_by_ships_partial_states_not_rows(wide_env):
    sql = ('SELECT weight, SUM(value) AS s FROM "metrics" '
           "GROUP BY weight")
    on = QueryService(wide_env, pushdown=True).execute(sql)
    # At most one group state per (group, node).
    assert on.counters["query_rows_shipped"] <= 7 * NODES
    assert len(on.result.rows) == 7


def test_multi_point_get_via_in_list(wide_env):
    service = QueryService(wide_env)
    execution = service.execute(
        'SELECT value FROM "metrics" WHERE key IN (3, 77, 500)'
    )
    assert execution.point_keys == (3, 77, 500)
    assert execution.entries_scanned == 3
    assert sorted(row["value"] for row in execution.result.rows) == \
        sorted([3 % 50, 77 % 50, 500 % 50])


def test_multi_point_get_via_or_equalities(wide_env):
    service = QueryService(wide_env)
    execution = service.execute(
        'SELECT value FROM "metrics" WHERE key = 5 OR key = 999'
    )
    assert execution.point_keys == (5, 999)
    assert execution.entries_scanned == 2
    assert len(execution.result.rows) == 2


def test_single_key_point_lookup_unchanged(wide_env):
    service = QueryService(wide_env)
    execution = service.execute(
        'SELECT value FROM "metrics" WHERE key = 42'
    )
    assert execution.point_key == 42
    assert execution.point_keys == (42,)
    assert execution.entries_scanned == 1


def test_large_in_list_prunes_partitions_instead(wide_env):
    # 65 keys exceed the multi-point budget: the query scans, but the
    # key-set filter prunes every partition that can't hold them.
    keys = ", ".join(str(k) for k in range(65))
    service = QueryService(wide_env)
    execution = service.execute(
        f'SELECT COUNT(*) AS n FROM "metrics" WHERE key IN ({keys})'
    )
    assert execution.point_keys is None
    assert execution.result.rows[0]["n"] == 65
    assert execution.counters["query_partitions_pruned"] > 0
    assert execution.entries_scanned < KEYS


def test_snapshot_range_scan_uses_zone_map_pruning(snapshot_env):
    # The job uses 20 keys, so every partition's (min, max) zone map
    # lies below 1000 and the range predicate prunes all of them.
    sql = 'SELECT COUNT(*) AS n FROM "snapshot_average" WHERE key > 1000'
    execution = QueryService(snapshot_env).execute(sql)
    baseline = QueryService(snapshot_env, pushdown=False).execute(sql)
    assert execution.result.rows == baseline.result.rows
    assert execution.result.rows[0]["n"] == 0
    assert execution.counters["query_partitions_pruned"] > 0
    assert execution.entries_scanned == 0
    assert baseline.entries_scanned > 0


def test_snapshot_queries_identical_on_off(snapshot_env):
    ssid = snapshot_env.store.committed_ssid
    for sql in (
        'SELECT key, count, total FROM "snapshot_average" ORDER BY key',
        'SELECT COUNT(*) AS n, SUM(count) AS s FROM "snapshot_average"',
        f'SELECT key FROM "snapshot_average" WHERE ssid = {ssid} '
        "ORDER BY key",
    ):
        on = QueryService(snapshot_env, pushdown=True).execute(sql)
        off = QueryService(snapshot_env, pushdown=False).execute(sql)
        assert on.result.rows == off.result.rows


def test_all_versions_stays_on_legacy_path(snapshot_env):
    on = QueryService(snapshot_env, pushdown=True)
    execution = on.submit(
        'SELECT COUNT(*) AS n FROM "snapshot_average"', all_versions=True
    )
    snapshot_env.run_for(1_000)
    assert execution.done and execution.error is None
    assert execution.counters["query_partitions_pruned"] == 0


def test_repeatable_read_locks_only_surviving_rows(wide_env):
    sql = 'SELECT key FROM "metrics" WHERE value = 0'
    on_env_locks = wide_env.store.locks
    before = on_env_locks.acquisitions
    QueryService(wide_env, repeatable_read=True,
                 pushdown=True).execute(sql)
    on_acquired = on_env_locks.acquisitions - before
    before = on_env_locks.acquisitions
    QueryService(wide_env, repeatable_read=True,
                 pushdown=False).execute(sql)
    off_acquired = on_env_locks.acquisitions - before
    assert on_acquired == KEYS // 50  # only rows passing the predicate
    assert off_acquired == KEYS


def test_counters_roll_up_into_cluster_report(wide_env):
    service = QueryService(wide_env)
    service.execute('SELECT key FROM "metrics" WHERE value = 0')
    keys = ", ".join(str(k) for k in range(65))
    service.execute(
        f'SELECT COUNT(*) AS n FROM "metrics" WHERE key IN ({keys})'
    )
    assert service.counters["query_rows_shipped"] > 0
    assert service.counters["query_bytes_shipped"] > 0
    assert service.counters["query_partitions_pruned"] > 0
    report = collect_report(wide_env)
    assert report.query_rows_shipped \
        == service.counters["query_rows_shipped"]
    assert report.query_bytes_shipped \
        == service.counters["query_bytes_shipped"]
    assert report.query_partitions_pruned == \
        service.counters["query_partitions_pruned"]
    assert "partitions pruned" in format_report(report)


def test_explain_shows_distributed_strategy(wide_env):
    service = QueryService(wide_env)
    plan = service.explain(
        'SELECT weight, SUM(value) AS s FROM "metrics" '
        "WHERE pad1 > 3 GROUP BY weight"
    )
    assert "pushed filter" in plan
    assert "partial aggregate" in plan
    point = service.explain(
        'SELECT value FROM "metrics" WHERE key IN (1, 2)'
    )
    assert "point lookup: 2 key(s)" in point
    assert "key filter" in point
    off = QueryService(wide_env, pushdown=False).explain(
        'SELECT COUNT(*) FROM "metrics"'
    )
    assert "ship all rows" in off


def test_cost_model_flag_controls_default(wide_env):
    assert QueryService(wide_env).pushdown_enabled is True
    assert QueryService(wide_env,
                        pushdown=False).pushdown_enabled is False


@pytest.mark.parametrize("nodes", [1, 3])
@pytest.mark.parametrize("pushdown", [True, False])
@pytest.mark.parametrize("sql", [
    'SELECT MIN(a) FROM "t"',
    'SELECT MAX(a) FROM "t"',
    'SELECT a FROM "t" ORDER BY a',
])
def test_mixed_type_ordering_raises_sql_error(sql, pushdown, nodes):
    # One node computes MIN/MAX in a shard-side partial; three nodes
    # meet the mixed values in the merge; ORDER BY sorts centrally.
    env = Environment(ClusterConfig(nodes=nodes, backup_count=0,
                                    processing_workers_per_node=1))
    imap = env.store.create_map("t")
    env.store.register_live_table("t", LiveStateTable(imap))
    for key, value in enumerate([1, "x", None]):
        imap.put(key, {"a": value})
    service = QueryService(env, pushdown=pushdown)
    with pytest.raises(SqlExecutionError,
                       match="^cannot compare str with int$"):
        service.execute(sql)
