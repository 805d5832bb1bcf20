"""Service-level tests for index-backed scans.

Secondary indexes are an access-path optimisation and nothing else:
index-on and index-off runs must return bit-identical rows while the
indexed run touches (scans, locks, bills) an order of magnitude fewer
rows for selective predicates.
"""

import pytest

from repro import Environment
from repro.config import ClusterConfig, CostModel, IndexSpec
from repro.observability import collect_report, format_report
from repro.query import QueryService
from repro.state.live import LiveStateTable

from ..conftest import build_average_job, make_squery_backend

NODES = 5
KEYS = 5_000
#: Fewer partitions than the 271 default: per-partition probes carry a
#: fixed cost, so selective predicates over a small table only beat the
#: scan when the partition count is in proportion to the data.
PARTITIONS = 64


@pytest.fixture
def indexed_env():
    """Five nodes, one wide live table with hash + sorted indexes."""
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1,
                      partition_count=PARTITIONS)
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
    env.store.create_index("metrics", "value", "hash")
    env.store.create_index("metrics", "label", "sorted")
    return env


EQUIVALENCE_SQL = [
    'SELECT key, value FROM "metrics" WHERE value = 7 ORDER BY key',
    'SELECT * FROM "metrics" WHERE value IN (1, 2, 3)',
    'SELECT key FROM "metrics" WHERE value = 7 AND weight = 2',
    'SELECT key FROM "metrics" WHERE label LIKE \'item-1%\' '
    "ORDER BY key LIMIT 7 OFFSET 2",
    'SELECT label, COUNT(*) AS n FROM "metrics" WHERE value = 0 '
    "GROUP BY label ORDER BY label",
    'SELECT COUNT(*) AS n FROM "metrics" WHERE value BETWEEN 10 AND 12',
    'SELECT DISTINCT weight FROM "metrics" WHERE value < 5 '
    "ORDER BY weight",
    'SELECT MIN(pad1) AS lo, MAX(pad2) AS hi FROM "metrics" '
    "WHERE value = 49",
    'SELECT key FROM "metrics" WHERE value = 7 AND key < 600 '
    "ORDER BY key",
    'SELECT COUNT(*) AS n FROM "metrics"',
]


@pytest.mark.parametrize("sql", EQUIVALENCE_SQL)
def test_index_on_off_results_identical(indexed_env, sql):
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.columns == off.result.columns
    assert on.result.rows == off.result.rows


@pytest.mark.parametrize("sql", EQUIVALENCE_SQL)
def test_index_on_off_identical_without_pushdown(indexed_env, sql):
    # Indexes ride on scan fragments; with pushdown off there is no
    # fragment and the service must quietly scan.
    on = QueryService(indexed_env, pushdown=False,
                      indexes=True).execute(sql)
    off = QueryService(indexed_env, pushdown=False,
                       indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.counters["index_probes"] == 0


def test_selective_equality_scans_10x_fewer_rows(indexed_env):
    sql = 'SELECT key, value FROM "metrics" WHERE value = 7'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert off.entries_scanned == KEYS
    assert on.entries_scanned == KEYS // 50  # exact candidates
    assert on.entries_scanned * 10 <= off.entries_scanned
    assert on.counters["index_probes"] > 0
    assert on.counters["index_rows_read"] == KEYS // 50
    assert on.counters["rows_skipped_by_index"] == KEYS - KEYS // 50
    # Touching fewer rows is also faster in simulated time.
    assert on.latency_ms < off.latency_ms


def test_like_prefix_uses_sorted_index(indexed_env):
    sql = 'SELECT key FROM "metrics" WHERE label LIKE \'item-1%\''
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    matches = sum(1 for key in range(KEYS) if key % 3 == 1)
    assert on.entries_scanned == matches
    assert off.entries_scanned == KEYS
    assert on.counters["index_probes"] > 0


def test_in_list_probes_each_value(indexed_env):
    sql = 'SELECT COUNT(*) AS n FROM "metrics" WHERE value IN (1, 2, 3)'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    assert on.result.rows[0]["n"] == 3 * KEYS // 50
    assert on.entries_scanned == 3 * KEYS // 50
    assert on.counters["index_probes"] > 0


def test_non_selective_predicate_stays_full_scan(indexed_env):
    # value < 500 keeps every row: the chooser must price the index out.
    sql = 'SELECT COUNT(*) AS n FROM "metrics" WHERE value < 500'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    assert on.counters["index_probes"] == 0
    assert on.entries_scanned == KEYS


def test_unindexed_column_stays_full_scan(indexed_env):
    sql = 'SELECT COUNT(*) AS n FROM "metrics" WHERE weight = 2'
    on = QueryService(indexed_env, indexes=True).execute(sql)
    assert on.counters["index_probes"] == 0
    assert on.entries_scanned == KEYS


def test_index_composes_with_partition_pruning(indexed_env):
    # 65 keys exceed the multi-point budget, so the key set prunes
    # partitions first; the index then resolves candidates only within
    # the surviving ones.  The keys are drawn from a handful of
    # partitions so the pruning actually bites.
    from repro.cluster.partition import stable_hash
    keys = [k for k in range(KEYS)
            if stable_hash(k) % PARTITIONS < 8][:65]
    assert len(keys) == 65
    in_list = ", ".join(str(k) for k in keys)
    sql = ('SELECT COUNT(*) AS n FROM "metrics" WHERE value = 7 '
           f"AND key IN ({in_list})")
    on = QueryService(indexed_env, indexes=True).execute(sql)
    off = QueryService(indexed_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.counters["query_partitions_pruned"] > 0
    assert on.counters["index_probes"] > 0
    assert on.entries_scanned < off.entries_scanned


def test_repeatable_read_locks_only_index_candidates(indexed_env):
    sql = 'SELECT key FROM "metrics" WHERE value = 7'
    locks = indexed_env.store.locks
    before = locks.acquisitions
    QueryService(indexed_env, repeatable_read=True,
                 indexes=True).execute(sql)
    acquired = locks.acquisitions - before
    assert acquired == KEYS // 50  # candidates, not the whole table


def test_counters_roll_up_into_cluster_report(indexed_env):
    service = QueryService(indexed_env, indexes=True)
    service.execute('SELECT key FROM "metrics" WHERE value = 7')
    assert service.counters["index_probes"] > 0
    assert service.counters["index_rows_read"] == KEYS // 50
    assert service.counters["rows_skipped_by_index"] == KEYS - KEYS // 50
    report = collect_report(indexed_env)
    assert report.index_probes == service.counters["index_probes"]
    assert report.index_rows_read == service.counters["index_rows_read"]
    assert report.rows_skipped_by_index == \
        service.counters["rows_skipped_by_index"]
    # Write-path maintenance billed: 1000 puts x 2 indexes (+ builds).
    assert report.index_maintenance_ops >= 2 * KEYS
    assert report.index_maintenance_cost > 0
    rendered = format_report(report)
    assert "indexes:" in rendered
    assert "maintenance ops" in rendered


def test_explain_shows_chosen_access_path(indexed_env):
    service = QueryService(indexed_env, indexes=True)
    plan = service.explain(
        'SELECT key FROM "metrics" WHERE value = 7'
    )
    assert "access path [metrics]: index probe on 'value'" in plan
    ranged = service.explain(
        'SELECT key FROM "metrics" WHERE label LIKE \'item-1%\''
    )
    assert "access path [metrics]: index range on 'label'" in ranged
    full = service.explain(
        'SELECT COUNT(*) AS n FROM "metrics" WHERE weight = 2'
    )
    assert "access path [metrics]: full scan" in full
    disabled = QueryService(indexed_env, indexes=False).explain(
        'SELECT key FROM "metrics" WHERE value = 7'
    )
    assert "full scan (indexes disabled)" in disabled


def test_cost_model_flag_controls_default(indexed_env):
    assert QueryService(indexed_env).index_enabled is True
    assert QueryService(indexed_env,
                        indexes=False).index_enabled is False
    frugal = Environment(
        ClusterConfig(nodes=2, processing_workers_per_node=1),
        costs=CostModel(index_enabled=False),
    )
    assert QueryService(frugal).index_enabled is False


# -- snapshot tables ---------------------------------------------------------


@pytest.fixture
def snapshot_env(env):
    backend = make_squery_backend(
        env, indexes=(IndexSpec("average", "total", "hash"),)
    )
    # Enough keys that a selective probe beats scanning a snapshot
    # instance (the per-partition probe cost is fixed).
    job = build_average_job(env, backend=backend, rate=2000, keys=200,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_250)
    return env


def test_declared_index_reaches_both_table_families(snapshot_env):
    live = snapshot_env.store.get_live_table("average")
    snap = snapshot_env.store.get_snapshot_table("snapshot_average")
    assert [d.column for d in live.index_defs()] == ["total"]
    assert [d.column for d in snap.index_defs()] == ["total"]
    ssid = snapshot_env.store.committed_ssid
    assert ssid is not None
    assert snap.index_ready(ssid)


def test_snapshot_index_scan_identical_and_cheaper(snapshot_env):
    probe_value = QueryService(snapshot_env).execute(
        'SELECT total FROM "snapshot_average" ORDER BY key LIMIT 1'
    ).result.rows[0]["total"]
    sql = (f'SELECT key, count, total FROM "snapshot_average" '
           f"WHERE total = {probe_value} ORDER BY key")
    on = QueryService(snapshot_env, indexes=True).execute(sql)
    off = QueryService(snapshot_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows
    assert on.result.rows  # the probed value exists
    assert on.counters["index_probes"] > 0
    assert on.entries_scanned <= off.entries_scanned


def test_live_mirror_index_survives_job_writes(snapshot_env):
    # The job mutated "average" continuously; incremental maintenance
    # must have kept the live index coherent throughout.
    live = snapshot_env.store.get_live_table("average")
    assert live.index_coherence_errors() == []
    sql = 'SELECT key FROM "average" WHERE count > 0 ORDER BY key'
    on = QueryService(snapshot_env, indexes=True).execute(sql)
    off = QueryService(snapshot_env, indexes=False).execute(sql)
    assert on.result.rows == off.result.rows


def test_explain_snapshot_without_commit_reports_fallback(env):
    backend = make_squery_backend(
        env, indexes=(IndexSpec("average", "total", "hash"),)
    )
    job = build_average_job(env, backend=backend, rate=500, keys=10,
                            checkpoint_interval_ms=10_000)
    job.start()
    env.run_until(200)  # before the first snapshot commits
    plan = QueryService(env, indexes=True).explain(
        'SELECT key FROM "snapshot_average" WHERE count = 1'
    )
    assert "full scan (no committed snapshot)" in plan
