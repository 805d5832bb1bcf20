"""Tests for the SQL query service."""

import pytest

from repro.errors import (
    NoCommittedSnapshotError,
    QueryError,
    SnapshotNotFoundError,
)
from repro.query import QueryService
from repro.state import IsolationLevel

from ..conftest import build_average_job, make_squery_backend


@pytest.fixture
def running_job(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000, keys=20,
                            checkpoint_interval_ms=500)
    job.start()
    env.run_until(2_250)  # several checkpoints committed
    return job, backend


def test_live_query_counts_current_state(env, running_job):
    job, _ = running_job
    service = QueryService(env)
    result = service.execute('SELECT COUNT(*) AS n FROM "average"')
    assert result.result.rows[0]["n"] == 20
    assert result.isolation is IsolationLevel.READ_UNCOMMITTED
    assert result.snapshot_id is None


def test_snapshot_query_uses_latest_committed(env, running_job):
    job, _ = running_job
    service = QueryService(env)
    execution = service.execute(
        'SELECT COUNT(*) AS n FROM "snapshot_average"'
    )
    assert execution.snapshot_id == env.store.committed_ssid
    assert execution.isolation is IsolationLevel.SERIALIZABLE
    assert execution.result.rows[0]["n"] == 20


def test_snapshot_query_with_explicit_id(env, running_job):
    service = QueryService(env)
    older = env.store.available_ssids()[0]
    execution = service.execute(
        'SELECT COUNT(*) FROM "snapshot_average"', snapshot_id=older
    )
    assert execution.snapshot_id == older


def test_ssid_filter_in_where_clause_selects_version(env, running_job):
    """The paper's Fig. 4 query style: WHERE ssid=N pins the version."""
    service = QueryService(env)
    older = env.store.available_ssids()[0]
    execution = service.execute(
        f'SELECT COUNT(*) AS n, MAX(ssid) AS s FROM "snapshot_average" '
        f"WHERE ssid={older}"
    )
    assert execution.snapshot_id == older
    assert execution.result.rows[0]["s"] == older


def test_unavailable_snapshot_id_fails(env, running_job):
    service = QueryService(env)
    execution = service.submit('SELECT COUNT(*) FROM "snapshot_average"',
                               snapshot_id=999)
    env.run_for(1_000)
    assert isinstance(execution.error, SnapshotNotFoundError)


def test_snapshot_query_before_first_checkpoint_fails(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend)
    job.start()
    env.run_until(100)  # nothing committed yet
    service = QueryService(env)
    execution = service.submit('SELECT COUNT(*) FROM "snapshot_average"')
    env.run_for(500)
    assert isinstance(execution.error, NoCommittedSnapshotError)


def test_unknown_table_rejected_at_submit(env, running_job):
    service = QueryService(env)
    with pytest.raises(QueryError):
        service.submit("SELECT * FROM nope")


def test_query_latency_positive_and_ordered(env, running_job):
    service = QueryService(env)
    execution = service.execute('SELECT COUNT(*) FROM "average"')
    assert execution.latency_ms > 0
    assert execution.completed_ms > execution.submitted_ms


def test_latency_unavailable_while_running(env, running_job):
    service = QueryService(env)
    execution = service.submit('SELECT COUNT(*) FROM "average"')
    with pytest.raises(QueryError):
        _ = execution.latency_ms


def test_join_live_with_snapshot(env, running_job):
    service = QueryService(env)
    execution = service.execute(
        'SELECT COUNT(*) AS n FROM "average" '
        'JOIN "snapshot_average" USING(partitionKey)'
    )
    assert execution.result.rows[0]["n"] == 20


def test_group_by_aggregation_over_state(env, running_job):
    service = QueryService(env)
    execution = service.execute(
        'SELECT partitionKey % 2 AS bucket, SUM(count) AS c '
        'FROM "average" GROUP BY partitionKey % 2 ORDER BY bucket'
    )
    assert len(execution.result) == 2


def test_snapshot_results_stable_while_live_moves(env, running_job):
    """Serialisable snapshot reads: the same snapshot id returns the
    same result even after more processing (Fig. 6)."""
    service = QueryService(env)
    ssid = env.store.committed_ssid
    first = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"', snapshot_id=ssid
    ).result.rows[0]["s"]
    env.run_for(400)  # more records processed, same snapshot targeted
    second = service.execute(
        'SELECT SUM(count) AS s FROM "snapshot_average"', snapshot_id=ssid
    ).result.rows[0]["s"]
    assert first == second


def test_live_results_advance_with_processing(env, running_job):
    service = QueryService(env)
    first = service.execute(
        'SELECT SUM(count) AS s FROM "average"'
    ).result.rows[0]["s"]
    env.run_for(500)
    second = service.execute(
        'SELECT SUM(count) AS s FROM "average"'
    ).result.rows[0]["s"]
    assert second > first


def test_materialize_false_models_costs_without_rows(env, running_job):
    # Pushdown off: load mode models the legacy ship-everything costs,
    # so the materialised run must match them exactly.  (With pushdown
    # on, COUNT(*) ships one partial group per node instead.)
    service = QueryService(env, pushdown=False)
    real = service.execute('SELECT COUNT(*) FROM "snapshot_average"')
    load = service.submit('SELECT COUNT(*) FROM "snapshot_average"',
                          materialize=False)
    env.run_for(1_000)
    assert load.done
    assert load.result is None
    assert load.error is None
    assert load.counters["query_rows_shipped"] \
        == real.counters["query_rows_shipped"]
    assert load.entries_scanned == real.entries_scanned


def test_queries_round_robin_entry_nodes(env, running_job):
    service = QueryService(env)
    before = [node.query_pool.jobs_served for node in env.cluster.nodes]
    for _ in range(6):
        service.execute('SELECT COUNT(*) FROM "average"')
    after = [node.query_pool.jobs_served for node in env.cluster.nodes]
    assert all(b > a for a, b in zip(before, after))


def test_sql_error_surfaces_on_handle(env, running_job):
    service = QueryService(env)
    execution = service.submit('SELECT nope FROM "average"')
    env.run_for(1_000)
    assert execution.done
    assert execution.error is not None


def test_repeatable_read_releases_locks_at_end(env, running_job):
    service = QueryService(env, repeatable_read=True)
    execution = service.execute('SELECT COUNT(*) FROM "average"')
    assert execution.isolation is IsolationLevel.REPEATABLE_READ
    assert not env.store.locks.is_locked(("average", 0))


def test_concurrent_queries_complete(env, running_job):
    service = QueryService(env)
    executions = [
        service.submit('SELECT COUNT(*) AS n FROM "snapshot_average"')
        for _ in range(10)
    ]
    env.run_for(2_000)
    assert all(e.done and e.error is None for e in executions)
    assert service.queries_executed >= 10


def test_all_versions_query_tags_rows_with_ssid(env, running_job):
    """Multi-version result sets (§VI-A): rows from every retained
    version, each carrying its snapshot id."""
    service = QueryService(env)
    execution = service.submit(
        'SELECT ssid, COUNT(*) AS n FROM "snapshot_average" '
        "GROUP BY ssid ORDER BY ssid",
        all_versions=True,
    )
    env.run_for(1_000)
    assert execution.error is None
    rows = execution.result.rows
    # Retention may rotate after the query; compare against the version
    # set the query resolved at execution time.
    assert execution.snapshot_versions is not None
    assert len(execution.snapshot_versions) == 2  # keep-2 retention
    assert [row["ssid"] for row in rows] == execution.snapshot_versions
    assert all(row["n"] == 20 for row in rows)


def test_all_versions_before_commit_fails(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend)
    job.start()
    env.run_until(50)
    service = QueryService(env)
    execution = service.submit(
        'SELECT COUNT(*) FROM "snapshot_average"', all_versions=True
    )
    env.run_for(500)
    assert isinstance(execution.error, NoCommittedSnapshotError)


def test_all_versions_scans_cost_more_than_single(env, running_job):
    service = QueryService(env)
    single = service.submit('SELECT COUNT(*) FROM "snapshot_average"',
                            materialize=False)
    multi = service.submit('SELECT COUNT(*) FROM "snapshot_average"',
                           materialize=False, all_versions=True)
    env.run_for(1_000)
    assert multi.entries_scanned > single.entries_scanned
    assert multi.counters["query_rows_shipped"] \
        > single.counters["query_rows_shipped"]


def test_all_versions_difference_between_snapshots(env, running_job):
    """The §III debugging use case: see how state mutates over time by
    comparing versions inside one query."""
    service = QueryService(env)
    execution = service.submit(
        'SELECT ssid, SUM(count) AS s FROM "snapshot_average" '
        "GROUP BY ssid ORDER BY ssid",
        all_versions=True,
    )
    env.run_for(1_000)
    sums = [row["s"] for row in execution.result.rows]
    assert sums == sorted(sums)
    assert sums[-1] > sums[0]


def test_union_of_live_and_snapshot_views(env, running_job):
    """UNION ALL combines the live and snapshot views of the same
    operator in a single statement, labelling each side."""
    service = QueryService(env)
    execution = service.execute(
        "SELECT 'live' AS src, SUM(count) AS s FROM \"average\" "
        "UNION ALL "
        "SELECT 'snapshot', SUM(count) FROM \"snapshot_average\""
    )
    rows = {row["src"]: row["s"] for row in execution.result.rows}
    assert set(rows) == {"live", "snapshot"}
    assert rows["live"] >= rows["snapshot"] > 0
    # A union touching snapshot tables is still serialisable overall.
    assert execution.snapshot_id == env.store.committed_ssid
    ordered = service.execute(
        "SELECT 'live' AS src, SUM(count) AS s FROM \"average\" "
        "UNION ALL "
        "SELECT 'snapshot', SUM(count) FROM \"snapshot_average\" "
        "ORDER BY src DESC LIMIT 1"
    )
    assert ordered.result.column("src") == ["snapshot"]


def test_repeatable_read_defers_stream_updates_mid_query(env, running_job):
    """End-to-end §VII repeatable read: while a query holds its key
    locks, the stream's mirror writes queue behind them and apply only
    after the query releases — observable as lock contention."""
    service = QueryService(env, repeatable_read=True)
    before = env.store.locks.contentions
    for _ in range(5):
        execution = service.execute('SELECT SUM(count) FROM "average"')
        assert execution.error is None
    after = env.store.locks.contentions
    assert after > before
    # Nothing stays locked once the queries finish...
    assert not any(
        env.store.locks.is_locked(("average", key)) for key in range(20)
    )
    # ...and the deferred updates did land: processing kept going.
    env.run_for(300)
    moving = service.execute('SELECT SUM(count) AS s FROM "average"')
    assert moving.result.rows[0]["s"] > 0


def test_point_lookup_pushdown_returns_correct_row(env, running_job):
    """Fig. 4's ``WHERE key = K`` pattern resolves as a point lookup
    with identical results to the scan path."""
    from repro.query.service import NO_POINT_KEY

    service = QueryService(env)
    point = service.execute(
        'SELECT count, total FROM "average" WHERE key = 3'
    )
    assert point.point_key == 3
    scan = service.execute(
        'SELECT count, total FROM "average" WHERE partitionKey % 100 = 3'
    )
    assert scan.point_key is NO_POINT_KEY
    # Counts advance between the two queries, so compare shape + key.
    assert len(point.result) == 1
    assert len(scan.result) == 1
    assert point.result.columns == scan.result.columns


def test_point_lookup_much_faster_than_scan(env, running_job):
    service = QueryService(env)
    point = service.execute(
        'SELECT count FROM "snapshot_average" WHERE partitionKey = 3'
    )
    scan = service.execute('SELECT count FROM "snapshot_average"')
    assert point.latency_ms < scan.latency_ms
    assert point.entries_scanned == 1
    assert scan.entries_scanned == 20


def test_point_lookup_snapshot_with_ssid_filter(env, running_job):
    """The paper's exact Fig. 4 query — ssid AND key pinned — is a
    single-key, single-version lookup."""
    service = QueryService(env)
    ssid = env.store.available_ssids()[0]
    execution = service.execute(
        f'SELECT count, total FROM "snapshot_average" '
        f"WHERE ssid={ssid} AND key=2"
    )
    assert execution.snapshot_id == ssid
    assert execution.point_key == 2
    assert len(execution.result) == 1
    assert execution.result.rows[0]["count"] > 0


def test_point_lookup_missing_key_empty_result(env, running_job):
    service = QueryService(env)
    execution = service.execute(
        'SELECT count FROM "average" WHERE key = 999999'
    )
    assert execution.result.rows == []


def test_point_lookup_respects_residual_predicates(env, running_job):
    service = QueryService(env)
    execution = service.execute(
        'SELECT count FROM "average" WHERE key = 3 AND count > 99999999'
    )
    assert execution.result.rows == []


def test_no_pushdown_for_joins(env, running_job):
    from repro.query.service import NO_POINT_KEY

    service = QueryService(env)
    execution = service.execute(
        'SELECT COUNT(*) FROM "average" '
        'JOIN "snapshot_average" USING(partitionKey) '
        "WHERE key = 3"
    )
    assert execution.point_key is NO_POINT_KEY
    assert execution.result.rows[0]["COUNT(*)"] == 1


def test_point_lookup_works_after_failure(env, running_job):
    env.cluster.kill_node(2)
    env.run_until(env.now + 1_500)
    service = QueryService(env)
    execution = service.execute(
        'SELECT count FROM "average" WHERE key = 3'
    )
    assert execution.error is None
    assert len(execution.result) == 1
