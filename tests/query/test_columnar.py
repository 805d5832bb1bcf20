"""Tests for the vectorized columnar scan path in the query service.

Covers the ``vectorized=`` ablation gate, the new execution counters
and their report rollup, the zero-entry shard fast path (which must
neither bill a chunk nor occupy a store server), and scan-side error
shipping (errors surface on the handle with every lock released, on
both scan paths).
"""

import pytest

from repro.config import ClusterConfig, CostModel
from repro.env import Environment
from repro.errors import SqlExecutionError
from repro.observability import collect_report, format_report
from repro.query.service import QueryService
from repro.state.live import LiveStateTable

NODES = 3


def build_env(keys=120, costs=None):
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1),
        costs=costs,
    )
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    for key in range(keys):
        imap.put(key, {"v": key % 10, "g": key % 4,
                       "s": f"s-{key % 5}"})
    return env


def store_jobs_served(env) -> int:
    return sum(server.jobs_served
               for node in env.cluster.nodes
               for server in node.store_servers)


# -- the ablation gate -------------------------------------------------------


def test_gate_defaults_to_cost_model():
    env = build_env()
    assert QueryService(env).vectorized_enabled is True
    assert QueryService(env, vectorized=False).vectorized_enabled is False
    off_costs = CostModel(vectorized_enabled=False)
    env2 = build_env(costs=off_costs)
    assert QueryService(env2).vectorized_enabled is False
    assert QueryService(env2, vectorized=True).vectorized_enabled is True


def test_explain_names_the_scan_mode():
    env = build_env()
    on = QueryService(env, vectorized=True)
    off = QueryService(env, vectorized=False)
    sql = 'SELECT v FROM "data" WHERE v < 3'
    assert "vectorized" in on.explain(sql)
    assert "interpreted" in off.explain(sql)


# -- counters and report rollup ----------------------------------------------


def test_vectorized_execution_counts_batches_and_compiles():
    env = build_env()
    service = QueryService(env, vectorized=True)
    execution = service.execute(
        'SELECT g, COUNT(*) AS c FROM "data" WHERE v < 8 GROUP BY g'
    )
    assert execution.error is None
    counters = execution.counters
    assert counters["batches_evaluated"] > 0
    assert counters["predicates_compiled"] + counters["compile_cache_hits"] > 0
    assert execution.scan_ms_billed > 0
    assert service.counters["batches_evaluated"] \
        == counters["batches_evaluated"]


def test_interpreted_execution_never_touches_the_compiled_path():
    env = build_env()
    service = QueryService(env, vectorized=False)
    execution = service.execute('SELECT v FROM "data" WHERE v < 3')
    assert execution.error is None
    assert execution.counters["batches_evaluated"] == 0
    assert execution.counters["predicates_compiled"] == 0
    assert execution.counters["compile_cache_hits"] == 0
    assert execution.scan_ms_billed > 0  # interpreted scans still bill


def test_report_rolls_up_columnar_counters():
    env = build_env()
    service = QueryService(env, vectorized=True)
    service.execute('SELECT COUNT(*) AS c FROM "data" WHERE v < 9')
    report = collect_report(env)
    assert report.batches_evaluated \
        >= service.counters["batches_evaluated"] > 0
    assert "columnar:" in format_report(report)


def test_vectorized_scan_bills_less_than_interpreted():
    results = {}
    for vectorized in (True, False):
        env = build_env(keys=400)
        service = QueryService(env, vectorized=vectorized)
        execution = service.execute(
            'SELECT COUNT(*) AS c FROM "data" WHERE v < 9'
        )
        results[vectorized] = execution
    on, off = results[True], results[False]
    assert on.result.rows == off.result.rows
    assert off.scan_ms_billed >= on.scan_ms_billed * 2.0
    assert on.latency_ms < off.latency_ms


# -- zero-entry shards (regression) ------------------------------------------


def test_empty_table_bills_nothing_and_submits_no_store_jobs():
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1)
    )
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    service = QueryService(env)
    before = store_jobs_served(env)
    execution = service.execute('SELECT v FROM "data" WHERE v < 3')
    assert execution.error is None
    assert execution.result.rows == []
    # A shard with zero entries must neither bill a chunk nor occupy a
    # store server (it used to submit a full-chunk job regardless).
    assert execution.entries_billed == 0
    assert execution.scan_ms_billed == 0
    assert execution.counters["batches_evaluated"] == 0
    assert store_jobs_served(env) == before


def test_contradictory_key_filter_bills_nothing():
    env = build_env()
    service = QueryService(env)
    before = store_jobs_served(env)
    execution = service.execute(
        'SELECT v FROM "data" WHERE key = 1 AND key = 2'
    )
    assert execution.error is None
    assert execution.result.rows == []
    assert execution.entries_billed == 0
    assert store_jobs_served(env) == before


def test_key_range_bills_identically_across_scan_paths():
    # The billed-entry count is a pure function of shard candidate
    # selection — identical whichever scan path executes the rest.
    billed = {}
    for vectorized in (True, False):
        env = build_env()
        service = QueryService(env, vectorized=vectorized)
        execution = service.execute(
            'SELECT v FROM "data" WHERE key BETWEEN 0 AND 3 '
            "ORDER BY key"
        )
        assert execution.error is None
        assert [row["v"] for row in execution.result.rows] == [0, 1, 2, 3]
        billed[vectorized] = execution.entries_billed
    assert billed[True] == billed[False]
    assert billed[True] > 0


# -- scan-side errors --------------------------------------------------------


@pytest.mark.parametrize("vectorized", [True, False])
def test_pushed_predicate_error_surfaces_and_releases_locks(vectorized):
    env = build_env()
    env.store.get_map("data").put(999, {"v": "poison", "g": 0,
                                        "s": "s-0"})
    service = QueryService(env, vectorized=vectorized)
    execution = service.submit('SELECT v FROM "data" WHERE v < 3')
    env.run_for(5_000)
    assert execution.done
    assert isinstance(execution.error, SqlExecutionError)
    assert "cannot compare" in str(execution.error)
    assert env.store.locks.held_count == 0


def error_of(env, sql, **service_kwargs):
    service = QueryService(env, **service_kwargs)
    with pytest.raises(SqlExecutionError) as excinfo:
        service.execute(sql)
    return str(excinfo.value)


def test_error_message_identical_across_scan_paths_and_central():
    envs = {v: build_env() for v in (True, False)}
    for env in envs.values():
        env.store.get_map("data").put(999, {"v": "poison", "g": 0,
                                            "s": "s-0"})
    sql = 'SELECT v FROM "data" WHERE v < 3'
    on = error_of(envs[True], sql, vectorized=True)
    off = error_of(envs[False], sql, vectorized=False)
    central = error_of(envs[False], sql, pushdown=False)
    assert on == off == central
    assert "cannot compare" in on
