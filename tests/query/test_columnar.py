"""Tests for the columnar scan path in the query service.

Covers scan billing and the execution counters with their report
rollup, the zero-entry shard fast path (which must neither bill a chunk
nor occupy a store server), and scan-side error shipping (errors surface
on the handle with every lock released, with pushdown on and off, and
verbatim-identical to the central executor).
"""

import pytest

from repro.config import ClusterConfig, CostModel
from repro.env import Environment
from repro.errors import SqlExecutionError
from repro.observability import collect_report, format_report
from repro.query.service import QueryService
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable

NODES = 3


def build_env(keys=120):
    env = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1),
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


# -- the scan-path gate ------------------------------------------------------


def test_gate_defaults_to_cost_model():
    # pushdown is the one gate left on the scan path: off ships every
    # raw row to the entry node (the reference path).
    env = build_env()
    assert QueryService(env).pushdown_enabled is True
    assert QueryService(env, pushdown=False).pushdown_enabled is False
    env2 = Environment(
        ClusterConfig(nodes=NODES, processing_workers_per_node=1),
        costs=CostModel(pushdown_enabled=False),
    )
    assert QueryService(env2).pushdown_enabled is False
    assert QueryService(env2, pushdown=True).pushdown_enabled is True


# -- explain -----------------------------------------------------------------


def test_explain_names_the_scan_mode():
    env = build_env()
    sql = 'SELECT v FROM "data" WHERE v < 3'
    pushed = QueryService(env).explain(sql)
    assert "pushed filter: (v < 3)" in pushed
    assert "access path [data]: full scan" in pushed
    assert "ship all rows" in QueryService(env, pushdown=False).explain(sql)


# -- counters and report rollup ----------------------------------------------


def test_vectorized_execution_counts_batches_and_compiles():
    env = build_env()
    service = QueryService(env)
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


def test_report_rolls_up_columnar_counters():
    env = build_env()
    service = QueryService(env)
    service.execute('SELECT COUNT(*) AS c FROM "data" WHERE v < 9')
    report = collect_report(env)
    assert report.batches_evaluated \
        >= service.counters["batches_evaluated"] > 0
    assert "columnar:" in format_report(report)


def test_vectorized_scan_bills_less_than_interpreted():
    # The per-row interpreted scan this path replaced billed every entry
    # at scan_entry_ms plus the pushed-filter and partial-aggregate
    # surcharges — the rates the access-path chooser still prices.
    env = build_env(keys=400)
    sql = 'SELECT COUNT(*) AS c FROM "data" WHERE v < 9'
    execution = QueryService(env).execute(sql)
    reference = QueryService(env, pushdown=False).execute(sql)
    assert execution.result.rows == reference.result.rows == [{"c": 360}]
    costs = env.costs
    interpreted_ms = execution.entries_billed * (
        costs.scan_entry_ms + costs.pushed_filter_entry_ms
        + costs.partial_agg_entry_ms
    )
    assert interpreted_ms >= execution.scan_ms_billed * 2.0


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
    # selection — identical with pushdown on and off.
    billed = {}
    for pushdown in (True, False):
        env = build_env()
        service = QueryService(env, pushdown=pushdown)
        execution = service.execute(
            'SELECT v FROM "data" WHERE key BETWEEN 0 AND 3 '
            "ORDER BY key"
        )
        assert execution.error is None
        assert [row["v"] for row in execution.result.rows] == [0, 1, 2, 3]
        billed[pushdown] = execution.entries_billed
    assert billed[True] == billed[False]
    assert billed[True] > 0


# -- scan-side errors --------------------------------------------------------


@pytest.mark.parametrize("pushdown", [True, False])
def test_pushed_predicate_error_surfaces_and_releases_locks(pushdown):
    env = build_env()
    env.store.get_map("data").put(999, {"v": "poison", "g": 0,
                                        "s": "s-0"})
    service = QueryService(env, pushdown=pushdown)
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
    env = build_env()
    env.store.get_map("data").put(999, {"v": "poison", "g": 0,
                                        "s": "s-0"})
    sql = 'SELECT v FROM "data" WHERE v < 3'
    on = error_of(env, sql)
    off = error_of(env, sql, pushdown=False)
    rows = tuple(env.store.get_live_table("data").rows())
    catalog = DictCatalog({"data": ListTable("data", rows)})
    with pytest.raises(SqlExecutionError) as excinfo:
        execute_select(parse(sql), catalog, EvalContext())
    assert on == off == str(excinfo.value)
    assert "cannot compare" in on
