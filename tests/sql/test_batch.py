"""Tests for columnar batch execution (repro.sql.batch).

The batch path must agree with the central executor run over the same
rows (the row-at-a-time reference, called "interpreted" in the test
names): same survivors in the same order, same merged partial groups,
and the same first error when a pushed expression fails.
"""

import pytest

from repro.errors import SqlExecutionError
from repro.sql import EvalContext, parse
from repro.sql.batch import (
    BatchAccumulator,
    compile_fragment,
    fragment_cache_stats,
    run_fragment_batches,
)
from repro.sql.executor import execute_grouped_select, execute_select
from repro.sql.fragments import PartialGroups, merge_partial_groups, split_select
from repro.sql.planner import DictCatalog, ListTable

CTX = EvalContext(now_ms=0.0)

ROWS = [
    {"key": k, "partitionKey": k, "value": k % 5, "weight": k % 3,
     "tag": ("alpha", "beta", None)[k % 3], "pad": k * 10}
    for k in range(23)
]


def fragment_of(sql: str):
    plan = split_select(parse(sql))
    return plan, plan.fragment("t")


def central(sql, raws):
    """The central executor's result over ``raws`` as table ``t``."""
    catalog = DictCatalog({"t": ListTable("t", tuple(raws))})
    return execute_select(parse(sql), catalog, CTX)


def groups_as_rows(plan, payload):
    merged = merge_partial_groups([payload], plan.partial, "t")
    return execute_grouped_select(plan.final_select, merged, CTX).rows


@pytest.mark.parametrize("chunk", [1, 4, 7, 100])
def test_projection_fragment_matches_interpreted(chunk):
    sql = 'SELECT key, value FROM "t" WHERE value < 3 AND key > 2'
    plan, fragment = fragment_of(sql)
    compiled, _ = compile_fragment(fragment)
    lock_rows, payload, batches = run_fragment_batches(
        compiled, ROWS, CTX, chunk
    )
    expected = central(sql, ROWS).rows
    assert [row["key"] for row in lock_rows] == \
        [row["key"] for row in expected]
    assert [{k: row[k] for k in ("key", "value")} for row in payload] \
        == expected
    assert batches == (len(ROWS) + chunk - 1) // chunk


@pytest.mark.parametrize("chunk", [1, 6, 100])
def test_partial_aggregate_fragment_matches_interpreted(chunk):
    sql = ('SELECT weight, SUM(value) AS s, COUNT(*) AS c, '
           'MIN(value) AS lo FROM "t" WHERE value <> 1 '
           "GROUP BY weight ORDER BY weight")
    plan, fragment = fragment_of(sql)
    compiled, _ = compile_fragment(fragment)
    lock_rows, payload, _ = run_fragment_batches(
        compiled, ROWS, CTX, chunk
    )
    survivors = [raw for raw in ROWS if raw["value"] != 1]
    assert lock_rows == survivors
    assert isinstance(payload, PartialGroups)
    # Groups appear in first-seen row order...
    assert [key for key, _, _ in payload.entries] == \
        list(dict.fromkeys((raw["weight"],) for raw in survivors))
    # ...and the merged final result is the central one.
    assert groups_as_rows(plan, payload) == central(sql, ROWS).rows


def test_null_heavy_group_keys_match():
    sql = ('SELECT tag, COUNT(*) AS c FROM "t" GROUP BY tag '
           "ORDER BY c")
    plan, fragment = fragment_of(sql)
    compiled, _ = compile_fragment(fragment)
    _, payload, _ = run_fragment_batches(compiled, ROWS, CTX, 5)
    assert [entry[0] for entry in payload.entries] == \
        [("alpha",), ("beta",), (None,)]
    assert groups_as_rows(plan, payload) == central(sql, ROWS).rows


def error_rows():
    rows = [dict(raw) for raw in ROWS]
    rows[9]["value"] = "boom"   # first error in row-major order
    rows[15]["value"] = object()  # later error must not win
    return rows


@pytest.mark.parametrize("chunk", [1, 4, 100])
def test_first_error_matches_interpreted_sweep(chunk):
    sql = 'SELECT key FROM "t" WHERE value < 3'
    _, fragment = fragment_of(sql)
    compiled, _ = compile_fragment(fragment)
    rows = error_rows()
    with pytest.raises(SqlExecutionError) as interpreted_error:
        central(sql, rows)
    with pytest.raises(SqlExecutionError) as batch_error:
        run_fragment_batches(compiled, rows, CTX, chunk)
    assert str(batch_error.value) == str(interpreted_error.value)
    assert "cannot compare str with int" in str(batch_error.value)


def test_error_in_aggregate_feed_matches_interpreted():
    sql = 'SELECT weight, SUM(value) AS s FROM "t" GROUP BY weight'
    _, fragment = fragment_of(sql)
    compiled, _ = compile_fragment(fragment)
    rows = [dict(raw) for raw in ROWS]
    del rows[7]["value"]  # unknown column mid-chunk
    with pytest.raises(SqlExecutionError) as interpreted_error:
        central(sql, rows)
    with pytest.raises(SqlExecutionError) as batch_error:
        run_fragment_batches(compiled, rows, CTX, 10)
    assert str(batch_error.value) == str(interpreted_error.value)


def test_eliminated_rows_never_error():
    # A row killed by an earlier conjunct must not surface errors from
    # later conjuncts — conjunct-major order preserves the row-at-a-time
    # early exit exactly.
    sql = 'SELECT key FROM "t" WHERE value < 2 AND pad / value > 0'
    _, fragment = fragment_of(sql)
    compiled, _ = compile_fragment(fragment)
    rows = [
        {"key": 0, "partitionKey": 0, "value": 0, "pad": 10},  # v<2, /0!
        {"key": 1, "partitionKey": 1, "value": 9, "pad": 10},  # killed
        {"key": 2, "partitionKey": 2, "value": 1, "pad": 10},
    ]
    with pytest.raises(SqlExecutionError) as interpreted_error:
        central(sql, rows)
    with pytest.raises(SqlExecutionError) as batch_error:
        run_fragment_batches(compiled, rows, CTX, 10)
    assert str(batch_error.value) == str(interpreted_error.value)
    assert "division by zero" in str(batch_error.value)


def test_fragment_cache_hits_on_identical_shape():
    _, fragment = fragment_of('SELECT key FROM "t" WHERE value < 4')
    _, plan_fragment = fragment_of('SELECT key FROM "t" WHERE value < 4')
    first, first_hit = compile_fragment(fragment)
    again, again_hit = compile_fragment(plan_fragment)
    assert again is first  # frozen fragments hash by value
    assert again_hit is True
    hits, misses = fragment_cache_stats()
    assert hits >= 1 and misses >= 1


def test_batch_accumulator_survivor_order_is_row_order():
    _, fragment = fragment_of('SELECT key FROM "t" WHERE value >= 0')
    compiled, _ = compile_fragment(fragment)
    acc = BatchAccumulator(compiled, CTX)
    survivors = acc.add_batch(list(reversed(ROWS)))
    assert [row["key"] for row in survivors] == \
        [raw["key"] for raw in reversed(ROWS)]
    assert acc.survived == len(ROWS)
