"""Tests for SQL execution over dict rows."""

import pytest

from repro.errors import SqlExecutionError, SqlPlanError
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable


def catalog(**tables):
    return DictCatalog({
        name: ListTable(name, tuple(rows))
        for name, rows in tables.items()
    })


def run(sql, cat, now_ms=0.0):
    return execute_select(parse(sql), cat, EvalContext(now_ms=now_ms))


PEOPLE = [
    {"id": 1, "name": "ada", "age": 36, "city": "delft"},
    {"id": 2, "name": "bob", "age": 20, "city": "delft"},
    {"id": 3, "name": "cyd", "age": 52, "city": "berlin"},
    {"id": 4, "name": "dan", "age": None, "city": "berlin"},
]

ORDERS = [
    {"id": 10, "person": 1, "total": 5.0},
    {"id": 11, "person": 1, "total": 7.5},
    {"id": 12, "person": 3, "total": 1.0},
    {"id": 13, "person": 9, "total": 2.0},  # dangling person
]


def test_select_star_returns_all_columns():
    result = run("SELECT * FROM people", catalog(people=PEOPLE))
    assert result.columns == ["id", "name", "age", "city"]
    assert len(result) == 4


def test_projection_and_alias():
    result = run("SELECT name, age * 2 AS dbl FROM people",
                 catalog(people=PEOPLE))
    assert result.columns == ["name", "dbl"]
    assert result.rows[0] == {"name": "ada", "dbl": 72}


def test_where_filters():
    result = run("SELECT name FROM people WHERE age > 30",
                 catalog(people=PEOPLE))
    assert result.column("name") == ["ada", "cyd"]


def test_where_null_excluded():
    result = run("SELECT name FROM people WHERE age < 100",
                 catalog(people=PEOPLE))
    assert "dan" not in result.column("name")


def test_comparison_operators():
    cat = catalog(people=PEOPLE)
    assert len(run("SELECT id FROM people WHERE age = 20", cat)) == 1
    assert len(run("SELECT id FROM people WHERE age <> 20", cat)) == 2
    assert len(run("SELECT id FROM people WHERE age >= 36", cat)) == 2
    assert len(run("SELECT id FROM people WHERE age <= 36", cat)) == 2


def test_and_or_not():
    cat = catalog(people=PEOPLE)
    result = run(
        "SELECT name FROM people WHERE city = 'delft' AND age > 30", cat
    )
    assert result.column("name") == ["ada"]
    result = run(
        "SELECT name FROM people WHERE NOT city = 'delft'", cat
    )
    assert result.column("name") == ["cyd", "dan"]


def test_in_and_between():
    cat = catalog(people=PEOPLE)
    assert run("SELECT name FROM people WHERE id IN (1, 3)",
               cat).column("name") == ["ada", "cyd"]
    assert run("SELECT name FROM people WHERE age BETWEEN 20 AND 40",
               cat).column("name") == ["ada", "bob"]


def test_like():
    cat = catalog(people=PEOPLE)
    assert run("SELECT name FROM people WHERE name LIKE '%a%'",
               cat).column("name") == ["ada", "dan"]
    assert run("SELECT name FROM people WHERE name LIKE '_o_'",
               cat).column("name") == ["bob"]


def test_is_null():
    cat = catalog(people=PEOPLE)
    assert run("SELECT name FROM people WHERE age IS NULL",
               cat).column("name") == ["dan"]
    assert len(run("SELECT name FROM people WHERE age IS NOT NULL",
                   cat)) == 3


def test_arithmetic_and_division_by_zero():
    cat = catalog(t=[{"a": 10, "b": 3}])
    result = run("SELECT a + b, a - b, a * b, a / b, a % b FROM t", cat)
    assert result.tuples() == [(13, 7, 30, pytest.approx(10 / 3), 1)]
    with pytest.raises(SqlExecutionError):
        run("SELECT a / 0 FROM t", cat)


def test_unknown_column_raises():
    with pytest.raises(SqlExecutionError):
        run("SELECT nope FROM people", catalog(people=PEOPLE))


def test_unknown_table_raises():
    with pytest.raises(SqlPlanError):
        run("SELECT a FROM missing", catalog(people=PEOPLE))


# -- joins -------------------------------------------------------------------


def test_inner_join_using():
    cat = catalog(
        a=[{"k": 1, "x": "a1"}, {"k": 2, "x": "a2"}],
        b=[{"k": 1, "y": "b1"}, {"k": 3, "y": "b3"}],
    )
    result = run("SELECT k, x, y FROM a JOIN b USING(k)", cat)
    assert result.tuples() == [(1, "a1", "b1")]


def test_join_on_equality_uses_hash_join():
    cat = catalog(people=PEOPLE, orders=ORDERS)
    result = run(
        "SELECT name, total FROM people p JOIN orders o "
        "ON p.id = o.person ORDER BY total",
        cat,
    )
    assert result.tuples() == [
        ("cyd", 1.0), ("ada", 5.0), ("ada", 7.5),
    ]


def test_left_join_null_extends():
    cat = catalog(
        a=[{"k": 1}, {"k": 2}],
        b=[{"k": 1, "y": "hit"}],
    )
    result = run("SELECT k, y FROM a LEFT JOIN b USING(k) ORDER BY k", cat)
    assert result.tuples() == [(1, "hit"), (2, None)]


def test_nested_loop_join_inequality():
    cat = catalog(
        a=[{"v": 1}, {"v": 5}],
        b=[{"w": 3}],
    )
    result = run("SELECT v, w FROM a JOIN b ON a.v < b.w", cat)
    assert result.tuples() == [(1, 3)]


def test_three_way_join():
    cat = catalog(
        a=[{"k": 1, "x": 1}],
        b=[{"k": 1, "y": 2}],
        c=[{"k": 1, "z": 3}],
    )
    result = run("SELECT x, y, z FROM a JOIN b USING(k) JOIN c USING(k)",
                 cat)
    assert result.tuples() == [(1, 2, 3)]


def test_duplicate_binding_rejected():
    cat = catalog(a=[{"k": 1}])
    with pytest.raises(SqlPlanError):
        run("SELECT k FROM a JOIN a USING(k)", cat)


def test_self_join_with_alias():
    cat = catalog(a=[{"k": 1, "v": 2}, {"k": 2, "v": 1}])
    result = run(
        "SELECT x.k FROM a x JOIN a y ON x.v = y.k ORDER BY x.k", cat
    )
    assert result.column("k") == [1, 2]


# -- aggregation ----------------------------------------------------------------


def test_count_star_and_column():
    cat = catalog(people=PEOPLE)
    result = run("SELECT COUNT(*), COUNT(age) FROM people", cat)
    assert result.tuples() == [(4, 3)]  # COUNT(col) skips NULL


def test_sum_avg_min_max():
    cat = catalog(people=PEOPLE)
    result = run("SELECT SUM(age), AVG(age), MIN(age), MAX(age) "
                 "FROM people", cat)
    assert result.tuples() == [(108, 36.0, 20, 52)]


def test_group_by():
    cat = catalog(people=PEOPLE)
    result = run(
        "SELECT city, COUNT(*) AS n FROM people GROUP BY city "
        "ORDER BY city",
        cat,
    )
    assert result.tuples() == [("berlin", 2), ("delft", 2)]


def test_group_by_having():
    cat = catalog(orders=ORDERS)
    result = run(
        "SELECT person, SUM(total) AS t FROM orders GROUP BY person "
        "HAVING SUM(total) > 2 ORDER BY t DESC",
        cat,
    )
    assert result.tuples() == [(1, 12.5)]


def test_aggregate_empty_input_no_group_by():
    cat = catalog(t=[])
    result = run("SELECT COUNT(*), SUM(x), MIN(x) FROM t", cat)
    assert result.tuples() == [(0, None, None)]


def test_aggregate_empty_input_with_group_by():
    cat = catalog(t=[])
    result = run("SELECT x, COUNT(*) FROM t GROUP BY x", cat)
    assert result.tuples() == []


def test_count_distinct():
    cat = catalog(people=PEOPLE)
    result = run("SELECT COUNT(DISTINCT city) FROM people", cat)
    assert result.tuples() == [(2,)]


def test_aggregate_of_expression():
    cat = catalog(t=[{"a": 1}, {"a": 2}])
    result = run("SELECT SUM(a * 10) FROM t", cat)
    assert result.tuples() == [(30,)]


def test_star_with_aggregation_rejected():
    with pytest.raises(SqlPlanError):
        run("SELECT * FROM people GROUP BY city", catalog(people=PEOPLE))


def test_having_without_aggregate_rejected():
    with pytest.raises(SqlPlanError):
        run("SELECT name FROM people HAVING age > 1",
            catalog(people=PEOPLE))


# -- ordering, distinct, limit -------------------------------------------------


def test_order_by_asc_desc():
    cat = catalog(people=PEOPLE)
    result = run("SELECT name FROM people WHERE age IS NOT NULL "
                 "ORDER BY age DESC", cat)
    assert result.column("name") == ["cyd", "ada", "bob"]


def test_order_by_nulls_last():
    cat = catalog(people=PEOPLE)
    result = run("SELECT name FROM people ORDER BY age", cat)
    assert result.column("name") == ["bob", "ada", "cyd", "dan"]
    result = run("SELECT name FROM people ORDER BY age DESC", cat)
    assert result.column("name") == ["cyd", "ada", "bob", "dan"]


def test_order_by_alias():
    cat = catalog(t=[{"a": 1}, {"a": 3}, {"a": 2}])
    result = run("SELECT a * 10 AS tens FROM t ORDER BY tens DESC", cat)
    assert result.column("tens") == [30, 20, 10]


def test_order_by_aggregate():
    cat = catalog(orders=ORDERS)
    result = run(
        "SELECT person FROM orders GROUP BY person ORDER BY SUM(total)",
        cat,
    )
    assert result.column("person") == [3, 9, 1]


def test_limit_offset():
    cat = catalog(t=[{"a": i} for i in range(10)])
    result = run("SELECT a FROM t ORDER BY a LIMIT 3 OFFSET 4", cat)
    assert result.column("a") == [4, 5, 6]


def test_distinct_rows():
    cat = catalog(t=[{"a": 1}, {"a": 1}, {"a": 2}])
    result = run("SELECT DISTINCT a FROM t ORDER BY a", cat)
    assert result.column("a") == [1, 2]


# -- misc ----------------------------------------------------------------


def test_localtimestamp_uses_context():
    cat = catalog(t=[{"deadline": 100.0}, {"deadline": 900.0}])
    result = run("SELECT deadline FROM t WHERE deadline < LOCALTIMESTAMP",
                 cat, now_ms=500.0)
    assert result.column("deadline") == [100.0]


def test_case_when():
    cat = catalog(t=[{"a": 1}, {"a": 5}])
    result = run(
        "SELECT CASE WHEN a > 3 THEN 'big' ELSE 'small' END AS size "
        "FROM t",
        cat,
    )
    assert result.column("size") == ["small", "big"]


def test_scalar_functions():
    cat = catalog(t=[{"s": "MiXeD", "x": -2.7}])
    result = run(
        "SELECT UPPER(s), LOWER(s), LENGTH(s), ABS(x), ROUND(x), "
        "COALESCE(NULL, s) FROM t",
        cat,
    )
    assert result.tuples() == [("MIXED", "mixed", 5, 2.7, -3, "MiXeD")]


def test_derived_column_names():
    cat = catalog(t=[{"a": 1}])
    result = run("SELECT COUNT(*), a FROM t GROUP BY a", cat)
    assert result.columns == ["COUNT(*)", "a"]


def test_scanned_counts_all_inputs():
    cat = catalog(
        a=[{"k": i} for i in range(5)],
        b=[{"k": i} for i in range(7)],
    )
    result = run("SELECT COUNT(*) FROM a JOIN b USING(k)", cat)
    assert result.scanned == 12


# -- UNION ---------------------------------------------------------------


def test_union_all_concatenates():
    cat = catalog(a=[{"x": 1}], b=[{"x": 1}, {"x": 2}])
    result = run("SELECT x FROM a UNION ALL SELECT x FROM b", cat)
    assert sorted(result.column("x")) == [1, 1, 2]


def test_union_deduplicates():
    cat = catalog(a=[{"x": 1}], b=[{"x": 1}, {"x": 2}])
    result = run("SELECT x FROM a UNION SELECT x FROM b", cat)
    assert sorted(result.column("x")) == [1, 2]


def test_union_uses_first_branch_column_names():
    cat = catalog(a=[{"x": 1}], b=[{"y": 9}])
    result = run("SELECT x AS v FROM a UNION ALL SELECT y FROM b", cat)
    assert result.columns == ["v"]
    assert sorted(result.column("v")) == [1, 9]


def test_union_width_mismatch_rejected():
    cat = catalog(a=[{"x": 1}], b=[{"x": 1, "y": 2}])
    with pytest.raises(SqlExecutionError):
        run("SELECT x FROM a UNION ALL SELECT x, y FROM b", cat)


def test_union_of_aggregates():
    cat = catalog(a=[{"x": 1}, {"x": 2}], b=[{"x": 10}])
    result = run(
        "SELECT 'a' AS src, COUNT(*) AS n FROM a "
        "UNION ALL SELECT 'b', COUNT(*) FROM b",
        cat,
    )
    assert sorted(result.tuples()) == [("a", 2), ("b", 1)]


def test_union_three_branches():
    cat = catalog(a=[{"x": 1}], b=[{"x": 2}], c=[{"x": 3}])
    result = run(
        "SELECT x FROM a UNION ALL SELECT x FROM b "
        "UNION ALL SELECT x FROM c",
        cat,
    )
    assert sorted(result.column("x")) == [1, 2, 3]


def test_union_limit_applies_to_whole_union():
    cat = catalog(t=[{"b": 3}, {"b": 1}], u=[{"c": 5}, {"c": 2}])
    result = run("SELECT b FROM t UNION ALL SELECT c FROM u LIMIT 1", cat)
    assert result.tuples() == [(3,)]


def test_union_order_by_resolves_output_columns():
    cat = catalog(t=[{"b": 3}, {"b": 1}], u=[{"c": 5}, {"c": 1}])
    result = run("SELECT b FROM t UNION SELECT c FROM u ORDER BY b", cat)
    assert result.column("b") == [1, 3, 5]
    result = run(
        "SELECT b FROM t UNION ALL SELECT c FROM u "
        "ORDER BY b DESC LIMIT 2 OFFSET 1",
        cat,
    )
    assert result.column("b") == [3, 1]
    with pytest.raises(SqlExecutionError, match="unknown column 'c'"):
        run("SELECT b FROM t UNION SELECT c FROM u ORDER BY c", cat)


@pytest.mark.parametrize("tail", ["ORDER BY b", "LIMIT 1", "OFFSET 1"])
def test_union_tail_on_inner_branch_rejected(tail):
    from repro.errors import SqlParseError

    with pytest.raises(SqlParseError,
                       match="must follow the last UNION branch"):
        parse(f"SELECT b FROM t {tail} UNION SELECT c FROM u")


def test_mixed_union_kinds_rejected():
    from repro.errors import SqlParseError

    cat = catalog(a=[{"x": 1}], b=[{"x": 2}], c=[{"x": 3}])
    with pytest.raises(SqlParseError):
        run("SELECT x FROM a UNION SELECT x FROM b "
            "UNION ALL SELECT x FROM c", cat)
