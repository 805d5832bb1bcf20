"""Differential tests against stdlib sqlite3 (see ``sqlite_oracle``).

A hypothesis grammar renders every generated single-table query in both
dialects at once; a fixed corpus adds joins and UNIONs.  Each query runs
three ways — the central executor, a 4-node ``QueryService`` with the
default gates, and ``QueryService(pushdown=False)`` — and every run must
match SQLite after the documented dialect rules are applied.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable

from .sqlite_oracle import (
    SqliteOracle,
    assert_matches,
    float_div,
    floor_mod,
    order_key,
    outcome,
    round_half_even,
)

STRINGS = ("ab", "Ab", "abc", "b_c", "a%", "", "x\nab", "bb", None)
PATTERNS = ("a%", "%c", "_b_", "ab", "%", None)


def table_t(rng: random.Random) -> dict:
    rows = {}
    for key in range(36):
        rows[key] = {
            "a": None if rng.random() < 0.2 else rng.randrange(-5, 8),
            "b": None if rng.random() < 0.2 else rng.randrange(0, 4),
            "x": (None if rng.random() < 0.2
                  else rng.randrange(-12, 13) / 4),
            "s": rng.choice(STRINGS),
            "u": rng.choice(PATTERNS),
        }
    return rows


def table_r(rng: random.Random) -> dict:
    return {
        key: {
            "b": None if rng.random() < 0.2 else rng.randrange(0, 5),
            "c": rng.choice(STRINGS),
            "d": rng.randrange(0, 10),
        }
        for key in range(12)
    }


class World:
    """The same tables in this repo's store and in SQLite."""

    def __init__(self, tables: dict[str, dict]) -> None:
        self.env = Environment(ClusterConfig(
            nodes=4, processing_workers_per_node=1,
        ))
        self.catalog = DictCatalog()
        self.oracle = SqliteOracle()
        for name, rows in tables.items():
            imap = self.env.store.create_map(name)
            table = LiveStateTable(imap)
            self.env.store.register_live_table(name, table)
            for key, row in rows.items():
                imap.put(key, row)
            live_rows = list(table.rows())
            self.catalog.add(ListTable(name, tuple(live_rows)))
            self.oracle.add_table(name, live_rows)
        self.default = QueryService(self.env)
        self.reference = QueryService(self.env, pushdown=False)

    def runs(self, sql: str) -> dict:
        """The three execution paths' envelopes for one statement."""
        return {
            "central": outcome(lambda: execute_select(
                parse(sql), self.catalog, EvalContext(now_ms=0.0))),
            "service": outcome(lambda: self.default.execute(sql).result),
            "pushdown=False": outcome(
                lambda: self.reference.execute(sql).result),
        }

    def check(self, ours: str, theirs: str, ordered: bool) -> None:
        expected = self.oracle.rows(theirs)
        for path, envelope in self.runs(ours).items():
            assert_matches(envelope, expected, ordered, (path, ours))


@pytest.fixture(scope="module")
def world_tables():
    rng = random.Random(13)
    return {"t": table_t(rng), "r": table_r(rng)}


# -- the grammar ---------------------------------------------------------------
#
# Every strategy yields ``(ours, theirs)`` SQL text pairs.  Expressions
# are typed (int, num, str, bool) so generated queries never order
# values of mixed types (dialect rule 6).


def same(text: str) -> tuple[str, str]:
    return text, text


def call(name: str, *args: tuple[str, str]) -> tuple[str, str]:
    return tuple(
        f"{name}({', '.join(arg[side] for arg in args)})" for side in (0, 1)
    )


def infix(left: tuple[str, str], op: str,
          right: tuple[str, str]) -> tuple[str, str]:
    return tuple(f"({left[side]} {op} {right[side]})" for side in (0, 1))


def case(condition, then, otherwise) -> tuple[str, str]:
    return tuple(
        f"(CASE WHEN {condition[side]} THEN {then[side]} "
        f"ELSE {otherwise[side]} END)" for side in (0, 1)
    )


INT_ATOMS = [same(c) for c in ("a", "b", "key")] + [
    same(v) for v in ("0", "1", "3", "(-2)")
]
NUM_ATOMS = [same("x")] + [same(v) for v in ("0.5", "2.5", "(-1.5)")]
STR_ATOMS = [same(c) for c in ("s", "u")] + [
    same(v) for v in ("'ab'", "'B'", "''", "'a_c'")
]
LIKE_PATTERNS = [same(v) for v in ("'a%'", "'%b%'", "'_b%'", "'A%'",
                                    "'%'", "'ab'")] + [same("u")]


@lru_cache(maxsize=None)
def ints(depth: int):
    atoms = st.sampled_from(INT_ATOMS)
    if depth == 0:
        return atoms
    sub = ints(depth - 1)
    return st.one_of(
        atoms,
        st.builds(infix, sub, st.sampled_from(("+", "-", "*")), sub),
        st.builds(
            lambda e, d: (f"({e[0]} % {d})", floor_mod(e[1], d)),
            sub, st.sampled_from(("3", "(-3)", "2")),
        ),
        sub.map(lambda e: (f"(-{e[0]})", f"(-{e[1]})")),
        sub.map(lambda e: call("ABS", e)),
        strs(depth - 1).map(lambda e: call("LENGTH", e)),
        st.builds(case, bools(depth - 1), sub, sub),
        st.builds(lambda p, q: call("COALESCE", p, q), sub, sub),
        st.builds(lambda p, q: call("NULLIF", p, q), sub, sub),
    )


@lru_cache(maxsize=None)
def nums(depth: int):
    atoms = st.one_of(st.sampled_from(NUM_ATOMS), ints(0))
    if depth == 0:
        return atoms
    sub = nums(depth - 1)
    return st.one_of(
        atoms,
        ints(depth),
        st.builds(infix, sub, st.sampled_from(("+", "-", "*")), sub),
        st.builds(
            lambda e, d: (f"({e[0]} / {d})", float_div(e[1], d)),
            sub, st.sampled_from(("2", "4", "(-2)", "0.5", "NULLIF(b, 0)")),
        ),
        sub.map(lambda e: (f"ROUND({e[0]})", round_half_even(e[1]))),
        sub.map(lambda e: call("ABS", e)),
        st.builds(case, bools(depth - 1), sub, sub),
        st.builds(lambda p, q: call("COALESCE", p, q), sub, sub),
    )


@lru_cache(maxsize=None)
def strs(depth: int):
    atoms = st.sampled_from(STR_ATOMS)
    if depth == 0:
        return atoms
    sub = strs(depth - 1)
    return st.one_of(
        atoms,
        sub.map(lambda e: call("UPPER", e)),
        sub.map(lambda e: call("LOWER", e)),
        st.builds(lambda p, q: call("COALESCE", p, q), sub, sub),
        st.builds(lambda p, q: call("NULLIF", p, q), sub, sub),
        st.builds(case, bools(depth - 1), sub, sub),
    )


def any_typed(depth: int):
    return st.one_of(nums(depth), strs(depth), bools(depth))


def in_list(operand, items):
    return st.builds(
        lambda e, chosen, negated: tuple(
            f"({e[side]} {'NOT ' if negated else ''}IN "
            f"({', '.join(item[side] for item in chosen)}))"
            for side in (0, 1)
        ),
        operand,
        st.lists(st.one_of(items, st.just(same("NULL"))),
                 min_size=1, max_size=3),
        st.booleans(),
    )


def between(operand, bound):
    return st.builds(
        lambda e, low, high, negated: tuple(
            f"({e[side]} {'NOT ' if negated else ''}BETWEEN "
            f"{low[side]} AND {high[side]})" for side in (0, 1)
        ),
        operand, bound, bound, st.booleans(),
    )


@lru_cache(maxsize=None)
def bools(depth: int):
    comparison = st.sampled_from(("=", "<>", "<", "<=", ">", ">="))
    sub_num = nums(max(depth - 1, 0))
    sub_str = strs(max(depth - 1, 0))
    atoms = st.one_of(
        st.sampled_from([same("TRUE"), same("FALSE")]),
        st.builds(infix, sub_num, comparison, sub_num),
        st.builds(infix, sub_str, comparison, sub_str),
        st.builds(
            lambda e, negated: tuple(
                f"({e[side]} IS {'NOT ' if negated else ''}NULL)"
                for side in (0, 1)
            ),
            st.one_of(sub_num, sub_str), st.booleans(),
        ),
        in_list(sub_num, nums(0)),
        in_list(sub_str, strs(0)),
        between(sub_num, nums(0)),
        between(sub_str, strs(0)),
        st.builds(
            lambda e, p, negated: tuple(
                f"({e[side]} {'NOT ' if negated else ''}LIKE {p[side]})"
                for side in (0, 1)
            ),
            sub_str, st.sampled_from(LIKE_PATTERNS), st.booleans(),
        ),
    )
    if depth == 0:
        return atoms
    sub = bools(depth - 1)
    return st.one_of(
        atoms,
        sub.map(lambda e: (f"(NOT {e[0]})", f"(NOT {e[1]})")),
        st.builds(infix, sub, st.sampled_from(("AND", "OR")), sub),
    )


def limit_clause(draw) -> tuple[str, str]:
    limit = draw(st.one_of(st.none(), st.integers(0, 8)))
    offset = draw(st.one_of(st.none(), st.integers(0, 5)))
    ours = theirs = ""
    if limit is not None:
        ours = theirs = f" LIMIT {limit}"
    if offset is not None:
        ours += f" OFFSET {offset}"
        theirs = f" LIMIT {-1 if limit is None else limit} OFFSET {offset}"
    return ours, theirs


@st.composite
def projection_queries(draw):
    """SELECT [DISTINCT] ... [WHERE] [ORDER BY ... [LIMIT/OFFSET]]."""
    items = draw(st.lists(any_typed(2), min_size=1, max_size=3))
    distinct = draw(st.booleans())
    where = draw(st.one_of(st.none(), bools(2)))
    ordered = draw(st.booleans())
    aliases = [f"c{index}" for index in range(len(items))]
    sql = ["", ""]
    for side in (0, 1):
        select = ", ".join(
            f"{item[side]} AS {alias}" for item, alias in zip(items, aliases)
        )
        sql[side] = (f"SELECT {'DISTINCT ' if distinct else ''}{select} "
                     f'FROM "t"')
        if where is not None:
            sql[side] += f" WHERE {where[side]}"
    if ordered:
        # A total order: every output column when DISTINCT, else some
        # columns then the unique key.
        if distinct:
            keys = aliases
        else:
            keys = draw(st.lists(st.sampled_from(aliases), max_size=2))
            keys = keys + ["key"]
        directions = [draw(st.booleans()) for _ in keys]
        tail = limit_clause(draw)
        sql[0] += " ORDER BY " + ", ".join(
            f"{key}{' DESC' if desc else ''}"
            for key, desc in zip(keys, directions)
        ) + tail[0]
        sql[1] += " ORDER BY " + ", ".join(
            order_key(key, desc) for key, desc in zip(keys, directions)
        ) + tail[1]
    return sql[0], sql[1], ordered


GROUP_KEYS = [same("b"), same("s"), same("u"),
              ("(a % 3)", floor_mod("a", "3"))]


def aggregate_calls(numeric: bool = False):
    """Aggregate calls over exact numbers (no division, so summation
    order cannot matter); MIN/MAX also over strings unless ``numeric``."""
    exact = st.one_of(ints(1), st.just(same("x")))
    ordered = exact if numeric else st.one_of(exact, strs(0))
    return st.one_of(
        st.just(same("COUNT(*)")),
        exact.map(lambda e: call("COUNT", e)),
        exact.map(lambda e: (f"COUNT(DISTINCT {e[0]})",
                             f"COUNT(DISTINCT {e[1]})")),
        exact.map(lambda e: call("SUM", e)),
        ints(0).map(lambda e: (f"SUM(DISTINCT {e[0]})",
                               f"SUM(DISTINCT {e[1]})")),
        exact.map(lambda e: call("AVG", e)),
        ordered.map(lambda e: call("MIN", e)),
        ordered.map(lambda e: call("MAX", e)),
    )


@st.composite
def aggregate_queries(draw):
    """SELECT keys, aggregates ... [WHERE] [GROUP BY] [HAVING]
    [ORDER BY ... [LIMIT/OFFSET]]."""
    keys = draw(st.lists(st.sampled_from(GROUP_KEYS), max_size=2,
                         unique=True))
    aggs = draw(st.lists(aggregate_calls(), min_size=1, max_size=3))
    where = draw(st.one_of(st.none(), bools(1)))
    having = draw(st.one_of(
        st.none(),
        st.builds(infix, aggregate_calls(numeric=True),
                  st.sampled_from(("<", ">=", "<>")),
                  st.sampled_from([same("1"), same("2.5"), same("(-3)")])),
    ))
    items = list(keys) + aggs
    aliases = [f"c{index}" for index in range(len(items))]
    ordered = bool(keys) and draw(st.booleans())
    sql = ["", ""]
    tail = limit_clause(draw) if ordered else ("", "")
    for side in (0, 1):
        select = ", ".join(
            f"{item[side]} AS {alias}" for item, alias in zip(items, aliases)
        )
        sql[side] = f'SELECT {select} FROM "t"'
        if where is not None:
            sql[side] += f" WHERE {where[side]}"
        if keys:
            sql[side] += " GROUP BY " + ", ".join(k[side] for k in keys)
        if having is not None:
            sql[side] += f" HAVING {having[side]}"
        if ordered:
            # Group keys are unique per group: a total order.
            key_aliases = aliases[:len(keys)]
            if side == 0:
                sql[side] += " ORDER BY " + ", ".join(key_aliases)
            else:
                sql[side] += " ORDER BY " + ", ".join(
                    order_key(alias, False) for alias in key_aliases
                )
            sql[side] += tail[side]
    return sql[0], sql[1], ordered


@pytest.mark.parametrize("grammar", [projection_queries, aggregate_queries])
def test_generated_queries_match_sqlite(world_tables, grammar):
    world = World(world_tables)

    @settings(max_examples=110, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(grammar())
    def check(query):
        ours, theirs, ordered = query
        world.check(ours, theirs, ordered)

    check()


# -- fixed corpus: joins and UNION ---------------------------------------------

CORPUS = [
    # (ours, theirs, ordered)
    ('SELECT t.key, r.c FROM "t" JOIN "r" ON t.b = r.b '
     "ORDER BY t.key, r.key",
     'SELECT t.key, r.c FROM "t" JOIN "r" ON t.b = r.b '
     "ORDER BY t.key, r.key", True),
    ('SELECT t.key, r.d FROM "t" LEFT JOIN "r" ON t.b = r.b '
     "ORDER BY t.key, r.d",
     'SELECT t.key, r.d FROM "t" LEFT JOIN "r" ON t.b = r.b '
     "ORDER BY t.key, r.d NULLS LAST", True),
    ('SELECT t.key, r.c FROM "t" JOIN "r" USING (b) WHERE r.d > 3',
     'SELECT t.key, r.c FROM "t" JOIN "r" USING (b) WHERE r.d > 3',
     False),
    # Output rows are keyed by column name, so same-named items must be
    # aliased apart (docs/API.md, dialect rules).
    ('SELECT t.key AS tk, r.key AS rk FROM "t" LEFT JOIN "r" USING (b)',
     'SELECT t.key AS tk, r.key AS rk FROM "t" LEFT JOIN "r" USING (b)',
     False),
    ('SELECT r.c, COUNT(*) AS n, SUM(t.a) AS s FROM "t" JOIN "r" '
     "ON t.b = r.b GROUP BY r.c ORDER BY r.c",
     'SELECT r.c, COUNT(*) AS n, SUM(t.a) AS s FROM "t" JOIN "r" '
     "ON t.b = r.b GROUP BY r.c ORDER BY r.c NULLS LAST", True),
    ('SELECT t.key FROM "t" JOIN "r" ON t.b = r.b AND t.a < r.d',
     'SELECT t.key FROM "t" JOIN "r" ON t.b = r.b AND t.a < r.d', False),
    ('SELECT b FROM "t" UNION SELECT b FROM "r"',
     'SELECT b FROM "t" UNION SELECT b FROM "r"', False),
    ('SELECT b FROM "t" UNION ALL SELECT b FROM "r"',
     'SELECT b FROM "t" UNION ALL SELECT b FROM "r"', False),
    ('SELECT b FROM "t" UNION SELECT d FROM "r" ORDER BY b LIMIT 4',
     'SELECT b FROM "t" UNION SELECT d FROM "r" '
     "ORDER BY b NULLS LAST LIMIT 4", True),
    ('SELECT key, s FROM "t" WHERE a > 2 UNION ALL '
     'SELECT key, c FROM "r" WHERE d < 4 ORDER BY key DESC, s '
     "LIMIT 5 OFFSET 2",
     'SELECT key, s FROM "t" WHERE a > 2 UNION ALL '
     'SELECT key, c FROM "r" WHERE d < 4 '
     "ORDER BY key DESC NULLS LAST, s NULLS LAST LIMIT 5 OFFSET 2", True),
]


def test_join_and_union_corpus_matches_sqlite(world_tables):
    world = World(world_tables)
    for ours, theirs, ordered in CORPUS:
        world.check(ours, theirs, ordered)


# -- dialect rule 6 and typed errors -------------------------------------------


MIXED_ORDERINGS = [
    ('SELECT key FROM "m" WHERE v < 1', "cannot compare str with int"),
    ('SELECT MIN(v) AS lo FROM "m"', "cannot compare"),
    ('SELECT key, v FROM "m" ORDER BY v', "cannot compare"),
]


@pytest.mark.parametrize("sql, message", MIXED_ORDERINGS)
def test_mixed_type_ordering_raises_where_sqlite_orders_by_type(
        sql, message):
    world = World({"m": {0: {"v": 3}, 1: {"v": "x"}, 2: {"v": None}}})
    # SQLite answers: it orders values by storage class.
    world.oracle.rows(sql)
    for path, envelope in world.runs(sql).items():
        assert envelope["error"] is not None, (path, sql)
        assert message in envelope["error"], (path, envelope)


TYPE_ERROR_PROBES = [
    ('SELECT -s AS v FROM "p"', "cannot apply unary - to str"),
    ('SELECT s + 1 AS v FROM "p"', "cannot apply + to str and int"),
    ('SELECT key FROM "p" WHERE s BETWEEN 1 AND 2',
     "cannot compare int with str"),
    ('SELECT AVG(s) AS v FROM "p"', "cannot apply AVG to str"),
    ('SELECT ABS(s) AS v FROM "p"', "cannot apply ABS to str"),
    ('SELECT SUM(s) AS v FROM "p"', "cannot apply SUM to str"),
]


@pytest.mark.parametrize("sql, message", TYPE_ERROR_PROBES)
def test_type_errors_surface_as_sql_errors(sql, message):
    """Arithmetic, numeric functions and BETWEEN on strings raise a typed
    ``SqlExecutionError`` on every path, never a builtin TypeError."""
    world = World({"p": {0: {"s": "x"}, 1: {"s": "y"}}})
    for path, envelope in world.runs(sql).items():
        assert envelope["error"] == message, (path, envelope)
