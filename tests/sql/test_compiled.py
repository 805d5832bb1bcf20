"""Unit tests for the expression evaluator (repro.sql.compiled).

Every ``Expr`` node kind is compiled and evaluated on small rows.  Values
are checked against stdlib sqlite3 evaluating the same expression over
the same row (with the documented dialect renderings of
``sqlite_oracle``); errors, which SQLite would not raise, are checked
against their literal messages.
"""

import sqlite3

import pytest

from repro.errors import SqlExecutionError
from repro.sql import EvalContext, parse
from repro.sql.ast import (
    Between,
    Binary,
    CaseWhen,
    Column,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    LocalTimestamp,
    Star,
    Unary,
)
from repro.sql.compiled import (
    compile_expr,
    compile_predicate,
    compile_projection,
)

from .sqlite_oracle import float_div, floor_mod, normalise

CTX = EvalContext(now_ms=123.0)
BINDING = "t"


def to_sqlite(expr) -> str:
    """Render an expression in SQLite's dialect (dialect rules applied)."""
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, bool):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "''") + "'"
        return f"({expr.value!r})"
    if isinstance(expr, Column):
        return f'"{expr.name}"'
    if isinstance(expr, Unary):
        return f"({expr.op} {to_sqlite(expr.operand)})"
    if isinstance(expr, Binary):
        left, right = to_sqlite(expr.left), to_sqlite(expr.right)
        if expr.op == "/":
            return float_div(left, right)
        if expr.op == "%":
            return floor_mod(left, right)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, FuncCall):
        return f"{expr.name}({', '.join(map(to_sqlite, expr.args))})"
    if isinstance(expr, InList):
        items = ", ".join(map(to_sqlite, expr.items))
        negated = "NOT " if expr.negated else ""
        return f"({to_sqlite(expr.operand)} {negated}IN ({items}))"
    if isinstance(expr, Between):
        negated = "NOT " if expr.negated else ""
        return (f"({to_sqlite(expr.operand)} {negated}BETWEEN "
                f"{to_sqlite(expr.low)} AND {to_sqlite(expr.high)})")
    if isinstance(expr, Like):
        negated = "NOT " if expr.negated else ""
        return (f"({to_sqlite(expr.operand)} {negated}LIKE "
                f"{to_sqlite(expr.pattern)})")
    if isinstance(expr, IsNull):
        negated = "NOT " if expr.negated else ""
        return f"({to_sqlite(expr.operand)} IS {negated}NULL)"
    if isinstance(expr, CaseWhen):
        branches = " ".join(
            f"WHEN {to_sqlite(condition)} THEN {to_sqlite(result)}"
            for condition, result in expr.branches
        )
        default = (f" ELSE {to_sqlite(expr.default)}"
                   if expr.default is not None else "")
        return f"(CASE {branches}{default} END)"
    raise TypeError(f"no SQLite rendering for {type(expr).__name__}")


def sqlite_value(expr, raw):
    """SQLite's value of ``expr`` over the single row ``raw``."""
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like=ON")
    columns = list(raw) or ["unused"]
    quoted = ", ".join(f'"{column}"' for column in columns)
    conn.execute(f"CREATE TABLE row ({quoted})")
    conn.execute(f"INSERT INTO row VALUES ({', '.join('?' for _ in columns)})",
                 [raw.get(column) for column in columns])
    return conn.execute(f"SELECT {to_sqlite(expr)} FROM row").fetchone()[0]


def outcome_compiled(expr, raw):
    fn = compile_expr(expr, BINDING)
    try:
        value = fn(raw, CTX)
        return ("value", type(value), value)
    except SqlExecutionError as exc:
        return ("error", str(exc))


def assert_equivalent(expr, raw):
    """The compiled value equals SQLite's value of the same expression."""
    actual = outcome_compiled(expr, raw)
    assert actual[0] == "value", (expr, raw, actual)
    assert normalise(actual[2]) == normalise(sqlite_value(expr, raw)), \
        (expr, raw, actual)
    return actual


def assert_error(expr, raw, message):
    assert outcome_compiled(expr, raw) == ("error", message), (expr, raw)


# -- literals, clock, and columns -------------------------------------------


def test_literal_and_localtimestamp():
    assert_equivalent(Literal(7), {})
    assert_equivalent(Literal("abc"), {})
    assert_equivalent(Literal(None), {})
    assert outcome_compiled(LocalTimestamp(), {}) == \
        ("value", float, 123.0)


def test_unqualified_column_resolution():
    assert_equivalent(Column("v"), {"v": 9})
    assert_equivalent(Column("v"), {"v": None})  # stored NULL, not missing
    assert_error(Column("nope"), {"v": 9}, "unknown column 'nope'")


def test_binding_qualified_column_prefers_raw_value():
    # bind_row overlays {binding}.{col} aliases after dict(raw), so the
    # unqualified raw value shadows a literal dotted raw key.
    raw = {"v": 1, "t.v": 2}
    assert outcome_compiled(Column("v", table="t"), raw) == \
        ("value", int, 1)
    # Falls back to the literal dotted key when unqualified is absent.
    assert outcome_compiled(Column("w", table="t"), {"t.w": 3}) == \
        ("value", int, 3)
    assert_error(Column("x", table="t"), raw, "unknown column 't.x'")


def test_foreign_qualified_column_sees_only_dotted_keys():
    raw = {"v": 1, "u.v": 5}
    assert outcome_compiled(Column("v", table="u"), raw) == \
        ("value", int, 5)
    assert_error(Column("v", table="u"), {"v": 1}, "unknown column 'u.v'")


def test_unbound_rows_resolve_qualified_names_literally():
    # The central executor's bound rows carry ``table.column`` keys.
    bound = {"v": 1, "t.v": 2}
    assert compile_expr(Column("v", table="t"))(bound, CTX) == 2
    assert compile_expr(Column("v"))(bound, CTX) == 1
    with pytest.raises(SqlExecutionError, match="unknown column 'u.v'"):
        compile_expr(Column("v", table="u"))(bound, CTX)


# -- function calls ----------------------------------------------------------


def test_scalar_functions():
    raw = {"s": "abc", "v": -4, "n": None}
    assert_equivalent(FuncCall("UPPER", (Column("s"),)), raw)
    assert_equivalent(FuncCall("ABS", (Column("v"),)), raw)
    assert_equivalent(
        FuncCall("COALESCE", (Column("n"), Literal(9))), raw
    )
    assert_equivalent(FuncCall("LENGTH", (Column("s"),)), raw)


def test_unknown_function_and_aggregate_errors():
    assert_error(FuncCall("FROBNICATE", ()), {},
                 "unknown function FROBNICATE")
    assert_error(FuncCall("SUM", (Column("v"),)), {"v": 1},
                 "aggregate SUM used outside aggregation")
    assert_error(FuncCall("COUNT", (Star(),)), {},
                 "aggregate COUNT used outside aggregation")


def test_aggregate_reads_the_group_values_from_the_context():
    call = FuncCall("SUM", (Column("v"),))
    fn = compile_expr(Binary("+", call, Literal(1)))
    group = EvalContext(now_ms=0.0, aggregates={call: 41})
    assert fn({}, group) == 42
    with pytest.raises(SqlExecutionError, match="outside aggregation"):
        fn({}, EvalContext(aggregates={}))


# -- unary and binary operators ---------------------------------------------


def test_unary_operators_and_null_propagation():
    for value in (True, False, 0, 1, None, 3.5):
        raw = {"v": value}
        assert_equivalent(Unary("NOT", Column("v")), raw)
        if not isinstance(value, bool):
            assert_equivalent(Unary("-", Column("v")), raw)
            assert_equivalent(Unary("+", Column("v")), raw)


TRILEAN = (Literal(True), Literal(False), Literal(None))


def test_and_or_three_valued_logic_full_table():
    for left in TRILEAN:
        for right in TRILEAN:
            assert_equivalent(Binary("AND", left, right), {})
            assert_equivalent(Binary("OR", left, right), {})


def test_and_or_short_circuit_skips_right_errors():
    # FALSE AND <error> never evaluates the erroring side.
    boom = Column("nope")
    assert outcome_compiled(
        Binary("AND", Literal(False), boom), {}
    ) == ("value", bool, False)
    assert outcome_compiled(
        Binary("OR", Literal(True), boom), {}
    ) == ("value", bool, True)
    assert_error(Binary("AND", Literal(True), boom), {},
                 "unknown column 'nope'")


def test_comparisons_and_mixed_type_error():
    raw = {"a": 3, "b": 7, "s": "x"}
    for op in ("=", "<>", "<", "<=", ">", ">="):
        assert_equivalent(Binary(op, Column("a"), Column("b")), raw)
        assert_equivalent(Binary(op, Column("a"), Literal(None)), raw)
    assert_error(Binary("<", Column("a"), Column("s")), raw,
                 "cannot compare int with str")
    # = and <> never raise on mixed types (Python equality is total).
    assert_equivalent(Binary("=", Column("a"), Column("s")), raw)


def test_arithmetic_division_and_modulo():
    raw = {"a": 7, "b": 2, "z": 0, "n": None}
    for op in ("+", "-", "*", "/", "%"):
        assert_equivalent(Binary(op, Column("a"), Column("b")), raw)
        assert_equivalent(Binary(op, Column("a"), Column("n")), raw)
    # Dialect rules: float division, floor modulo (divisor's sign).
    assert outcome_compiled(Binary("/", Column("a"), Column("b")), raw) \
        == ("value", float, 3.5)
    assert outcome_compiled(Binary("%", Literal(-7), Column("b")), raw) \
        == ("value", int, 1)
    assert_equivalent(Binary("%", Column("a"), Literal(-3)), raw)
    assert_error(Binary("/", Column("a"), Column("z")), raw,
                 "division by zero")
    assert_error(Binary("%", Column("a"), Column("z")), raw,
                 "modulo by zero")


def test_arithmetic_on_non_numbers_is_a_sql_error():
    raw = {"a": 7, "s": "x"}
    assert_error(Binary("+", Column("s"), Literal(1)), raw,
                 "cannot apply + to str and int")
    assert_error(Binary("*", Column("s"), Column("a")), raw,
                 "cannot apply * to str and int")
    assert_error(Binary("/", Column("s"), Literal(0)), raw,
                 "cannot apply / to str and int")
    assert_error(Unary("-", Column("s")), raw,
                 "cannot apply unary - to str")
    assert_error(Between(Column("s"), Literal(1), Literal(2)), raw,
                 "cannot compare int with str")


def test_unknown_operator_evaluates_operands_first():
    # Both operands evaluate and NULL-propagate before the operator is
    # rejected.
    assert_error(Binary("^", Literal(1), Literal(2)), {},
                 "unknown operator ^")
    assert outcome_compiled(
        Binary("^", Literal(None), Literal(2)), {}
    ) == ("value", type(None), None)
    assert_error(Binary("^", Column("nope"), Literal(2)), {},
                 "unknown column 'nope'")


# -- IN, BETWEEN, LIKE, IS NULL, CASE ---------------------------------------


def test_in_list_with_null_sentinel():
    items = (Literal(1), Literal(None), Literal(3))
    for value in (1, 3, 5, None):
        raw = {"v": value}
        assert_equivalent(InList(Column("v"), items), raw)
        assert_equivalent(InList(Column("v"), items, negated=True), raw)
    # Without a NULL item, a miss is plain FALSE (TRUE when negated).
    plain = (Literal(1), Literal(3))
    assert_equivalent(InList(Column("v"), plain), {"v": 5})
    assert_equivalent(InList(Column("v"), plain, negated=True), {"v": 5})


def test_between_and_negation():
    for value in (1, 5, 9, None):
        raw = {"v": value}
        expr = Between(Column("v"), Literal(2), Literal(8))
        assert_equivalent(expr, raw)
        assert_equivalent(
            Between(Column("v"), Literal(2), Literal(8), negated=True),
            raw,
        )
    # A NULL bound gives NULL unless the other bound already fails
    # (three-valued AND); all three sub-expressions evaluate first.
    assert_equivalent(
        Between(Column("v"), Literal(None), Literal(8)), {"v": 5}
    )
    assert_equivalent(
        Between(Column("v"), Literal(None), Literal(3)), {"v": 5}
    )
    assert_equivalent(
        Between(Column("v"), Literal(6), Literal(None), negated=True),
        {"v": 5},
    )
    assert_error(Between(Column("v"), Literal(2), Column("nope")),
                 {"v": 5}, "unknown column 'nope'")


def test_like_literal_and_dynamic_patterns():
    rows = [{"s": "alpha", "p": "a%"}, {"s": "beta", "p": "a%"},
            {"s": None, "p": "a%"}, {"s": "aXc", "p": None}]
    literal = Like(Column("s"), Literal("a%"))
    dynamic = Like(Column("s"), Column("p"))
    underscore = Like(Column("s"), Literal("a_c"))
    for raw in rows:
        assert_equivalent(literal, raw)
        assert_equivalent(Like(Column("s"), Literal("a%"),
                               negated=True), raw)
        assert_equivalent(dynamic, raw)
        assert_equivalent(underscore, raw)
    # Non-string operands stringify; wildcards match newlines.
    assert_equivalent(Like(Column("s"), Literal("1%")), {"s": 123})
    assert_equivalent(Like(Column("s"), Literal("a%c")), {"s": "a\nc"})
    assert_equivalent(Like(Column("s"), Literal("a_c")), {"s": "a\nc"})


def test_is_null_and_is_not_null():
    for value in (None, 0, "x"):
        raw = {"v": value}
        assert_equivalent(IsNull(Column("v")), raw)
        assert_equivalent(IsNull(Column("v"), negated=True), raw)


def test_case_when_branch_dispatch_and_default():
    expr = CaseWhen(
        branches=(
            (Binary("<", Column("v"), Literal(3)), Literal("low")),
            (Binary("<", Column("v"), Literal(7)), Literal("mid")),
        ),
        default=Literal("high"),
    )
    no_default = CaseWhen(
        branches=((Binary("<", Column("v"), Literal(3)), Literal("low")),)
    )
    for value in (1, 5, 9, None):
        raw = {"v": value}
        assert_equivalent(expr, raw)
        assert_equivalent(no_default, raw)


def test_star_and_unknown_node_errors():
    assert_error(Star(), {}, "* is only valid in COUNT(*) or SELECT *")

    class Mystery(Expr):
        pass

    assert_error(Mystery(), {}, "cannot evaluate Mystery")


# -- predicate and projection wrappers --------------------------------------


def test_compile_predicate_matches_sqlite():
    cases = [
        'SELECT * FROM "t" WHERE v < 5',
        'SELECT * FROM "t" WHERE v IS NULL OR g = 2',
        'SELECT * FROM "t" WHERE s LIKE \'a%\' AND v % 2 = 0',
        'SELECT * FROM "t" WHERE v IN (1, 2, NULL)',
        'SELECT * FROM "t" WHERE NOT (v > 3)',
    ]
    rows = [
        {"v": 1, "g": 2, "s": "abc"},
        {"v": None, "g": None, "s": None},
        {"v": 8, "g": 5, "s": "zzz"},
        {"v": 4, "g": 2, "s": "aX"},
    ]
    for sql in cases:
        where = parse(sql).where
        predicate = compile_predicate(where, BINDING)
        for raw in rows:
            # Only TRUE passes: SQLite's 1, not 0 or NULL.
            assert predicate(raw, CTX) == (sqlite_value(where, raw) == 1), \
                (sql, raw)


def test_compile_projection_identity_and_strip():
    raw = {"key": 1, "v": 2, "pad": 3}
    assert compile_projection(None)(raw) is raw
    projected = compile_projection(("key", "v"))(raw)
    assert projected == {"key": 1, "v": 2}
    # Missing projected columns are simply absent, never errors.
    assert compile_projection(("key", "nope"))(raw) == {"key": 1}


def test_predicate_null_is_not_true():
    where = parse('SELECT * FROM "t" WHERE v < 5').where
    predicate = compile_predicate(where, BINDING)
    assert predicate({"v": None}, CTX) is False


def test_error_raised_not_swallowed():
    predicate = compile_predicate(
        parse('SELECT * FROM "t" WHERE v < 5').where, BINDING
    )
    with pytest.raises(SqlExecutionError, match="cannot compare"):
        predicate({"v": "str"}, CTX)
