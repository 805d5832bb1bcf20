"""SQL abstract syntax tree nodes (dataclasses)."""

from __future__ import annotations

from dataclasses import dataclass


class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # int | float | str | bool | None


@dataclass(frozen=True)
class Column(Expr):
    """A column reference, optionally qualified with a table alias."""

    name: str
    table: str | None = None

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` — only valid inside ``COUNT(*)`` or the select list."""


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'NOT' | '-' | '+'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # comparison, arithmetic, AND, OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar or aggregate function call.

    Aggregates are ``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``; ``COUNT``
    may take :class:`Star`.  ``distinct`` applies to aggregates.
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class CaseWhen(Expr):
    branches: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None


@dataclass(frozen=True)
class LocalTimestamp(Expr):
    """``LOCALTIMESTAMP`` — evaluation-time clock (virtual ms)."""


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A base table reference with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """One JOIN clause linking ``table`` to everything parsed before it."""

    table: TableRef
    kind: str = "INNER"  # 'INNER' | 'LEFT'
    using: tuple[str, ...] = ()
    on: Expr | None = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A parsed SELECT statement."""

    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    select_star: bool = False
    #: ``SELECT APPROX ...``: aggregate results may be answered from
    #: sketches; the result always carries ``error_bound`` and
    #: ``confidence`` columns (0.0 / 1.0 on the exact fallback).
    approx: bool = False

    def table_names(self) -> list[str]:
        """All base table names referenced, in FROM order."""
        names = [self.table.name]
        names.extend(join.table.name for join in self.joins)
        return names


@dataclass(frozen=True)
class Union:
    """``SELECT ... UNION [ALL] SELECT ...`` — branch results are
    concatenated (``ALL``) or deduplicated, using the first branch's
    column names.  Useful for combining live and snapshot views.

    As in SQLite, ORDER BY / LIMIT / OFFSET written after the final
    branch apply to the whole union and resolve against its output
    columns."""

    branches: tuple[Select, ...]
    all: bool = True
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None

    @property
    def distinct(self) -> bool:
        return not self.all

    def table_names(self) -> list[str]:
        names: list[str] = []
        for branch in self.branches:
            names.extend(branch.table_names())
        return names


#: Any executable SQL statement.
Statement = Select | Union

AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def contains_aggregate(expr: Expr) -> bool:
    """True if the expression tree contains an aggregate call."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, Unary):
        return contains_aggregate(expr.operand)
    if isinstance(expr, Binary):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, InList):
        return contains_aggregate(expr.operand) or any(
            contains_aggregate(item) for item in expr.items
        )
    if isinstance(expr, Between):
        return (
            contains_aggregate(expr.operand)
            or contains_aggregate(expr.low)
            or contains_aggregate(expr.high)
        )
    if isinstance(expr, Like):
        return contains_aggregate(expr.operand)
    if isinstance(expr, IsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, CaseWhen):
        parts: list[Expr] = []
        for condition, result in expr.branches:
            parts.extend((condition, result))
        if expr.default is not None:
            parts.append(expr.default)
        return any(contains_aggregate(part) for part in parts)
    return False


def collect_aggregates(expr: Expr, out: list[FuncCall]) -> None:
    """Append every aggregate call in ``expr`` to ``out`` (pre-order)."""
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        out.append(expr)
        return
    if isinstance(expr, FuncCall):
        for arg in expr.args:
            collect_aggregates(arg, out)
    elif isinstance(expr, Unary):
        collect_aggregates(expr.operand, out)
    elif isinstance(expr, Binary):
        collect_aggregates(expr.left, out)
        collect_aggregates(expr.right, out)
    elif isinstance(expr, InList):
        collect_aggregates(expr.operand, out)
        for item in expr.items:
            collect_aggregates(item, out)
    elif isinstance(expr, Between):
        collect_aggregates(expr.operand, out)
        collect_aggregates(expr.low, out)
        collect_aggregates(expr.high, out)
    elif isinstance(expr, Like):
        collect_aggregates(expr.operand, out)
    elif isinstance(expr, IsNull):
        collect_aggregates(expr.operand, out)
    elif isinstance(expr, CaseWhen):
        for condition, result in expr.branches:
            collect_aggregates(condition, out)
            collect_aggregates(result, out)
        if expr.default is not None:
            collect_aggregates(expr.default, out)
