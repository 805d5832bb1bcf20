"""The SQL expression evaluator: compile once, evaluate per row.

:func:`compile_expr` turns one AST expression into a specialized Python
closure ``fn(row, context) -> value``.  It is the only expression
evaluator: the central executor compiles each plan's WHERE, join keys,
projection, group keys, aggregate arguments, HAVING and ORDER BY once
and runs them over bound rows; standing queries compile once per
standing plan; scan fragments compile once per fragment shape (see
:mod:`repro.sql.batch`) and run over raw stored rows.

The closures implement the documented dialect: three-valued logic with
short-circuiting AND/OR, NULL propagation, ``/`` as float division,
``%`` with the divisor's sign, LIKE with ``%``/``_`` wildcards, and a
:class:`~repro.errors.SqlExecutionError` — never a bare Python
exception — for unknown columns, mixed-type orderings, arithmetic on
non-numbers, and division by zero.

Column resolution depends on ``binding``.  Without one (``None``) a
reference reads the row key it names — ``table.column`` when qualified —
which is how bound rows are laid out.  With a binding the closure reads
a *raw* stored row exactly as it would read ``bind_row(raw, binding)``:
the bound row is ``dict(raw)`` overlaid with ``{binding}.{column}``
aliases, so a ``binding``-qualified reference prefers the unqualified
raw value (the overlay overwrites any literal ``"binding.column"`` raw
key), and a reference qualified with any other table only ever sees
literal dotted raw keys.  Scan fragments use this to skip the per-row
bound copy.

Aggregate calls read the current group's values from
:attr:`EvalContext.aggregates` (HAVING, grouped projection, ORDER BY).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable

from ..errors import SqlExecutionError
from .ast import (
    AGGREGATE_FUNCTIONS,
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
from .functions import NUMBERS, SCALAR_FUNCTIONS, bad_operands, incomparable
from .lru import LruCache


@dataclass
class EvalContext:
    """Runtime context for expression evaluation.

    ``now_ms`` backs ``LOCALTIMESTAMP``; timestamps in this reproduction
    are virtual milliseconds.  ``aggregates`` maps each aggregate call
    of the group being finalized to its value (``None`` outside
    aggregation).
    """

    now_ms: float = 0.0
    aggregates: dict | None = None


#: A compiled expression: evaluate against one row.
CompiledExpr = Callable[[dict, EvalContext], object]

#: Sentinel distinguishing "key absent" from a stored ``None`` (SQL NULL).
_MISSING = object()

_ORDERINGS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}

_BY_ZERO = {"/": "division by zero", "%": "modulo by zero"}


def _truthy(value: object) -> bool:
    """SQL WHERE semantics: only TRUE passes (NULL does not)."""
    return value is True or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value != 0
    )


def compile_predicate(expr: Expr, binding: str | None = None) -> CompiledExpr:
    """Compile a WHERE/HAVING/ON condition; the closure returns its truth
    value (only TRUE passes, NULL does not)."""
    fn = compile_expr(expr, binding)

    def predicate(row: dict, context: EvalContext) -> bool:
        return _truthy(fn(row, context))

    return predicate


def compile_projection(columns: tuple[str, ...] | None) -> Callable[[dict], dict]:
    """Compile a fragment projection: returns the shipped row for one raw
    row, keeping only the projected columns that are present."""
    if columns is None:
        return lambda raw: raw
    keep = frozenset(columns)

    def project(raw: dict) -> dict:
        return {key: value for key, value in raw.items() if key in keep}

    return project


def compile_expr(expr: Expr, binding: str | None = None) -> CompiledExpr:
    """Compile one expression into a closure over ``(row, context)``."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, context: value
    if isinstance(expr, LocalTimestamp):
        return lambda row, context: context.now_ms
    if isinstance(expr, Column):
        return _compile_column(expr, binding)
    if isinstance(expr, FuncCall):
        return _compile_call(expr, binding)
    if isinstance(expr, Unary):
        return _compile_unary(expr, binding)
    if isinstance(expr, Binary):
        return _compile_binary(expr, binding)
    if isinstance(expr, InList):
        return _compile_in(expr, binding)
    if isinstance(expr, Between):
        return _compile_between(expr, binding)
    if isinstance(expr, Like):
        return _compile_like(expr, binding)
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, binding)
        if expr.negated:
            return lambda row, context: operand(row, context) is not None
        return lambda row, context: operand(row, context) is None
    if isinstance(expr, CaseWhen):
        return _compile_case(expr, binding)
    if isinstance(expr, Star):
        return _raiser("* is only valid in COUNT(*) or SELECT *")
    return _raiser(f"cannot evaluate {type(expr).__name__}")


def _raiser(message: str) -> CompiledExpr:
    def fail(row: dict, context: EvalContext) -> object:
        raise SqlExecutionError(message)

    return fail


def _compile_column(column: Column, binding: str | None) -> CompiledExpr:
    name = column.name
    message = f"unknown column {column.display()!r}"
    if column.table is None:
        def unqualified(row: dict, context: EvalContext) -> object:
            value = row.get(name, _MISSING)
            if value is _MISSING:
                raise SqlExecutionError(message)
            return value

        return unqualified
    dotted = f"{column.table}.{name}"
    if column.table == binding:
        # The bind_row overlay writes binding-qualified aliases after
        # dict(raw), so the unqualified raw value shadows any literal
        # dotted raw key of the same name.
        def qualified(raw: dict, context: EvalContext) -> object:
            value = raw.get(name, _MISSING)
            if value is _MISSING:
                value = raw.get(dotted, _MISSING)
            if value is _MISSING:
                raise SqlExecutionError(message)
            return value

        return qualified

    def foreign(row: dict, context: EvalContext) -> object:
        value = row.get(dotted, _MISSING)
        if value is _MISSING:
            raise SqlExecutionError(message)
        return value

    return foreign


def _compile_call(call: FuncCall, binding: str | None) -> CompiledExpr:
    if call.name in AGGREGATE_FUNCTIONS:
        message = f"aggregate {call.name} used outside aggregation"

        def aggregate(row: dict, context: EvalContext) -> object:
            values = context.aggregates
            if values is None or call not in values:
                raise SqlExecutionError(message)
            return values[call]

        return aggregate
    func = SCALAR_FUNCTIONS.get(call.name)
    if func is None:
        return _raiser(f"unknown function {call.name}")
    args = tuple(compile_expr(arg, binding) for arg in call.args)

    def scalar(row: dict, context: EvalContext) -> object:
        return func([fn(row, context) for fn in args])

    return scalar


def _compile_unary(expr: Unary, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    if expr.op == "NOT":
        def negate(row: dict, context: EvalContext) -> object:
            value = operand(row, context)
            if value is None:
                return None
            return not _truthy(value)

        return negate
    sign = operator.neg if expr.op == "-" else operator.pos
    label = f"unary {expr.op}"

    def signed(row: dict, context: EvalContext) -> object:
        value = operand(row, context)
        if value is None:
            return None
        if not isinstance(value, NUMBERS):
            raise bad_operands(label, value)
        return sign(value)

    return signed


def _compile_binary(expr: Binary, binding: str | None) -> CompiledExpr:
    op = expr.op
    left = compile_expr(expr.left, binding)
    right = compile_expr(expr.right, binding)
    if op == "AND":
        def logical_and(row: dict, context: EvalContext) -> object:
            lhs = left(row, context)
            if lhs is False or (lhs is not None and not _truthy(lhs)):
                return False
            rhs = right(row, context)
            if rhs is False or (rhs is not None and not _truthy(rhs)):
                return False
            if lhs is None or rhs is None:
                return None
            return True

        return logical_and
    if op == "OR":
        def logical_or(row: dict, context: EvalContext) -> object:
            lhs = left(row, context)
            if lhs is not None and _truthy(lhs):
                return True
            rhs = right(row, context)
            if rhs is not None and _truthy(rhs):
                return True
            if lhs is None or rhs is None:
                return None
            return False

        return logical_or
    if op in _ORDERINGS:
        compare = _ORDERINGS[op]

        def comparison(row: dict, context: EvalContext) -> object:
            lhs = left(row, context)
            rhs = right(row, context)
            if lhs is None or rhs is None:
                return None
            try:
                return compare(lhs, rhs)
            except TypeError:
                raise incomparable(lhs, rhs) from None

        return comparison
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]
        by_zero = _BY_ZERO.get(op)

        def arithmetic(row: dict, context: EvalContext) -> object:
            lhs = left(row, context)
            rhs = right(row, context)
            if lhs is None or rhs is None:
                return None
            if not (isinstance(lhs, NUMBERS) and isinstance(rhs, NUMBERS)):
                raise bad_operands(op, lhs, rhs)
            if by_zero is not None and rhs == 0:
                raise SqlExecutionError(by_zero)
            return apply(lhs, rhs)

        return arithmetic

    # Both operands evaluate (surfacing their errors first) and
    # NULL-propagate before the operator is rejected.
    def unknown_operator(row: dict, context: EvalContext) -> object:
        lhs = left(row, context)
        rhs = right(row, context)
        if lhs is None or rhs is None:
            return None
        raise SqlExecutionError(f"unknown operator {op}")

    return unknown_operator


def _compile_in(expr: InList, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    items = tuple(compile_expr(item, binding) for item in expr.items)
    negated = expr.negated

    def in_list(row: dict, context: EvalContext) -> object:
        value = operand(row, context)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row, context)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        if saw_null:
            return None
        return negated

    return in_list


def _compile_between(expr: Between, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    low = compile_expr(expr.low, binding)
    high = compile_expr(expr.high, binding)
    negated = expr.negated

    def between(row: dict, context: EvalContext) -> object:
        value = operand(row, context)
        low_value = low(row, context)
        high_value = high(row, context)
        if value is None:
            return None
        # (low <= value) AND (value <= high), in three-valued logic: a
        # NULL bound still yields FALSE when the other side fails.
        above = None if low_value is None else _at_most(low_value, value)
        if above is False:
            result = False
        else:
            below = (
                None if high_value is None else _at_most(value, high_value)
            )
            if below is False:
                result = False
            elif above is None or below is None:
                return None
            else:
                result = True
        return (not result) if negated else result

    return between


def _at_most(left: object, right: object) -> bool:
    try:
        return left <= right
    except TypeError:
        raise incomparable(left, right) from None


def _compile_like(expr: Like, binding: str | None) -> CompiledExpr:
    operand = compile_expr(expr.operand, binding)
    negated = expr.negated
    if isinstance(expr.pattern, Literal) and isinstance(expr.pattern.value, str):
        # The common case: a literal pattern compiles to a regex once,
        # here, instead of a cache lookup per row.
        regex = like_regex(expr.pattern.value)

        def like_literal(row: dict, context: EvalContext) -> object:
            value = operand(row, context)
            if value is None:
                return None
            result = regex.fullmatch(str(value)) is not None
            return (not result) if negated else result

        return like_literal
    pattern = compile_expr(expr.pattern, binding)

    def like_dynamic(row: dict, context: EvalContext) -> object:
        value = operand(row, context)
        pattern_value = pattern(row, context)
        if value is None or pattern_value is None:
            return None
        result = match_like(str(value), str(pattern_value))
        return (not result) if negated else result

    return like_dynamic


def _compile_case(expr: CaseWhen, binding: str | None) -> CompiledExpr:
    branches = tuple(
        (compile_expr(condition, binding), compile_expr(result, binding))
        for condition, result in expr.branches
    )
    default = (
        compile_expr(expr.default, binding)
        if expr.default is not None else None
    )

    def case_when(row: dict, context: EvalContext) -> object:
        for condition, result in branches:
            if _truthy(condition(row, context)):
                return result(row, context)
        if default is not None:
            return default(row, context)
        return None

    return case_when


# -- LIKE patterns -------------------------------------------------------------

#: Compiled LIKE patterns keyed by the raw pattern string, each with its
#: literal prefix (the characters before the first wildcard — what the
#: planner turns into a sorted-index range probe).  Literal patterns
#: compile once per expression; the LRU bound guards against unbounded
#: growth from data-derived patterns (``x LIKE y``) while keeping the
#: hot patterns resident — the capacity follows
#: ``CostModel.like_cache_max_patterns`` (applied by
#: :class:`~repro.env.Environment`), and hit/miss counts roll into
#: :class:`~repro.observability.ClusterReport`.
# lint: allow(shared-state) bounded LRU of idempotent compiled LIKE
# patterns; order-independent and single event-loop thread, no lock
# needed (hit/miss counters are cumulative by design, see above).
_LIKE_CACHE: LruCache[str, tuple["re.Pattern[str]", str]] = LruCache(1024)


def set_like_cache_capacity(capacity: int) -> None:
    """Apply the configured LIKE-cache bound (process-wide)."""
    _LIKE_CACHE.set_capacity(capacity)


def like_cache_stats() -> tuple[int, int]:
    """Process-wide ``(hits, misses)`` of the compiled-LIKE cache."""
    return _LIKE_CACHE.hits, _LIKE_CACHE.misses


def _compiled_like(pattern: str) -> tuple["re.Pattern[str]", str]:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex_parts = []
        prefix_len = len(pattern)
        for position, ch in enumerate(pattern):
            if ch == "%":
                regex_parts.append(".*")
                prefix_len = min(prefix_len, position)
            elif ch == "_":
                regex_parts.append(".")
                prefix_len = min(prefix_len, position)
            else:
                regex_parts.append(re.escape(ch))
        # DOTALL: the wildcards match any character, newlines included.
        compiled = (
            re.compile("".join(regex_parts), re.DOTALL),
            pattern[:prefix_len],
        )
        _LIKE_CACHE.put(pattern, compiled)
    return compiled


def like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex of a LIKE pattern (cached)."""
    return _compiled_like(pattern)[0]


def like_literal_prefix(pattern: str) -> str | None:
    """The literal prefix every LIKE match must start with, or ``None``
    when the pattern starts with a wildcard (no usable prefix).  A
    prefix equal to the whole pattern means wildcard-free: the pattern
    is an exact string match."""
    prefix = _compiled_like(pattern)[1]
    return prefix if prefix else None


def match_like(text: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards (no escapes), through the
    compiled-pattern cache."""
    return like_regex(pattern).fullmatch(text) is not None
