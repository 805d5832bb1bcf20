"""SQL execution over dict rows."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import SqlExecutionError, SqlPlanError
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
    Select,
    SelectItem,
    Star,
    Unary,
    Union,
    collect_aggregates,
    contains_aggregate,
)
from .functions import SCALAR_FUNCTIONS, incomparable, make_aggregate
from .lru import LruCache
from .planner import Catalog, JoinStep, Plan, plan_select


@dataclass
class EvalContext:
    """Runtime context for expression evaluation.

    ``now_ms`` backs ``LOCALTIMESTAMP``; timestamps in this reproduction
    are virtual milliseconds.
    """

    now_ms: float = 0.0


@dataclass
class QueryResult:
    """Materialised query result."""

    columns: list[str]
    rows: list[dict]
    #: number of raw entries scanned across all inputs (cost accounting).
    scanned: int = 0

    def tuples(self) -> list[tuple]:
        return [tuple(row[col] for col in self.columns) for row in self.rows]

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise SqlExecutionError(f"no result column {name!r}")
        return [row[name] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def execute_select(select: "Select | Union", catalog: Catalog,
                   context: EvalContext | None = None) -> QueryResult:
    """Plan and execute a statement; returns a :class:`QueryResult`.

    Accepts a single SELECT or a UNION [ALL] chain (branch results are
    concatenated under the first branch's column names; plain UNION
    deduplicates)."""
    context = context or EvalContext()
    if isinstance(select, Union):
        return _execute_union(select, catalog, context)
    plan = plan_select(select, catalog)
    return execute_plan(plan, context)


def _execute_union(union: "Union", catalog: Catalog,
                   context: EvalContext) -> QueryResult:
    results = [
        execute_plan(plan_select(branch, catalog), context)
        for branch in union.branches
    ]
    columns = results[0].columns
    width = len(columns)
    for index, result in enumerate(results[1:], start=2):
        if len(result.columns) != width:
            raise SqlExecutionError(
                f"UNION branch {index} has {len(result.columns)} "
                f"columns, expected {width}"
            )
    rows: list[dict] = []
    scanned = 0
    for result in results:
        scanned += result.scanned
        for row in result.rows:
            values = [row[column] for column in result.columns]
            rows.append(dict(zip(columns, values)))
    rows = _shape_output(union, rows, columns, context)
    return QueryResult(columns=columns, rows=rows, scanned=scanned)


def execute_plan(plan: Plan, context: EvalContext) -> QueryResult:
    select = plan.select
    scanned = 0

    rows: list[dict] = []
    for raw in plan.base_source.rows():
        rows.append(_bind_row(raw, plan.base_binding))
        scanned += 1
    for step in plan.joins:
        rows, step_scanned = _execute_join(rows, step, context)
        scanned += step_scanned

    if select.where is not None:
        rows = [
            row for row in rows
            if _truthy(_eval(select.where, row, context, None))
        ]

    if plan.is_aggregate:
        out_rows, columns = _execute_aggregate(select, rows, context)
    else:
        out_rows, columns = _execute_projection(select, rows, context)

    final = _shape_output(select, out_rows, columns, context)
    if select.approx:
        columns, final = _approx_exact_output(columns, final)
    return QueryResult(columns=columns, rows=final, scanned=scanned)


def _approx_exact_output(
    columns: list[str], rows: list[dict]
) -> tuple[list[str], list[dict]]:
    """Exact fallback of an ``APPROX`` statement: the answer is exact,
    so it reports a zero error bound at full confidence — keeping the
    result shape identical to the sketch fast path."""
    shaped = []
    for row in rows:
        out = dict(row)
        out["error_bound"] = 0.0
        out["confidence"] = 1.0
        shaped.append(out)
    return columns + ["error_bound", "confidence"], shaped


def _shape_output(select: Select | Union, out_rows: list[dict],
                  columns: list[str], context: EvalContext) -> list[dict]:
    """The post-projection stages shared by every execution path:
    DISTINCT, ORDER BY, OFFSET/LIMIT, and the final column strip."""
    if select.distinct:
        out_rows = _distinct(out_rows, columns)

    if select.order_by:
        out_rows = _execute_order(select, out_rows, context)

    if select.offset:
        out_rows = out_rows[select.offset:]
    if select.limit is not None:
        out_rows = out_rows[: select.limit]

    return [{col: row[col] for col in columns} for row in out_rows]


def execute_grouped_select(select: Select, groups: dict,
                           context: EvalContext,
                           scanned: int = 0) -> QueryResult:
    """Finalize a pre-aggregated SELECT from merged partial groups.

    ``groups`` maps group-key tuples to ``{"row": representative bound
    row, "accs": [Aggregate, ...]}`` with accumulators in
    :func:`unique_aggregates` order — exactly the structure the central
    aggregation builds, so HAVING/projection/ORDER/LIMIT semantics are
    shared with :func:`execute_plan`.  Used by the distributed query
    path after merging scan-side partial aggregates.
    """
    unique = unique_aggregates(select)
    out_rows, columns = _finalize_groups(select, unique, groups, context)
    final = _shape_output(select, out_rows, columns, context)
    if select.approx:
        columns, final = _approx_exact_output(columns, final)
    return QueryResult(columns=columns, rows=final, scanned=scanned)


# -- scanning and joins ------------------------------------------------------


def _bind_row(raw: dict, binding: str) -> dict:
    """Expose columns both unqualified and as ``binding.column``."""
    row = dict(raw)
    for key, value in raw.items():
        row[f"{binding}.{key}"] = value
    return row


def _execute_join(left_rows: list[dict], step: JoinStep,
                  context: EvalContext) -> tuple[list[dict], int]:
    right_rows = [_bind_row(raw, step.binding) for raw in step.source.rows()]
    scanned = len(right_rows)
    right_columns = set()
    for row in right_rows:
        right_columns.update(row.keys())

    if step.using:
        result = _hash_join_using(left_rows, right_rows, step, right_columns)
    elif step.hash_on is not None:
        result = _hash_join_on(
            left_rows, right_rows, step, right_columns, context
        )
    else:
        result = _nested_loop_join(
            left_rows, right_rows, step, right_columns, context
        )
    return result, scanned


def _null_extend(left: dict, right_columns: set[str]) -> dict:
    merged = dict(left)
    for column in right_columns:
        merged.setdefault(column, None)
    return merged


def _merge(left: dict, right: dict) -> dict:
    """Merge join sides; on unqualified collisions the left value wins
    (matches USING semantics where the shared column is equal anyway)."""
    merged = dict(right)
    merged.update(left)
    return merged


def _hash_join_using(left_rows: list[dict], right_rows: list[dict],
                     step: JoinStep,
                     right_columns: set[str]) -> list[dict]:
    index: dict[tuple, list[dict]] = {}
    for row in right_rows:
        key = tuple(row.get(col) for col in step.using)
        if any(part is None for part in key):
            continue
        index.setdefault(key, []).append(row)
    result = []
    for left in left_rows:
        key = tuple(left.get(col) for col in step.using)
        matches = index.get(key, []) if not any(
            part is None for part in key
        ) else []
        if matches:
            result.extend(_merge(left, right) for right in matches)
        elif step.kind == "LEFT":
            result.append(_null_extend(left, right_columns))
    return result


def _hash_join_on(left_rows: list[dict], right_rows: list[dict],
                  step: JoinStep, right_columns: set[str],
                  context: EvalContext) -> list[dict]:
    probe_expr, build_expr = step.hash_on
    index: dict[object, list[dict]] = {}
    for row in right_rows:
        key = _eval(build_expr, row, context, None)
        if key is None:
            continue
        index.setdefault(key, []).append(row)
    result = []
    for left in left_rows:
        key = _eval(probe_expr, left, context, None)
        matches = index.get(key, []) if key is not None else []
        if matches:
            result.extend(_merge(left, right) for right in matches)
        elif step.kind == "LEFT":
            result.append(_null_extend(left, right_columns))
    return result


def _nested_loop_join(left_rows: list[dict], right_rows: list[dict],
                      step: JoinStep, right_columns: set[str],
                      context: EvalContext) -> list[dict]:
    result = []
    for left in left_rows:
        matched = False
        for right in right_rows:
            merged = _merge(left, right)
            if step.on is None or _truthy(
                _eval(step.on, merged, context, None)
            ):
                result.append(merged)
                matched = True
        if not matched and step.kind == "LEFT":
            result.append(_null_extend(left, right_columns))
    return result


# -- distributed join support ------------------------------------------------
#
# The distributed coordinator (repro.query.joins) executes each join
# step as per-node build/probe stages over *tagged* rows — ``(tag,
# bound_row)`` pairs where ``tag`` is a tuple of per-step components
# that totally orders the merged rows exactly as the central left-deep
# execution would have emitted them.  The primitives below are the
# central hash-join loops re-expressed over tagged inputs with an
# injectable right-column set, so both paths share one set of
# equality/NULL/error semantics.


def collect_right_columns(bound_rows: list[dict]) -> set[str]:
    """The right-hand column set exactly as ``_execute_join`` builds it.

    The *construction sequence* matters, not just the contents: LEFT
    null-extension iterates this set, so its internal order decides the
    column insertion order of padded rows (visible through ``SELECT
    *``).  Feed the bound rows in canonical order and the per-row
    ``update`` replays central's resize/insertion history bit for bit.
    """
    columns: set[str] = set()
    for row in bound_rows:
        columns.update(row.keys())
    return columns


def build_join_index(
    tagged_rows: "list[tuple[tuple, dict]]",
    using: "tuple[str, ...]",
    build_expr: "Expr | None",
    context: EvalContext,
) -> "tuple[dict, tuple[tuple, Exception] | None]":
    """The hash-join build phase over tagged bound rows.

    Mirrors ``_hash_join_using``/``_hash_join_on``: NULL keys (any
    NULL component for USING) never enter the index.  Instead of
    raising on a key-evaluation error it records the first one with
    its row tag — the coordinator surfaces the minimum tag across
    nodes, which is the row central would have raised on first.
    """
    index: dict = {}
    error: "tuple[tuple, Exception] | None" = None
    for tag, row in tagged_rows:
        if using:
            key = tuple(row.get(col) for col in using)
            if any(part is None for part in key):
                continue
        else:
            try:
                key = _eval(build_expr, row, context, None)
            except Exception as exc:  # noqa: BLE001 - mirrors central raise
                if error is None:
                    error = (tag, exc)
                continue
            if key is None:
                continue
        index.setdefault(key, []).append((tag, row))
    return index, error


def probe_join_index(
    tagged_left: "list[tuple[tuple, dict]]",
    index: dict,
    using: "tuple[str, ...]",
    probe_expr: "Expr | None",
    kind: str,
    right_columns: set[str],
    context: EvalContext,
) -> "tuple[list[tuple[tuple, dict]], tuple[tuple, Exception] | None]":
    """The hash-join probe phase over tagged bound rows.

    Matched rows extend the left tag with the matched right row's tag;
    LEFT-join NULL padding extends it with ``()``, which sorts before
    any real match but only ever compares against tags of the same
    left row (a row cannot both match and pad).
    """
    result: "list[tuple[tuple, dict]]" = []
    error: "tuple[tuple, Exception] | None" = None
    for tag, left in tagged_left:
        if using:
            key = tuple(left.get(col) for col in using)
            matches = index.get(key, []) if not any(
                part is None for part in key
            ) else []
        else:
            try:
                key = _eval(probe_expr, left, context, None)
            except Exception as exc:  # noqa: BLE001 - mirrors central raise
                if error is None:
                    error = (tag, exc)
                continue
            matches = index.get(key, []) if key is not None else []
        if matches:
            result.extend(
                (tag + (right_tag,), _merge(left, right))
                for right_tag, right in matches
            )
        elif kind == "LEFT":
            result.append((tag + ((),), _null_extend(left, right_columns)))
    return result, error


def merge_join_rows(left: dict, right: dict) -> dict:
    """Public alias of the join merge (left wins unqualified collisions)
    for the vectorized broadcast-probe sweep."""
    return _merge(left, right)


def null_extend_row(left: dict, right_columns: set[str]) -> dict:
    """Public alias of LEFT-join NULL padding for the sweep probe."""
    return _null_extend(left, right_columns)


def validate_joined_select(select: Select) -> bool:
    """The statement-shape validations of ``plan_select``, re-raised by
    the distributed join path.  Central queries only hit them at the
    entry node's final stage (``execute_select`` plans there), so the
    distributed finalizer must fire the same errors at the same point.
    Returns ``is_aggregate``.
    """
    is_aggregate = bool(select.group_by) or any(
        contains_aggregate(item.expr) for item in select.items
    )
    if select.having is not None and not is_aggregate:
        raise SqlPlanError("HAVING requires GROUP BY or aggregates")
    if is_aggregate and select.select_star:
        raise SqlPlanError("SELECT * cannot be combined with aggregation")
    if select.approx and not is_aggregate:
        raise SqlPlanError(
            "APPROX requires an aggregate query (COUNT/SUM/AVG/...)"
        )
    return is_aggregate


def execute_joined_select(select: Select, rows: list[dict],
                          context: EvalContext,
                          scanned: int = 0) -> QueryResult:
    """Finalize a SELECT whose joins already ran distributed.

    ``rows`` are merged *bound* rows in central emission order (the
    coordinator sorts by tag before calling).  Re-binding them against
    a table would re-resolve unqualified collisions and corrupt the
    left-wins semantics baked in by the join merge, so this runs
    ``execute_plan``'s post-join stages directly: residual WHERE,
    aggregation or projection, and output shaping.
    """
    is_aggregate = validate_joined_select(select)
    if select.where is not None:
        rows = [
            row for row in rows
            if _truthy(_eval(select.where, row, context, None))
        ]
    if is_aggregate:
        out_rows, columns = _execute_aggregate(select, rows, context)
    else:
        out_rows, columns = _execute_projection(select, rows, context)
    final = _shape_output(select, out_rows, columns, context)
    if select.approx:
        columns, final = _approx_exact_output(columns, final)
    return QueryResult(columns=columns, rows=final, scanned=scanned)


# -- projection and aggregation ---------------------------------------------


def _output_name(item: SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, Column):
        return item.expr.name
    if isinstance(item.expr, FuncCall):
        return render_expr(item.expr)
    if isinstance(item.expr, LocalTimestamp):
        return "LOCALTIMESTAMP"
    return f"expr{position}"


def _execute_projection(select: Select, rows: list[dict],
                        context: EvalContext) -> tuple[list[dict], list[str]]:
    if select.select_star:
        columns = _star_columns(rows)
        out = []
        for row in rows:
            projected = {col: row.get(col) for col in columns}
            projected["__env__"] = row
            out.append(projected)
        return out, columns
    columns = [
        _output_name(item, position)
        for position, item in enumerate(select.items)
    ]
    out = []
    for row in rows:
        projected = {}
        for name, item in zip(columns, select.items):
            projected[name] = _eval(item.expr, row, context, None)
        projected["__env__"] = row
        out.append(projected)
    return out, columns


def _star_columns(rows: list[dict]) -> list[str]:
    """Unqualified column names for ``SELECT *``, in first-seen order."""
    columns: list[str] = []
    seen: set[str] = set()
    for row in rows:
        for key in row:
            if "." in key or key in seen:
                continue
            seen.add(key)
            columns.append(key)
    return columns


def unique_aggregates(select: Select) -> list[FuncCall]:
    """The de-duplicated aggregate calls of a SELECT, in the canonical
    items → HAVING → ORDER BY collection order.  Accumulator lists built
    from the same SELECT are positionally aligned with this list, which
    is what lets scan-side partial states merge with central ones."""
    aggregates: list[FuncCall] = []
    for item in select.items:
        collect_aggregates(item.expr, aggregates)
    if select.having is not None:
        collect_aggregates(select.having, aggregates)
    for order in select.order_by:
        collect_aggregates(order.expr, aggregates)
    # De-duplicate structurally identical calls (frozen dataclasses hash).
    unique: list[FuncCall] = []
    seen: set[FuncCall] = set()
    for call in aggregates:
        if call not in seen:
            seen.add(call)
            unique.append(call)
    return unique


def new_group_accs(unique: list[FuncCall]) -> list:
    """Fresh accumulators positionally aligned with ``unique``."""
    return [
        make_aggregate(
            call.name,
            bool(call.args) and isinstance(call.args[0], Star),
            call.distinct,
        )
        for call in unique
    ]


def accumulate_group_row(unique: list[FuncCall], accs: list, row: dict,
                         context: EvalContext) -> None:
    """Feed one bound row into a group's accumulators."""
    for call, acc in zip(unique, accs):
        if call.args and not isinstance(call.args[0], Star):
            acc.add(_eval(call.args[0], row, context, None))
        else:
            acc.add(1)


def group_key(select: Select, row: dict, context: EvalContext) -> tuple:
    """The hashable GROUP BY key of one bound row."""
    return tuple(
        _hashable(_eval(expr, row, context, None))
        for expr in select.group_by
    )


def _execute_aggregate(select: Select, rows: list[dict],
                       context: EvalContext) -> tuple[list[dict], list[str]]:
    unique = unique_aggregates(select)

    groups: dict[tuple, dict] = {}
    for row in rows:
        key = group_key(select, row, context)
        group = groups.get(key)
        if group is None:
            group = {"row": row, "accs": new_group_accs(unique)}
            groups[key] = group
        accumulate_group_row(unique, group["accs"], row, context)

    return _finalize_groups(select, unique, groups, context)


def _finalize_groups(select: Select, unique: list[FuncCall],
                     groups: dict,
                     context: EvalContext) -> tuple[list[dict], list[str]]:
    """HAVING filter + projection over accumulated groups."""
    if not select.group_by and not groups:
        # Aggregates over an empty input produce one row (COUNT = 0).
        groups[()] = {"row": {}, "accs": new_group_accs(unique)}

    columns = [
        _output_name(item, position)
        for position, item in enumerate(select.items)
    ]
    out = []
    for group in groups.values():
        agg_values = {
            call: acc.result()
            for call, acc in zip(unique, group["accs"])
        }
        representative = group["row"]
        if select.having is not None:
            keep = _truthy(
                _eval(select.having, representative, context, agg_values)
            )
            if not keep:
                continue
        projected = {}
        for name, item in zip(columns, select.items):
            projected[name] = _eval(
                item.expr, representative, context, agg_values
            )
        projected["__env__"] = representative
        projected["__aggs__"] = agg_values
        out.append(projected)
    return out, columns


def _distinct(rows: list[dict], columns: list[str]) -> list[dict]:
    seen: set[tuple] = set()
    out = []
    for row in rows:
        key = tuple(_hashable(row[col]) for col in columns)
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


def _execute_order(select: Select | Union, rows: list[dict],
                   context: EvalContext) -> list[dict]:
    def sort_key(row: dict) -> tuple:
        env = dict(row.get("__env__", {}))
        for key, value in row.items():
            if not key.startswith("__"):
                env[key] = value
        aggs = row.get("__aggs__")
        parts = []
        for order in select.order_by:
            value = _eval(order.expr, env, context, aggs)
            # NULLs sort last regardless of direction.
            null_rank = 1 if value is None else 0
            if order.descending:
                parts.append((null_rank, _Reversed(value)))
            else:
                parts.append((null_rank, _Sortable(value)))
        return tuple(parts)

    return sorted(rows, key=sort_key)


class _Sortable:
    """Comparison wrapper tolerating None (already ranked separately)."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_Sortable") -> bool:
        if self.value is None or other.value is None:
            return False
        try:
            return self.value < other.value
        except TypeError:
            raise incomparable(self.value, other.value) from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Sortable) and self.value == other.value


class _Reversed(_Sortable):
    def __lt__(self, other: "_Sortable") -> bool:
        if self.value is None or other.value is None:
            return False
        try:
            return other.value < self.value
        except TypeError:
            raise incomparable(other.value, self.value) from None


def _hashable(value: object) -> object:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


# -- expression evaluation -----------------------------------------------------


def _truthy(value: object) -> bool:
    """SQL WHERE semantics: only TRUE passes (NULL does not)."""
    return value is True or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value != 0
    )


def _eval(expr: Expr, row: dict, context: EvalContext,
          agg_values: dict | None) -> object:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, LocalTimestamp):
        return context.now_ms
    if isinstance(expr, Column):
        return _resolve_column(expr, row)
    if isinstance(expr, FuncCall):
        return _eval_call(expr, row, context, agg_values)
    if isinstance(expr, Unary):
        return _eval_unary(expr, row, context, agg_values)
    if isinstance(expr, Binary):
        return _eval_binary(expr, row, context, agg_values)
    if isinstance(expr, InList):
        return _eval_in(expr, row, context, agg_values)
    if isinstance(expr, Between):
        return _eval_between(expr, row, context, agg_values)
    if isinstance(expr, Like):
        return _eval_like(expr, row, context, agg_values)
    if isinstance(expr, IsNull):
        value = _eval(expr.operand, row, context, agg_values)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, CaseWhen):
        for condition, result in expr.branches:
            if _truthy(_eval(condition, row, context, agg_values)):
                return _eval(result, row, context, agg_values)
        if expr.default is not None:
            return _eval(expr.default, row, context, agg_values)
        return None
    if isinstance(expr, Star):
        raise SqlExecutionError("* is only valid in COUNT(*) or SELECT *")
    raise SqlExecutionError(f"cannot evaluate {type(expr).__name__}")


def _resolve_column(column: Column, row: dict) -> object:
    key = f"{column.table}.{column.name}" if column.table else column.name
    if key in row:
        return row[key]
    raise SqlExecutionError(f"unknown column {column.display()!r}")


def _eval_call(call: FuncCall, row: dict, context: EvalContext,
               agg_values: dict | None) -> object:
    if call.name in AGGREGATE_FUNCTIONS:
        if agg_values is None or call not in agg_values:
            raise SqlExecutionError(
                f"aggregate {call.name} used outside aggregation"
            )
        return agg_values[call]
    func = SCALAR_FUNCTIONS.get(call.name)
    if func is None:
        raise SqlExecutionError(f"unknown function {call.name}")
    args = [_eval(arg, row, context, agg_values) for arg in call.args]
    return func(args)


def _eval_unary(expr: Unary, row: dict, context: EvalContext,
                agg_values: dict | None) -> object:
    value = _eval(expr.operand, row, context, agg_values)
    if expr.op == "NOT":
        if value is None:
            return None
        return not _truthy(value)
    if value is None:
        return None
    if expr.op == "-":
        return -value
    return +value


_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}


def _eval_binary(expr: Binary, row: dict, context: EvalContext,
                 agg_values: dict | None) -> object:
    if expr.op == "AND":
        left = _eval(expr.left, row, context, agg_values)
        if left is False or (left is not None and not _truthy(left)):
            return False
        right = _eval(expr.right, row, context, agg_values)
        if right is False or (right is not None and not _truthy(right)):
            return False
        if left is None or right is None:
            return None
        return True
    if expr.op == "OR":
        left = _eval(expr.left, row, context, agg_values)
        if left is not None and _truthy(left):
            return True
        right = _eval(expr.right, row, context, agg_values)
        if right is not None and _truthy(right):
            return True
        if left is None or right is None:
            return None
        return False

    left = _eval(expr.left, row, context, agg_values)
    right = _eval(expr.right, row, context, agg_values)
    if left is None or right is None:
        return None
    if expr.op in _COMPARISONS:
        return _compare(expr.op, left, right)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        if right == 0:
            raise SqlExecutionError("division by zero")
        return left / right
    if expr.op == "%":
        if right == 0:
            raise SqlExecutionError("modulo by zero")
        return left % right
    raise SqlExecutionError(f"unknown operator {expr.op}")


def _compare(op: str, left: object, right: object) -> bool:
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    except TypeError:
        raise incomparable(left, right) from None


def _eval_in(expr: InList, row: dict, context: EvalContext,
             agg_values: dict | None) -> object:
    value = _eval(expr.operand, row, context, agg_values)
    if value is None:
        return None
    saw_null = False
    for item in expr.items:
        candidate = _eval(item, row, context, agg_values)
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not expr.negated
    if saw_null:
        return None
    return expr.negated


def _eval_between(expr: Between, row: dict, context: EvalContext,
                  agg_values: dict | None) -> object:
    value = _eval(expr.operand, row, context, agg_values)
    low = _eval(expr.low, row, context, agg_values)
    high = _eval(expr.high, row, context, agg_values)
    if value is None or low is None or high is None:
        return None
    result = low <= value <= high
    return (not result) if expr.negated else result


def _eval_like(expr: Like, row: dict, context: EvalContext,
               agg_values: dict | None) -> object:
    value = _eval(expr.operand, row, context, agg_values)
    pattern = _eval(expr.pattern, row, context, agg_values)
    if value is None or pattern is None:
        return None
    result = _like_match(str(value), str(pattern))
    return (not result) if expr.negated else result


#: Compiled LIKE patterns keyed by the raw pattern string, each with its
#: literal prefix (the characters before the first wildcard — what the
#: planner turns into a sorted-index range probe).  Patterns are almost
#: always literals, so the same handful recurs for every row of a scan;
#: the LRU bound guards against unbounded growth from data-derived
#: patterns (``x LIKE y``) while keeping the hot patterns resident —
#: the capacity follows ``CostModel.like_cache_max_patterns`` (applied
#: by :class:`~repro.env.Environment`), and hit/miss counts roll into
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
        compiled = (
            re.compile("".join(regex_parts)), pattern[:prefix_len]
        )
        _LIKE_CACHE.put(pattern, compiled)
    return compiled


def _like_regex(pattern: str) -> "re.Pattern[str]":
    return _compiled_like(pattern)[0]


def like_literal_prefix(pattern: str) -> str | None:
    """The literal prefix every LIKE match must start with, or ``None``
    when the pattern starts with a wildcard (no usable prefix).  A
    prefix equal to the whole pattern means wildcard-free: the pattern
    is an exact string match."""
    prefix = _compiled_like(pattern)[1]
    return prefix if prefix else None


def _like_match(text: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards (no escapes)."""
    return _like_regex(pattern).fullmatch(text) is not None


# -- stable entry points for incremental consumers ---------------------------
#
# The continuous-query subsystem maintains results per-delta and needs
# the exact row-binding, evaluation, naming, and hashing semantics of
# this executor — exposed here so it never re-implements (and drifts
# from) batch execution.


def bind_row(raw: dict, binding: str) -> dict:
    """Public form of the scan-time row binding."""
    return _bind_row(raw, binding)


def eval_expr(expr: Expr, row: dict, context: EvalContext,
              agg_values: dict | None = None) -> object:
    """Evaluate one expression exactly as the executor would."""
    return _eval(expr, row, context, agg_values)


def eval_predicate(expr: Expr, row: dict, context: EvalContext) -> bool:
    """WHERE semantics: only TRUE passes (NULL does not)."""
    return _truthy(_eval(expr, row, context, None))


def eval_having(expr: Expr, row: dict, context: EvalContext,
                agg_values: dict) -> bool:
    """HAVING semantics over a group's aggregate values."""
    return _truthy(_eval(expr, row, context, agg_values))


def truthy(value: object) -> bool:
    """WHERE truth of an evaluated value (only TRUE passes)."""
    return _truthy(value)


def compare_values(op: str, left: object, right: object) -> bool:
    """SQL comparison of two non-NULL values, with the executor's
    mixed-type :class:`SqlExecutionError`."""
    return _compare(op, left, right)


def match_like(text: str, pattern: str) -> bool:
    """SQL LIKE matching through the compiled-pattern cache."""
    return _like_match(text, pattern)


def like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex of a LIKE pattern (cached)."""
    return _like_regex(pattern)


def hashable_key(value: object) -> object:
    """The group/distinct key conversion used by aggregation."""
    return _hashable(value)


def output_column_name(item: SelectItem, position: int) -> str:
    """The output column name the executor would derive."""
    return _output_name(item, position)


def render_expr(expr: Expr) -> str:
    """Readable rendering used for derived output column names."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return f"'{expr.value}'"
        return str(expr.value)
    if isinstance(expr, Column):
        return expr.display()
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, LocalTimestamp):
        return "LOCALTIMESTAMP"
    if isinstance(expr, FuncCall):
        inner = ", ".join(render_expr(arg) for arg in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, Unary):
        return f"{expr.op} {render_expr(expr.operand)}"
    if isinstance(expr, Binary):
        return (
            f"({render_expr(expr.left)} {expr.op} "
            f"{render_expr(expr.right)})"
        )
    if isinstance(expr, InList):
        items = ", ".join(render_expr(item) for item in expr.items)
        negated = "NOT " if expr.negated else ""
        return f"{render_expr(expr.operand)} {negated}IN ({items})"
    if isinstance(expr, Between):
        negated = "NOT " if expr.negated else ""
        return (f"{render_expr(expr.operand)} {negated}BETWEEN "
                f"{render_expr(expr.low)} AND {render_expr(expr.high)}")
    if isinstance(expr, Like):
        negated = "NOT " if expr.negated else ""
        return (f"{render_expr(expr.operand)} {negated}LIKE "
                f"{render_expr(expr.pattern)}")
    if isinstance(expr, IsNull):
        negated = "NOT " if expr.negated else ""
        return f"{render_expr(expr.operand)} IS {negated}NULL"
    return type(expr).__name__
