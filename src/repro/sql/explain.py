"""EXPLAIN-style plan rendering for debugging and documentation.

``explain(sql, catalog)`` returns a readable tree of what the executor
will do: scans, join strategies (hash vs nested loop), filters,
aggregation, and output shaping.  Used by tests and handy in examples
to show *why* a query is cheap or expensive.
"""

from __future__ import annotations

from .ast import Select, Union
from .executor import render_expr
from .fragments import DistributedPlan, KeyRange, KeySet, ScanFragment
from .parser import parse
from .planner import Catalog, Plan, conjoin, plan_select


def explain(sql: str, catalog: Catalog) -> str:
    """Render the logical plan of ``sql`` against ``catalog``."""
    statement = parse(sql)
    if isinstance(statement, Union):
        kind = "UNION ALL" if statement.all else "UNION"
        parts = [f"{kind} [{len(statement.branches)} branches]"]
        parts.extend(_render_sort(statement))
        for index, branch in enumerate(statement.branches, start=1):
            plan = plan_select(branch, catalog)
            parts.append(f"  branch {index}:")
            parts.extend("  " + line for line in _render_plan(plan))
        return "\n".join(parts)
    plan = plan_select(statement, catalog)
    return "\n".join(_render_plan(plan))


def _render_sort(statement: Select | Union) -> list[str]:
    if statement.order_by:
        keys = ", ".join(
            render_expr(item.expr) + (" DESC" if item.descending else "")
            for item in statement.order_by
        )
        return [f"  sort: {keys}"
                + (f"  limit {statement.limit}"
                   if statement.limit is not None else "")]
    if statement.limit is not None:
        return [f"  limit: {statement.limit}"]
    return []


def _render_plan(plan: Plan) -> list[str]:
    select = plan.select
    lines: list[str] = []
    lines.append(_render_output(select, plan))
    lines.extend(_render_sort(select))
    if plan.is_aggregate:
        if select.group_by:
            keys = ", ".join(render_expr(e) for e in select.group_by)
            lines.append(f"  aggregate: group by {keys}")
        else:
            lines.append("  aggregate: single group")
        if select.having is not None:
            lines.append(f"  having: {render_expr(select.having)}")
    if select.where is not None:
        lines.append(f"  filter: {render_expr(select.where)}")
    for step in reversed(plan.joins):
        lines.append("  " + _render_join(step))
    lines.append(f"  scan: {plan.base_source.name}"
                 + (f" AS {plan.base_binding}"
                    if plan.base_binding != plan.base_source.name
                    else ""))
    return lines


def _render_output(select: Select, plan: Plan) -> str:
    if select.select_star:
        shape = "*"
    else:
        shape = ", ".join(
            (item.alias or render_expr(item.expr))
            for item in select.items
        )
    prefix = "select"
    if select.approx:
        prefix += " approx"
    if select.distinct:
        prefix += " distinct"
    return f"{prefix}: {shape}"


def render_distributed(select: Select, plan: DistributedPlan) -> list[str]:
    """Render a distributed plan: the final (entry-node) fragment on
    top, then each table's scan fragment with its pushed predicates,
    projection, partial aggregation and key filter."""
    lines: list[str] = [_render_output(select, None)]
    final = plan.final_select
    if plan.partial is not None:
        calls = ", ".join(render_expr(c) for c in plan.partial.calls)
        lines.append(f"  final: merge partial aggregates ({calls})")
        if plan.partial.group_by:
            keys = ", ".join(
                render_expr(e) for e in plan.partial.group_by
            )
            lines.append(f"    group by: {keys}")
    elif plan.residual is not None or final.joins:
        lines.append("  final: join/filter shipped rows")
    else:
        lines.append("  final: concatenate shipped rows")
    if final.having is not None:
        lines.append(f"  having: {render_expr(final.having)}")
    if plan.residual is not None:
        lines.append(f"  residual filter: {render_expr(plan.residual)}")
    for name in sorted(plan.fragments):
        lines.extend(_render_fragment(plan.fragments[name]))
    return lines


def _render_fragment(fragment: ScanFragment) -> list[str]:
    lines = [f"  scan: {fragment.table}"
             + (f" AS {fragment.binding}"
                if fragment.binding != fragment.table else "")]
    if fragment.is_passthrough:
        lines.append("    ship: all rows (no pushdown for this table)")
        return lines
    if fragment.pushed:
        pushed = conjoin(list(fragment.pushed))
        lines.append(f"    pushed filter: {render_expr(pushed)}")
    if fragment.partial is not None:
        calls = ", ".join(
            render_expr(c) for c in fragment.partial.calls
        )
        lines.append(f"    partial aggregate: {calls}")
    elif fragment.projection is not None:
        lines.append("    projection: "
                     + ", ".join(fragment.projection))
    else:
        lines.append("    projection: * (all columns)")
    key_filter = fragment.key_filter
    if isinstance(key_filter, KeySet):
        lines.append(f"    key filter: {len(key_filter.keys)} pinned "
                     "key(s) (partition pruning)")
    elif isinstance(key_filter, KeyRange):
        low = "-inf" if key_filter.low is None else repr(key_filter.low)
        high = ("+inf" if key_filter.high is None
                else repr(key_filter.high))
        lines.append(f"    key filter: range {low} .. {high} "
                     "(zone-map pruning on snapshots)")
    return lines


def _render_join(step) -> str:
    kind = step.kind.lower()
    if step.using:
        strategy = f"hash join USING({', '.join(step.using)})"
    elif step.hash_on is not None:
        probe, build = step.hash_on
        strategy = (f"hash join ON {render_expr(probe)} = "
                    f"{render_expr(build)}")
    else:
        condition = render_expr(step.on) if step.on else "TRUE"
        strategy = f"nested-loop join ON {condition}"
    return f"{kind} {strategy} with {step.source.name}"
