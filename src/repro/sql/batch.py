"""Columnar batch execution of scan fragments.

Every shard scan compiles its :class:`~repro.sql.fragments.ScanFragment`
once into :class:`CompiledFragment` — closures for its pushed
conjuncts, group keys, aggregate feeds, and projection, built by the
one expression evaluator in :mod:`repro.sql.compiled` — and then
streams whole scan chunks through :class:`BatchAccumulator`.  Results
equal what the central executor computes from the same rows: the same
surviving rows in the same order, the same partial-group insertion
order and accumulator states, and — when a pushed expression fails —
the first error a row-by-row sweep would have raised.

Compiled fragments are cached process-wide in an LRU keyed by the frozen
fragment itself, so a query shape recurring across shards, retries, and
submissions compiles exactly once.
"""

from __future__ import annotations

from .compiled import (
    CompiledExpr,
    EvalContext,
    compile_expr,
    compile_predicate,
    compile_projection,
)
from .executor import aggregate_feeds, hashable_key, new_group_accs
from .fragments import PartialGroups, ScanFragment
from .lru import LruCache


class CompiledFragment:
    """A scan fragment's closures, compiled once and reused per chunk."""

    __slots__ = (
        "fragment", "predicates", "group_keys", "agg_feeds", "calls",
        "rep_columns", "project",
    )

    def __init__(self, fragment: ScanFragment) -> None:
        binding = fragment.binding
        self.fragment = fragment
        self.predicates: tuple[CompiledExpr, ...] = tuple(
            compile_predicate(conjunct, binding)
            for conjunct in fragment.pushed
        )
        partial = fragment.partial
        if partial is not None:
            self.group_keys: tuple[CompiledExpr, ...] = tuple(
                compile_expr(expr, binding) for expr in partial.group_by
            )
            self.agg_feeds: tuple[CompiledExpr | None, ...] = tuple(
                aggregate_feeds(partial.calls, binding)
            )
            self.calls = list(partial.calls)
            self.rep_columns = partial.rep_columns
        else:
            self.group_keys = ()
            self.agg_feeds = ()
            self.calls = []
            self.rep_columns = ()
        self.project = compile_projection(fragment.projection)

    @property
    def predicate_count(self) -> int:
        return len(self.predicates)


#: Process-wide compiled-fragment cache; frozen fragments hash by value,
#: so structurally identical fragments share one compilation.
# lint: allow(shared-state) bounded LRU of idempotent compile results;
# reads and writes are order-independent and the whole simulation runs
# on one event-loop thread, so no lock is needed.
_FRAGMENT_CACHE: LruCache[ScanFragment, CompiledFragment] = LruCache(256)


def compile_fragment(fragment: ScanFragment) -> tuple[CompiledFragment, bool]:
    """The fragment's compiled form and whether it was a cache hit."""
    compiled = _FRAGMENT_CACHE.get(fragment)
    if compiled is not None:
        return compiled, True
    compiled = CompiledFragment(fragment)
    _FRAGMENT_CACHE.put(fragment, compiled)
    return compiled, False


def fragment_cache_stats() -> tuple[int, int]:
    """Process-wide ``(hits, misses)`` of the compiled-fragment cache."""
    return _FRAGMENT_CACHE.hits, _FRAGMENT_CACHE.misses


class BatchAccumulator:
    """Per-(table, node, attempt) scan-side state of one fragment.

    Feeds whole chunks: predicates run conjunct-major over the chunk
    (each conjunct only over the survivors of the previous one, so a
    row a conjunct eliminates never reaches a later one), then
    survivors fold into groups or projected rows in row order.  Errors
    raised by compiled expressions are collected per row and the
    minimal-row error is re-raised at the end of the chunk — the error
    a row-major sweep surfaces first.
    """

    def __init__(self, compiled: CompiledFragment,
                 context: EvalContext) -> None:
        self.compiled = compiled
        self.context = context
        self.rows: list[dict] = []
        self.groups: dict[tuple, list] = {}
        self.survived = 0

    def add_batch(self, raws: list[dict]) -> list[dict]:
        """Feed one chunk of raw rows; returns the surviving raws (in
        row order, for repeatable-read lock acquisition)."""
        compiled = self.compiled
        context = self.context
        errors: dict[int, Exception] = {}
        survivors = list(range(len(raws)))
        for predicate in compiled.predicates:
            if not survivors:
                break
            passed = []
            for index in survivors:
                try:
                    if predicate(raws[index], context):
                        passed.append(index)
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    errors[index] = exc
            survivors = passed
        surviving_raws: list[dict] = []
        if compiled.fragment.partial is not None:
            self._fold_groups(raws, survivors, errors, surviving_raws)
        else:
            project = compiled.project
            for index in survivors:
                raw = raws[index]
                self.rows.append(project(raw))
                surviving_raws.append(raw)
                self.survived += 1
        if errors:
            # A row-major sweep stops at the first erroring row; the
            # batch path reproduces exactly that error.
            raise errors[min(errors)]
        return surviving_raws

    def _fold_groups(self, raws: list[dict], survivors: list[int],
                     errors: dict[int, Exception],
                     surviving_raws: list[dict]) -> None:
        compiled = self.compiled
        context = self.context
        group_keys = compiled.group_keys
        agg_feeds = compiled.agg_feeds
        rep_columns = compiled.rep_columns
        groups = self.groups
        for index in survivors:
            raw = raws[index]
            try:
                key = tuple(
                    hashable_key(fn(raw, context)) for fn in group_keys
                )
                group = groups.get(key)
                if group is None:
                    rep = {
                        name: raw[name]
                        for name in rep_columns
                        if name in raw
                    }
                    group = [rep, new_group_accs(compiled.calls)]
                    groups[key] = group
                for feed, acc in zip(agg_feeds, group[1]):
                    acc.add(1 if feed is None else feed(raw, context))
            except Exception as exc:  # noqa: BLE001 — re-raised by caller
                errors[index] = exc
                continue
            surviving_raws.append(raw)
            self.survived += 1

    def payload(self) -> "list[dict] | PartialGroups":
        if self.compiled.fragment.partial is not None:
            return PartialGroups(
                entries=[
                    (key, rep, accs)
                    for key, (rep, accs) in self.groups.items()
                ]
            )
        return self.rows


def run_fragment_batches(
    compiled: CompiledFragment,
    raws: list[dict],
    context: EvalContext,
    chunk_entries: int,
) -> tuple[list[dict], "list[dict] | PartialGroups", int]:
    """Run a whole shard's rows through the compiled fragment in
    ``chunk_entries``-sized chunks.

    Returns ``(surviving_raws, payload, batches)``.
    """
    accumulator = BatchAccumulator(compiled, context)
    lock_rows: list[dict] = []
    chunk = max(1, chunk_entries)
    batches = 0
    for start in range(0, len(raws), chunk):
        lock_rows.extend(accumulator.add_batch(raws[start:start + chunk]))
        batches += 1
    return lock_rows, accumulator.payload(), batches


# -- broadcast probe inside the scan sweep -----------------------------------


def run_broadcast_probe(
    payload: list[dict],
    node_tag: tuple,
    binding: str,
    using: tuple,
    compiled_probe: "CompiledExpr | None",
    kind: str,
    index: dict,
    right_columns: set,
    context: EvalContext,
) -> "tuple[list[tuple[tuple, dict]], tuple[tuple, Exception] | None]":
    """Probe a broadcast build index as the tail of the scan sweep.

    ``payload`` is the fragment's surviving projected rows in sweep
    order; each becomes a tagged bound row ``((node_tag + (position,)),
    merged)`` exactly as :func:`repro.sql.executor.probe_join_index`
    would emit it.  The probe key runs through the compiled closure —
    this is the "probed during the scan sweep" half of the broadcast
    strategy.  Errors are
    captured with their row tag (not raised): scan errors of other
    tables and build errors outrank probe errors, and only the
    coordinator sees all of them.
    """
    from .executor import bind_row, merge_join_rows, null_extend_row

    result: "list[tuple[tuple, dict]]" = []
    error: "tuple[tuple, Exception] | None" = None
    for position, raw in enumerate(payload):
        tag = (node_tag + (position,),)
        left = bind_row(raw, binding)
        if using:
            key = tuple(left.get(col) for col in using)
            matches = index.get(key, []) if not any(
                part is None for part in key
            ) else []
        else:
            try:
                key = compiled_probe(raw, context)
            except Exception as exc:  # noqa: BLE001 — ranked by the coordinator
                if error is None:
                    error = (tag, exc)
                continue
            matches = index.get(key, []) if key is not None else []
        if matches:
            result.extend(
                (tag + (right_tag,), merge_join_rows(left, right))
                for right_tag, right in matches
            )
        elif kind == "LEFT":
            result.append((tag + ((),), null_extend_row(left, right_columns)))
    return result, error
