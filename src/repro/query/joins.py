"""Distributed multi-way join execution.

The query service executes eligible JOIN statements as a pipeline of
per-step build/probe *stages* instead of shipping every table's rows to
the entry node.  Each step's physical strategy is chosen up front by
:func:`repro.sql.access.choose_join_path` from CostModel-priced
candidates:

* **co-partitioned hash join** — the join key is the partition key on
  both sides and the tables share partition placement, so each node
  joins its local shards and no join input crosses the network;
* **broadcast hash join** — the build side is estimated small (sketch /
  zone-map estimates feed the chooser), built once and replicated to
  every node holding probe rows, which probe locally — during the
  vectorized sweep via compiled key closures when the probe side is
  the base table's scan payload;
* **shuffle-hash join** — the general fallback: both sides repartition
  by join key across the surviving nodes, which build and probe their
  slice in parallel;
* **index-nested-loop join** — an index-assisted broadcast: the build
  side is resolved through a secondary index on the join column
  (probing only the keys the probe side actually contains) instead of
  being scanned at all.

Correctness never depends on the strategy: the coordinator manipulates
the actual rows in-process (the data plane) while the chosen strategy
decides *where* simulated time and network bytes are billed (the
billing plane) — the same split the scan machinery uses.  Every row
carries an *order tag* (a tuple of per-step ``(node, position)``
components; LEFT-join NULL padding appends ``()``), and the entry node
sorts merged rows by tag before finalizing, which reproduces the
central left-deep execution's row order bit for bit.  Error precedence
also mirrors central execution: scan-fragment errors (table FROM
order, node-sorted) outrank statement-shape validation, which outranks
the first build-key error (minimum right tag), which outranks the
first probe-key error (minimum left tag); residual/projection errors
surface naturally from the sorted merged rows.

Failures restart the whole join: any relevant node death bumps the
join attempt token together with every table's scan attempt, voiding
in-flight stages and shipments, and re-dispatches all scans onto the
survivors after the retry backoff — build/probe stages are never
resumed half-way, because a stage's inputs may have lived on the dead
node.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.partition import copartitioned_tables, stable_hash
from ..errors import QueryAbortedError
from ..kvstore.indexes import EqProbe
from ..sql.access import JoinCandidate, JoinPath, choose_join_path
from ..sql.ast import Binary, Column, Literal, Select
from ..sql.batch import compile_probe_key, run_broadcast_probe, run_fragment_batches
from ..sql.executor import (
    EvalContext,
    bind_row,
    build_join_index,
    collect_right_columns,
    execute_joined_select,
    probe_join_index,
    validate_joined_select,
)
from ..sql.fragments import JoinFragment, KeySet, join_fragments, partition_aligned_binding


class _JoinLocalAck:
    """Scan payload held on its node for a later join stage.

    The rows travel in-process (data plane) but the shipment bills only
    a framed control message (``row_overhead_bytes``): in join mode the
    node's shard output is a *join input kept local*, not a result
    shipped to the entry node.  ``__len__`` is 0 so the generic arrival
    path counts no shipped rows; the held rows are discarded with the
    payload buffer when a retry voids the table.
    """

    __slots__ = ("node_id", "rows")

    def __init__(self, node_id: int, rows: list) -> None:
        self.node_id = node_id
        self.rows = rows

    def __len__(self) -> int:
        return 0


@dataclass
class JoinPlan:
    """Chosen strategies and table roles for one join-mode query."""

    steps: tuple[JoinFragment, ...]
    paths: tuple[JoinPath, ...]
    final_select: Select
    base_table: str
    base_binding: str
    #: tables whose scan payload stays node-local (ack shipment).
    local: frozenset
    #: index-nested-loop build tables — never scanned at all.
    excluded: frozenset
    #: bumped (with every table attempt) to void in-flight stages.
    attempt: int = 0
    #: True while build/probe stages are running — any node death is
    #: then relevant, because stage inputs live across the cluster.
    stage_active: bool = False


# -- strategy selection ------------------------------------------------------


def _table_args(kind: str, snapshot_id) -> tuple:
    return () if kind == "live" else (snapshot_id,)


def _pushed_equality(conjunct) -> "tuple[str, object] | None":
    """``col = literal`` (either side) → ``(column name, value)``."""
    if not isinstance(conjunct, Binary) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, Column) and isinstance(right, Literal):
        return left.name, right.value
    if isinstance(right, Column) and isinstance(left, Literal):
        return right.name, left.value
    return None


def _estimate_rows(service, table, fragment, args) -> tuple[int, str]:
    """Estimated post-pushdown rows of one side, with its source."""
    nodes = service.cluster.surviving_node_ids()
    partitions: list[int] = []
    entries = 0
    if hasattr(table, "partition_entry_count"):
        for node_id in nodes:
            for partition in table.partitions_on_node(node_id):
                partitions.append(partition)
                entries += table.partition_entry_count(partition, *args)
    else:
        entries = sum(table.entries_on_node(node_id, *args)
                      for node_id in nodes)
    if fragment is not None and isinstance(fragment.key_filter, KeySet):
        return min(entries, len(fragment.key_filter.keys)), "zone-map"
    if (
        fragment is not None
        and fragment.pushed
        and partitions
        and service.sketch_enabled
        and hasattr(table, "approx_estimate")
        and table.sketch_ready(*args)
    ):
        for conjunct in fragment.pushed:
            equality = _pushed_equality(conjunct)
            if equality is None:
                continue
            column, value = equality
            if not table.has_sketch(column, "countmin"):
                continue
            answer = table.approx_estimate(
                partitions, "count_eq", column, value, *args
            )
            if answer is not None:
                estimate = max(0, int(round(answer[0])))
                return min(entries, estimate), "sketch"
    return entries, "entries"


def _row_width_bytes(costs, fragment) -> int:
    if fragment is not None and fragment.projection is not None:
        return (costs.row_overhead_bytes
                + len(fragment.projection) * costs.column_bytes)
    return costs.row_bytes


def _index_kind_for(service, step: JoinFragment, table, args) -> str | None:
    """Index kind on the build column, for index-nested-loop pricing."""
    if not service.index_enabled:
        return None
    if step.using:
        column = step.using[0] if len(step.using) == 1 else None
    elif isinstance(step.build, Column):
        column = step.build.name
    else:
        column = None
    if column is None:
        return None
    ready = getattr(table, "index_ready", None)
    if ready is None or not ready(*args):
        return None
    return table.index_columns().get(column)


def choose_join_strategies(service, select: Select, plan, table_kinds,
                           snapshot_id):
    """Per-step strategy choices, or ``None`` when the statement must
    run its joins centrally.  Shared by execution and ``explain``."""
    if not service.distributed_joins_enabled:
        return None
    if plan is None or plan.partial is not None:
        return None
    if isinstance(snapshot_id, list):
        return None
    steps = join_fragments(select)
    if steps is None:
        return None
    kinds = dict(table_kinds)
    nodes = service.cluster.surviving_node_ids()
    costs = service.costs
    base_name = select.table.name
    base_binding = select.table.binding
    base_fragment = plan.fragments.get(base_name)
    base_args = _table_args(kinds[base_name], snapshot_id)
    base_table = service._table_for(base_name, kinds[base_name])
    left_rows, _ = _estimate_rows(service, base_table, base_fragment,
                                  base_args)
    left_bytes = _row_width_bytes(costs, base_fragment)
    #: bindings whose rows still sit where their partition key placed
    #: them (base initially; a co-partitioned step keeps its right side
    #: aligned too, a shuffle step invalidates everything).
    aligned = {base_binding}
    binding_table = {base_binding: (base_table, base_name)}
    left_native = True
    paths: list[JoinPath] = []
    for step in steps:
        args = _table_args(kinds[step.table], snapshot_id)
        right_table = service._table_for(step.table, kinds[step.table])
        fragment = plan.fragments.get(step.table)
        right_rows, source = _estimate_rows(service, right_table,
                                            fragment, args)
        aligned_binding = partition_aligned_binding(step)
        probe_binding = (base_binding if aligned_binding == ""
                         else aligned_binding)
        partition_key_join = (aligned_binding is not None
                              and probe_binding in aligned)
        copartitioned = False
        if partition_key_join:
            left_ref = binding_table.get(probe_binding)
            copartitioned = left_ref is not None and copartitioned_tables(
                left_ref[0], right_table, nodes
            )
        candidate = JoinCandidate(
            table=step.table,
            kind=step.kind,
            left_rows=left_rows,
            right_rows=right_rows,
            left_row_bytes=left_bytes,
            right_row_bytes=_row_width_bytes(costs, fragment),
            node_count=len(nodes),
            partition_key_join=partition_key_join,
            copartitioned=copartitioned,
            left_native=left_native,
            index_kind=_index_kind_for(service, step, right_table, args),
            estimate_source=source,
        )
        path = choose_join_path(candidate, costs)
        paths.append(path)
        if path.strategy == "copartitioned":
            aligned.add(step.binding)
            binding_table[step.binding] = (right_table, step.table)
        elif path.strategy == "shuffle":
            left_native = False
            aligned.clear()
        left_rows = max(left_rows, right_rows)
        left_bytes += _row_width_bytes(costs, fragment)
    return steps, tuple(paths)


def plan_distributed_joins(service, record) -> JoinPlan | None:
    """Decide join mode for one query; updates the strategy counters."""
    execution = record.execution
    select = record.select
    if not isinstance(select, Select) or not select.joins:
        return None
    if not execution.materialize:
        return None
    chosen = choose_join_strategies(
        service, select, record.plan, record.table_kinds,
        record.snapshot_id,
    )
    if chosen is None or any(
        path.strategy == "central" for path in chosen[1]
    ):
        # One central step makes the whole statement central: the entry
        # node needs every table's rows anyway, so a mixed pipeline
        # would only add stages without saving shipping.
        execution.counters["joins_central"] += len(select.joins)
        execution.join_strategies = ["central"] * len(select.joins)
        return None
    steps, paths = chosen
    execution.join_strategies = [path.strategy for path in paths]
    local = {select.table.name}
    excluded = set()
    for step, path in zip(steps, paths):
        if path.strategy == "copartitioned":
            execution.counters["joins_copartitioned"] += 1
            local.add(step.table)
        elif path.strategy == "broadcast":
            execution.counters["joins_broadcast"] += 1
        elif path.strategy == "shuffle":
            execution.counters["joins_shuffle"] += 1
            local.add(step.table)
        elif path.strategy == "index-nested-loop":
            execution.counters["joins_index_nested"] += 1
            excluded.add(step.table)
    return JoinPlan(
        steps=steps,
        paths=paths,
        final_select=record.plan.final_select,
        base_table=select.table.name,
        base_binding=select.table.binding,
        local=frozenset(local),
        excluded=frozenset(excluded),
    )


def explain_join_lines(service, select: Select, plan,
                       table_kinds) -> list[str]:
    """Per-step strategy lines for ``QueryService.explain``."""
    if not isinstance(select, Select) or not select.joins:
        return []
    if not service.distributed_joins_enabled:
        return ["  joins: central (distributed joins disabled)"]
    kinds = dict(table_kinds)
    snapshot_id = None
    if any(kind == "snapshot" for kind in kinds.values()):
        snapshot_id = service.store.committed_ssid
        if snapshot_id is None:
            return ["  joins: central (no committed snapshot to price "
                    "against)"]
    chosen = choose_join_strategies(service, select, plan, table_kinds,
                                    snapshot_id)
    if chosen is None:
        return ["  joins: central (statement not eligible for "
                "distributed join execution)"]
    steps, paths = chosen
    lines: list[str] = []
    central = any(path.strategy == "central" for path in paths)
    if central:
        lines.append("  joins: central (a step priced central, so the "
                     "entry node needs every table anyway)")
    for step, path in zip(steps, paths):
        lines.append(f"  join [{step.table}]: {path.describe()}")
        lines.extend(f"    rejected {reason}" for reason in path.rejected)
    return lines


# -- failure handling --------------------------------------------------------


def join_failure_relevant(record, node_id: int) -> bool:
    """Whether a node death must restart this join-mode query."""
    join = record.join
    if join.stage_active:
        return True  # stage inputs/outputs live across the cluster
    return any(
        node_id in nodes for nodes in record.state["nodes"].values()
    )


def restart_join(service, record) -> None:
    """Void every in-flight scan and stage; re-dispatch after backoff.

    Stages are never resumed: a build index or probe slice may have
    lived on the dead node, so the only faithful recovery is to re-scan
    everything on the survivors and re-run the pipeline.
    """
    join = record.join
    state = record.state
    join.attempt += 1
    join.stage_active = False
    for table in state["rows"]:
        state["attempt"][table] += 1
        state["nodes"][table] = set()
        state["rows"][table].clear()
    state["pending"] = 0
    service.sim.schedule(
        service.retry_policy.retry_backoff_ms,
        _join_redispatch, service, record, join.attempt,
    )


def _join_redispatch(service, record, token: int) -> None:
    execution = record.execution
    join = record.join
    if execution.done or join.attempt != token:
        return
    alive = service.cluster.surviving_node_ids()
    if not alive:
        service._abort(execution, QueryAbortedError("no surviving nodes"))
        return
    state = record.state
    shards: list[tuple[str, str, int]] = []
    for stripe, (table_name, kind) in enumerate(record.table_kinds):
        if table_name in join.excluded:
            continue
        state["stripe"][table_name] = stripe * max(1, len(alive))
        targets = service._scan_targets(record, table_name, kind)
        state["nodes"][table_name] = set(targets)
        shards.extend((table_name, kind, n) for n in targets)
    state["pending"] = len(shards)
    if not shards:
        start_join_pipeline(service, record)
        return
    for table_name, kind, node_id in shards:
        service._scan_shard(record, table_name, kind, node_id,
                            state["attempt"][table_name])


# -- the stage pipeline ------------------------------------------------------


class _Countdown:
    """Run ``done`` after ``n`` completions (immediately when n == 0)."""

    __slots__ = ("remaining", "done")

    def __init__(self, remaining: int, done) -> None:
        self.remaining = remaining
        self.done = done
        if remaining == 0:
            done()

    def one(self, *_args) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.done()


def start_join_pipeline(service, record) -> None:
    """All scans landed: surface canonical scan errors, validate the
    statement shape, then run the per-step stages."""
    execution = record.execution
    shard_error = service._first_shard_error(record)
    if shard_error is not None:
        service._finish_execution(execution, None, shard_error)
        return
    join = record.join
    try:
        validate_joined_select(join.final_select)
    except Exception as exc:  # same errors central plan_select raises
        service._finish_execution(execution, None, exc)
        return
    join.stage_active = True
    _PipelineRunner(service, record).run()


class _PipelineRunner:
    """Executes one query's join stages; one instance per (re)start."""

    def __init__(self, service, record) -> None:
        self.service = service
        self.record = record
        self.join = record.join
        self.execution = record.execution
        self.state = record.state
        self.costs = service.costs
        self.token = self.join.attempt
        self.context = EvalContext(now_ms=service.sim.now)
        #: holder node -> [(tag, bound row), ...] in tag order.
        self.left: dict[int, list] = {}
        #: holder node -> projected raw payload (base table only; feeds
        #: the vectorized broadcast probe of step 0, then dropped).
        self.raw_left: "dict[int, list] | None" = None
        self.scanned = 0

    # -- plumbing -------------------------------------------------------

    def _live(self) -> bool:
        return (not self.execution.done
                and self.join.attempt == self.token)

    def _fail(self, error: Exception) -> None:
        if self._live():
            self.service._finish_execution(self.execution, None, error)

    def _store_bill(self, node_id: int, stripe: int, duration: float,
                    then, *args) -> None:
        server = self.service.cluster.node(node_id).store_server(stripe)
        server.submit(duration, then, *args)

    def _payload_rows(self, table: str) -> dict[int, list]:
        per_node = self.state["rows"][table]
        return {
            node_id: (payload.rows
                      if isinstance(payload, _JoinLocalAck) else payload)
            for node_id, payload in per_node.items()
        }

    def _raw_bytes(self, raws) -> int:
        costs = self.costs
        return sum(
            costs.row_overhead_bytes + len(raw) * costs.column_bytes
            for raw in raws
        )

    def _bound_bytes(self, tagged) -> int:
        costs = self.costs
        total = 0
        for _tag, row in tagged:
            width = sum(1 for name in row if "." not in name)
            total += costs.row_overhead_bytes + width * costs.column_bytes
        return total

    def _send(self, src: int, dst: int, label: str, step_index: int,
              nbytes: int, then, *args) -> None:
        channel = (label, self.execution.qid, step_index, src, dst,
                   self.token)
        self.execution.channels.add(channel)
        self.service.cluster.network.send(
            src, dst, then, *args, nbytes=nbytes, channel=channel,
        )

    def _tagged_rights(self, step: JoinFragment,
                       raw_by_node: dict[int, list]) -> list:
        return [
            ((node_id, position), bind_row(raw, step.binding))
            for node_id in sorted(raw_by_node)
            for position, raw in enumerate(raw_by_node[node_id])
        ]

    # -- pipeline -------------------------------------------------------

    def run(self) -> None:
        base_rows = self._payload_rows(self.join.base_table)
        self.raw_left = {n: base_rows[n] for n in sorted(base_rows)}
        binding = self.join.base_binding
        for node_id in sorted(base_rows):
            self.left[node_id] = [
                (((node_id, position),), bind_row(raw, binding))
                for position, raw in enumerate(base_rows[node_id])
            ]
        self.scanned = sum(len(rows) for rows in base_rows.values())
        self._step(0)

    def _step(self, index: int) -> None:
        if not self._live():
            return
        if index >= len(self.join.steps):
            self._final_ship()
            return
        step = self.join.steps[index]
        strategy = self.join.paths[index].strategy
        if strategy == "index-nested-loop":
            self._run_index_nested(index, step)
            return
        raw_by_node = self._payload_rows(step.table)
        rights = self._tagged_rights(step, raw_by_node)
        self.scanned += len(rights)
        self.execution.counters["join_build_rows"] += len(rights)
        right_columns = collect_right_columns(
            [row for _tag, row in rights]
        )
        build_index, build_error = build_join_index(
            rights, step.using, step.build, self.context
        )
        if strategy == "copartitioned":
            self._run_copartitioned(index, step, raw_by_node,
                                    build_index, build_error,
                                    right_columns)
        elif strategy == "broadcast":
            self._run_broadcast(index, step, raw_by_node, build_index,
                                build_error, right_columns, len(rights))
        else:
            self._run_shuffle(index, step, raw_by_node, rights,
                              build_index, build_error, right_columns)

    # A build-key error outranks every probe error (central evaluates
    # the whole build side before probing), so stages check it after
    # their build billing and before any probe work.

    def _probe_all(self, step: JoinFragment, build_index: dict,
                   right_columns: set,
                   lefts: dict[int, list]) -> tuple[dict, object]:
        """Probe every holder's rows; returns (results per holder,
        minimum-tag probe error)."""
        results: dict[int, list] = {}
        probe_error = None
        for node_id in sorted(lefts):
            rows, error = probe_join_index(
                lefts[node_id], build_index, step.using, step.probe,
                step.kind, right_columns, self.context,
            )
            if rows:
                results[node_id] = rows
            if error is not None and (
                probe_error is None or error[0] < probe_error[0]
            ):
                probe_error = error
        return results, probe_error

    def _advance(self, index: int, results: dict[int, list],
                 probe_error) -> None:
        if not self._live():
            return
        if probe_error is not None:
            self._fail(probe_error[1])
            return
        self.left = results
        self.raw_left = None
        self._step(index + 1)

    # -- co-partitioned -------------------------------------------------

    def _run_copartitioned(self, index: int, step: JoinFragment,
                           raw_by_node: dict, build_index: dict,
                           build_error, right_columns: set) -> None:
        # Build and probe are local to every node; matching rows are
        # co-located by the partition key, so probing the global index
        # returns exactly the local matches.  Nothing crosses the wire.
        costs = self.costs
        holders = sorted(set(self.left) | set(raw_by_node))

        def stages_done() -> None:
            if not self._live():
                return
            if build_error is not None:
                self._fail(build_error[1])
                return
            results, probe_error = self._probe_all(
                step, build_index, right_columns, self.left
            )
            self._advance(index, results, probe_error)

        countdown = _Countdown(len(holders), stages_done)
        for node_id in holders:
            duration = (
                len(raw_by_node.get(node_id, ()))
                * costs.join_build_entry_ms
                + len(self.left.get(node_id, ()))
                * costs.join_probe_entry_ms
            )
            self._store_bill(node_id, node_id + index, duration,
                             countdown.one)

    # -- broadcast ------------------------------------------------------

    def _run_broadcast(self, index: int, step: JoinFragment,
                       raw_by_node: dict, build_index: dict,
                       build_error, right_columns: set,
                       build_rows: int) -> None:
        costs = self.costs
        execution = self.execution
        service = self.service
        build_bytes = sum(
            self._raw_bytes(raw_by_node[node_id])
            for node_id in raw_by_node
        )
        entry = execution.entry_node
        compiled_probe = None
        sweep = (index == 0 and self.raw_left is not None
                 and service.vectorized_enabled)
        if sweep and step.probe is not None:
            compiled_probe = compile_probe_key(
                step.probe, self.join.base_binding
            )
        results: dict[int, list] = {}
        errors: list = []

        def probes_done() -> None:
            if not self._live():
                return
            probe_error = None
            for error in errors:
                if probe_error is None or error[0] < probe_error[0]:
                    probe_error = error
            self._advance(index, results, probe_error)

        def built() -> None:
            attempt = self.token
            if execution.done or self.join.attempt != attempt:
                return  # a retry voided this stage while we were billed
            if build_error is not None:
                self._fail(build_error[1])
                return
            holders = sorted(self.left)
            countdown = _Countdown(len(holders), probes_done)
            for node_id in holders:
                execution.counters["join_bytes_broadcast"] += build_bytes
                execution.counters["query_bytes_shipped"] += build_bytes
                self._send(entry, node_id, "join-bcast", index,
                           build_bytes, self._broadcast_arrived, index,
                           step, node_id, build_index, right_columns,
                           sweep, compiled_probe, results, errors,
                           countdown)

        # The build side reached the entry node through the normal scan
        # shipment; it is built once there, then replicated.
        pool = service.cluster.node(entry).query_pool
        pool.submit(("query", execution.qid),
                    build_rows * costs.join_build_entry_ms, built)

    def _broadcast_arrived(self, index: int, step: JoinFragment,
                           node_id: int, build_index: dict,
                           right_columns: set, sweep: bool,
                           compiled_probe, results: dict, errors: list,
                           countdown: _Countdown) -> None:
        if not self._live():
            return
        lefts = self.left.get(node_id, [])
        duration = len(lefts) * self.costs.join_probe_entry_ms

        def probe() -> None:
            if not self._live():
                return
            if sweep:
                rows, error = run_broadcast_probe(
                    self.raw_left[node_id], (node_id,),
                    self.join.base_binding, step.using, compiled_probe,
                    step.kind, build_index, right_columns, self.context,
                )
            else:
                rows, error = probe_join_index(
                    lefts, build_index, step.using, step.probe,
                    step.kind, right_columns, self.context,
                )
            if rows:
                results[node_id] = rows
            if error is not None:
                errors.append(error)
            countdown.one()

        self._store_bill(node_id, node_id + index, duration, probe)

    # -- shuffle-hash ---------------------------------------------------

    def _run_shuffle(self, index: int, step: JoinFragment,
                     raw_by_node: dict, rights: list, build_index: dict,
                     build_error, right_columns: set) -> None:
        attempt = self.token
        if self.execution.done or self.join.attempt != attempt:
            return  # a retry voided this stage before it started
        if build_error is not None:
            # Central raises while building, before anything probes —
            # and before this step would have shipped anything.
            self._fail(build_error[1])
            return
        costs = self.costs
        execution = self.execution
        workers = sorted(self.service.cluster.surviving_node_ids())
        count = max(1, len(workers))

        def worker_of(key) -> int:
            return workers[stable_hash(key) % count]

        # Route the build side: one slice per worker, keyed exactly
        # like the index (NULL keys never ship — they cannot match).
        transfer: dict[tuple[int, int], int] = {}
        build_counts: dict[int, int] = {}
        position = 0
        for node_id in sorted(raw_by_node):
            for raw in raw_by_node[node_id]:
                _tag, row = rights[position]
                position += 1
                key = _shuffle_key(step, row, self.context)
                if key is _SKIP:
                    continue
                worker = worker_of(key)
                nbytes = (costs.row_overhead_bytes
                          + len(raw) * costs.column_bytes)
                transfer[node_id, worker] = (
                    transfer.get((node_id, worker), 0) + nbytes
                )
                build_counts[worker] = build_counts.get(worker, 0) + 1
        # Route the probe side; erroring/NULL keys go to the first
        # worker, where the probe re-raises or pads deterministically.
        lefts_by_worker: dict[int, list] = {}
        probe_counts: dict[int, int] = {}
        for node_id in sorted(self.left):
            for tag, row in self.left[node_id]:
                key = _shuffle_key(step, row, self.context, probe=True)
                worker = workers[0] if key is _SKIP else worker_of(key)
                lefts_by_worker.setdefault(worker, []).append((tag, row))
                probe_counts[worker] = probe_counts.get(worker, 0) + 1
                transfer[node_id, worker] = (
                    transfer.get((node_id, worker), 0)
                    + self._bound_bytes([(tag, row)])
                )

        def workers_done() -> None:
            if not self._live():
                return
            results, probe_error = self._probe_all(
                step, build_index, right_columns,
                {w: sorted(lefts_by_worker[w]) for w in lefts_by_worker},
            )
            self._advance(index, results, probe_error)

        def all_arrived() -> None:
            if not self._live():
                return
            busy = sorted(set(build_counts) | set(probe_counts))
            countdown = _Countdown(len(busy), workers_done)
            for worker in busy:
                duration = (
                    build_counts.get(worker, 0)
                    * costs.join_build_entry_ms
                    + probe_counts.get(worker, 0)
                    * costs.join_probe_entry_ms
                )
                self._store_bill(worker, worker + index, duration,
                                 countdown.one)

        pairs = sorted(transfer)
        arrivals = _Countdown(len(pairs), all_arrived)
        for sender, worker in pairs:
            nbytes = transfer[sender, worker]
            execution.counters["join_bytes_shuffled"] += nbytes
            execution.counters["query_bytes_shipped"] += nbytes
            self._send(sender, worker, "join-shuffle", index, nbytes,
                       arrivals.one)

    # -- index-nested-loop ----------------------------------------------

    def _run_index_nested(self, index: int, step: JoinFragment) -> None:
        """Index-assisted broadcast: resolve the build side through the
        index on the join column (only the probe side's keys), filter
        the candidates through the table's scan fragment, then run the
        broadcast tail.  INNER-only — the chooser rejects LEFT."""
        service = self.service
        execution = self.execution
        costs = self.costs
        kind = self.state["kinds"][step.table]
        table = service._table_for(step.table, kind)
        args = _table_args(kind, self.record.snapshot_id)
        column = step.using[0] if step.using else step.build.name
        keys: list = []
        seen: set = set()
        for node_id in sorted(self.left):
            for _tag, row in self.left[node_id]:
                key = _shuffle_key(step, row, self.context, probe=True)
                if key is _SKIP:
                    continue  # NULL / erroring keys cannot match
                if step.using:
                    key = key[0]
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        probe = EqProbe(values=tuple(keys))
        fragment = self.record.plan.fragments.get(step.table)
        if fragment is not None and fragment.is_passthrough:
            fragment = None
        compiled = None
        if fragment is not None and service.vectorized_enabled:
            compiled, _hit = fragment.compiled_form()
        nodes = sorted(service.cluster.surviving_node_ids())
        surviving: dict[int, list] = {}

        def fetched_all() -> None:
            if not self._live():
                return
            self._index_build_and_broadcast(index, step, surviving)

        countdown = _Countdown(len(nodes), fetched_all)
        for node_id in nodes:
            partitions = table.partitions_on_node(node_id)
            candidates = table.index_rows(partitions, column, probe,
                                          *args)
            execution.counters["index_probes"] += len(partitions)
            execution.counters["index_rows_read"] += len(candidates)
            if fragment is not None:
                try:
                    lock_rows, payload, _batches = run_fragment_batches(
                        fragment, compiled, candidates, self.context,
                        costs.scan_chunk_entries,
                    )
                except Exception as exc:  # noqa: BLE001 — ship as the error
                    self._fail(exc)
                    return
            else:
                lock_rows, payload = candidates, candidates
            if payload:
                surviving[node_id] = payload
            duration = (len(partitions) * costs.index_probe_ms
                        + len(candidates) * costs.index_entry_ms)

            def after_bill(node_id: int = node_id,
                           lock_rows: list = lock_rows) -> None:
                if not self._live():
                    return
                if service.repeatable_read and kind == "live":
                    service._lock_rows(execution, step.table, lock_rows,
                                       countdown.one)
                else:
                    countdown.one()

            self._store_bill(node_id, node_id + index, duration,
                             after_bill)

    def _index_build_and_broadcast(self, index: int, step: JoinFragment,
                                   surviving: dict[int, list]) -> None:
        execution = self.execution
        attempt = self.token
        if execution.done or self.join.attempt != attempt:
            return  # a retry voided this stage mid-index-fetch
        entry = execution.entry_node

        def assembled() -> None:
            if not self._live():
                return
            rights = self._tagged_rights(step, surviving)
            self.scanned += len(rights)
            execution.counters["join_build_rows"] += len(rights)
            right_columns = collect_right_columns(
                [row for _tag, row in rights]
            )
            build_index, build_error = build_join_index(
                rights, step.using, step.build, self.context
            )
            self._run_broadcast(index, step, surviving, build_index,
                                build_error, right_columns, len(rights))

        senders = sorted(surviving)
        arrivals = _Countdown(len(senders), assembled)
        for node_id in senders:
            nbytes = self._raw_bytes(surviving[node_id])
            execution.counters["query_bytes_shipped"] += nbytes
            self._send(node_id, entry, "join-inlj", index, nbytes,
                       arrivals.one)

    # -- finalization ---------------------------------------------------

    def _final_ship(self) -> None:
        execution = self.execution
        attempt = self.token
        if execution.done or self.join.attempt != attempt:
            return  # a retry voided the pipeline before the final ship
        service = self.service
        entry = execution.entry_node
        holders = sorted(self.left)
        shipped: list = []

        def merge() -> None:
            if not self._live():
                return
            execution.entries_scanned = self.state["scanned"]
            duration = (execution.counters["query_rows_shipped"]
                        * self.costs.merge_row_ms)
            pool = service.cluster.node(entry).query_pool
            pool.submit(("query", execution.qid), duration,
                        self._finalize, shipped)

        arrivals = _Countdown(len(holders), merge)
        for node_id in holders:
            rows = self.left[node_id]
            nbytes = self._bound_bytes(rows)
            execution.counters["query_rows_shipped"] += len(rows)
            execution.counters["query_bytes_shipped"] += nbytes
            self._send(node_id, entry, "join-result", -1, nbytes,
                       arrivals.one)
            shipped.extend(rows)

    def _finalize(self, shipped: list) -> None:
        if not self._live():
            return
        self.join.stage_active = False
        shipped.sort(key=lambda item: item[0])
        rows = [row for _tag, row in shipped]
        context = EvalContext(now_ms=self.service.sim.now)
        try:
            result = execute_joined_select(
                self.join.final_select, rows, context,
                scanned=self.scanned,
            )
        except Exception as exc:  # surface SQL errors on the handle
            self.service._finish_execution(self.execution, None, exc)
            return
        self.service._finish_execution(self.execution, result, None)


class _Skip:
    __slots__ = ()


_SKIP = _Skip()


def _shuffle_key(step: JoinFragment, row: dict, context: EvalContext,
                 probe: bool = False):
    """A row's join key for routing — ``_SKIP`` for NULL components or
    evaluation errors (the worker-side probe re-raises those with the
    right tag, so routing never has to)."""
    if step.using:
        key = tuple(row.get(col) for col in step.using)
        if any(part is None for part in key):
            return _SKIP
        return key
    expr = step.probe if probe else step.build
    try:
        from ..sql.executor import _eval

        key = _eval(expr, row, context, None)
    except Exception:  # noqa: BLE001 — surfaced by the worker's probe
        return _SKIP
    return _SKIP if key is None else key
