"""The SQL query service.

A query runs as a small simulated workflow:

1. fixed parse/plan cost on the entry node's query worker pool;
2. snapshot-id retrieval (atomic committed-pointer read) when any
   snapshot table is referenced and no explicit id was given;
3. per-node chunked scans of every referenced table on the store
   partition servers — queries release the partition between chunks, so
   concurrent checkpoint writes interleave instead of starving
   (`CostModel.scan_chunk_entries`);
4. result shipping to the entry node over the network;
5. a merge/join/aggregate step on the entry node, after which the real
   SQL executor produces the actual rows.

Live rows are materialised per node at that node's scan completion time
(a fuzzy, read-uncommitted view); snapshot rows are immutable per id, so
they are consistent regardless of timing (§VII).

The whole workflow is **failure-aware** (§IV interplay): the service
registers a cluster failure listener and tracks which nodes every
in-flight execution depends on.  Work pending on a node that dies is
lost — scan chunks and result shipments carry per-table attempt tokens
that a failure invalidates — and either re-dispatched onto survivors
after ``QueryRetryPolicy.retry_backoff_ms`` (live tables re-scan the
reassigned partitions, snapshot tables re-read from the promoted
replicas) or aborted with :class:`~repro.errors.QueryAbortedError` when
the entry node itself died or the retry budget ran out.  A watchdog
timeout (``query_timeout_ms``) backstops every query, so a handle never
hangs regardless of the failure interleaving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from ..approx.planning import analyze_approx_select
from ..config import QueryRetryPolicy
from ..errors import (
    NoCommittedSnapshotError,
    QueryAbortedError,
    QueryError,
    QueryTimeoutError,
    SnapshotNotFoundError,
)
from ..observability import CounterSet
from ..sql import EvalContext, parse
from ..sql.ast import Binary, Column, Expr, Literal, Select, Union
from ..sql.batch import run_fragment_batches
from ..sql.executor import (
    QueryResult,
    execute_grouped_select,
    execute_select,
    output_column_name,
)
from ..sql.access import SketchCandidate, choose_access_path
from ..sql.fragments import (
    DistributedPlan,
    KeySet,
    PartialGroups,
    ScanFragment,
    extract_key_filter,
    merge_partial_groups,
    split_select,
)
from ..sql.planner import DictCatalog, ListTable, split_conjuncts
from ..state.isolation import IsolationLevel, isolation_of_query
from .joins import (
    JoinPlan,
    _JoinLocalAck,
    explain_join_lines,
    join_failure_relevant,
    plan_distributed_joins,
    restart_join,
    start_join_pipeline,
)

#: Beyond this many pinned keys a multi-point get degenerates into a
#: scan (pruned by partition instead of fetched key-by-key).
MAX_POINT_KEYS = 64


class _NoPointKey:
    """Sentinel: the query has no single-key pushdown."""

    __slots__ = ()


NO_POINT_KEY = _NoPointKey()


class QueryExecution:
    """Handle for one in-flight or completed query."""

    _qids = itertools.count(1)

    def __init__(self, sql: str, submitted_ms: float,
                 isolation: IsolationLevel) -> None:
        self.sql = sql
        #: Service-unique id — unlike ``id(self)``, never recycled, so
        #: network channels and pool keys can't collide across queries.
        self.qid = next(QueryExecution._qids)
        self.submitted_ms = submitted_ms
        self.isolation = isolation
        self.snapshot_id: int | None = None
        self.completed_ms: float | None = None
        self.result: QueryResult | None = None
        self.error: Exception | None = None
        #: Registered query counters (see ``repro.observability``),
        #: rolled up into ``QueryService.counters`` on finish.
        self.counters = CounterSet()
        #: Chosen strategy per join step (empty until planned;
        #: ``["central", ...]`` when the statement runs centrally).
        self.join_strategies: list[str] = []
        #: Simulated milliseconds billed to store servers for this
        #: query's scan chunks — the scan-path latency the vectorized
        #: ablation benchmarks compare.
        self.scan_ms_billed = 0.0
        self.entries_scanned = 0
        #: Entries billed to store scan servers (== entries_scanned for
        #: scan queries; point lookups bill a fixed seek instead).
        self.entries_billed = 0
        self.materialize = True
        self.all_versions = False
        self.snapshot_versions: list[int] | None = None
        #: Node coordinating this query (plan, merge, result delivery).
        self.entry_node: int | None = None
        #: True when a live (non-snapshot) query was in flight across a
        #: rollback recovery: its fuzzy view may span an epoch boundary,
        #: not just pre-failure fuzziness (the Fig. 5 dirty-read case).
        self.observed_rollback = False
        #: Failure events this query survived via rescheduling.
        self.retries = 0
        #: FIFO network channels opened for this query; closed on finish.
        self.channels: set = set()
        #: Key of a point-lookup pushdown (``NO_POINT_KEY`` if none).
        self.point_key: object = NO_POINT_KEY
        #: All pinned keys of a (multi-)point get (``None`` if none);
        #: ``point_key`` stays the single-key convenience view.
        self.point_keys: tuple | None = None
        self.on_done: Callable[["QueryExecution"], None] | None = None

    @property
    def done(self) -> bool:
        return self.completed_ms is not None

    @property
    def latency_ms(self) -> float:
        if self.completed_ms is None:
            raise QueryError("query still running")
        return self.completed_ms - self.submitted_ms

    def _finish(self, now: float, result: QueryResult | None,
                error: Exception | None) -> None:
        self.completed_ms = now
        self.result = result
        self.error = error
        if self.on_done is not None:
            self.on_done(self)


@dataclass
class _ShardPlan:
    """How one node's shard of one table will be read.

    ``entries`` is what the scan servers bill per entry (candidate rows
    for an index path, surviving-partition entries otherwise);
    ``fetch`` materialises exactly those rows at scan-completion time.
    """

    entries: int
    fetch: Callable[[], list[dict]]
    pruned: int = 0
    fragment: ScanFragment | None = None
    #: index probes issued before the fetch (indexed shards only).
    probes: int = 0
    #: rows the index proved away (scan entries minus candidates).
    skipped: int = 0
    indexed: bool = False


@dataclass
class _ShardError:
    """A scan-side fragment error, shipped like a payload.

    A pushed predicate or partial-aggregate expression can fail mid-scan
    (mixed-type comparison, division by zero, ...).  Instead of blowing
    up the storage node's simulated server callback — which would leak
    locks and crash the driver — the error ships through the normal
    result path (attempt-token guarded, retry-compatible) and the merge
    surfaces the error of the minimal ``(table, node id)``.  That choice
    is timing-independent, and because the central executor sees rows in
    canonical node-id-sorted order, it is the same first error a fully
    central evaluation of the pushed conjuncts would raise — so
    vectorized on/off and pushdown on/off stay bit-identical on erroring
    workloads too.
    """

    error: Exception


@dataclass(frozen=True)
class _SketchAnswer:
    """A sketch-answered APPROX aggregate, computed at plan time.

    Live sketches give a fuzzy read-uncommitted view — exactly the
    isolation a live scan already gives — and snapshot sketches are
    frozen at commit, so computing the merged estimate once up front is
    sound; the per-node shards then only bill probe costs and ship a
    marker payload through the normal retry-aware scan machinery.
    """

    table: str
    description: str
    columns: tuple[str, ...]
    row: dict


class _InFlight:
    """Service-side bookkeeping for one running query."""

    __slots__ = ("execution", "select", "table_kinds", "snapshot_id",
                 "state", "plan", "sketch", "join")

    def __init__(self, execution: QueryExecution, select: Select,
                 table_kinds: list[tuple[str, str]]) -> None:
        self.execution = execution
        self.select = select
        self.table_kinds = table_kinds
        #: Resolved snapshot target (int, list for all-versions, None).
        self.snapshot_id: int | list[int] | None = None
        #: Scan-phase state; ``None`` until scans are dispatched.
        self.state: dict | None = None
        #: Distributed plan (scan fragments + final fragment); ``None``
        #: when pushdown is disabled or the statement is not eligible.
        self.plan: DistributedPlan | None = None
        #: Sketch answer for an APPROX aggregate; ``None`` on the exact
        #: path.
        self.sketch: _SketchAnswer | None = None
        #: Distributed join plan (strategies + table roles); ``None``
        #: when the statement's joins run centrally.
        self.join: "JoinPlan | None" = None


class QueryService:
    """Executes SQL against the state store of one environment."""

    def __init__(self, env, repeatable_read: bool = False,
                 ha_mode: bool = False,
                 retry_policy: QueryRetryPolicy | None = None,
                 pushdown: bool | None = None,
                 indexes: bool | None = None,
                 sketches: bool | None = None,
                 vectorized: bool | None = None,
                 shared_plans: bool | None = None,
                 distributed_joins: bool | None = None) -> None:
        """``repeatable_read`` holds key locks for whole live queries;
        ``ha_mode`` declares that the job runs with active replication
        (§VII-B), upgrading live queries to read committed — state they
        observe is never rolled back.  ``retry_policy`` governs how
        in-flight queries react to node failures.  ``pushdown`` forces
        distributed predicate/projection pushdown on or off (``None``
        defers to ``CostModel.pushdown_enabled``); off is the ablation
        baseline that ships every raw row to the entry node.
        ``indexes`` forces index-backed scans on or off the same way
        (``None`` defers to ``CostModel.index_enabled``); off keeps
        indexes maintained but never read.  ``sketches`` forces
        sketch-answered APPROX aggregates on or off (``None`` defers to
        ``CostModel.sketch_enabled``); off keeps sketches maintained but
        falls back to the exact paths.  ``vectorized`` forces columnar
        batch execution of scan fragments on or off (``None`` defers to
        ``CostModel.vectorized_enabled``); off is the interpreted
        per-row ablation baseline with bit-identical results.
        ``shared_plans`` forces continuous-query plan deduplication on
        or off (``None`` defers to ``CostModel.shared_plans_enabled``);
        off gives every subscription a private standing plan — the
        fan-out ablation baseline with bit-identical delivered
        results.  ``distributed_joins`` forces the distributed join
        pipeline on or off (``None`` defers to
        ``CostModel.distributed_joins_enabled``); off is the central
        ablation baseline that ships every joined table's rows to the
        entry node, with bit-identical results."""
        self.env = env
        self.sim = env.sim
        self.cluster = env.cluster
        self.store = env.store
        self.costs = env.costs
        self.repeatable_read = repeatable_read
        self.ha_mode = ha_mode
        self.retry_policy = retry_policy or QueryRetryPolicy()
        self.retry_policy.validate()
        self.pushdown_enabled = (
            self.costs.pushdown_enabled if pushdown is None else pushdown
        )
        self.index_enabled = (
            self.costs.index_enabled if indexes is None else indexes
        )
        self.sketch_enabled = (
            self.costs.sketch_enabled if sketches is None else sketches
        )
        self.vectorized_enabled = (
            self.costs.vectorized_enabled if vectorized is None
            else vectorized
        )
        self.shared_plans_enabled = (
            self.costs.shared_plans_enabled if shared_plans is None
            else shared_plans
        )
        self.distributed_joins_enabled = (
            self.costs.distributed_joins_enabled
            if distributed_joins is None else distributed_joins
        )
        self._entry_rotation = 0
        self.queries_executed = 0
        #: Query counters of all finished queries, plus the retries,
        #: aborts and timeouts this service counts itself.
        self.counters = CounterSet()
        self._inflight: dict[int, _InFlight] = {}
        self.cluster.on_node_failure(self._on_node_failure)
        services = getattr(env, "query_services", None)
        if services is not None:
            services.append(self)

    # -- public API ------------------------------------------------------

    def submit(self, sql: str, snapshot_id: int | None = None,
               on_done: Callable[[QueryExecution], None] | None = None,
               materialize: bool = True,
               all_versions: bool = False) -> QueryExecution:
        """Start a query at the current virtual time; returns a handle
        that completes asynchronously as the simulation advances.

        ``materialize=False`` runs the query as pure load: every cost
        (scan, shipping, merge) is still simulated against the real
        state sizes, but no Python result rows are built — benchmarks
        use this to drive sustained query load cheaply while functional
        tests keep the default and check real results.
        """
        select = parse(sql)
        table_kinds = self._classify_tables(select)
        targets_snapshot = any(
            kind == "snapshot" for _, kind in table_kinds
        )
        isolation = isolation_of_query(
            targets_snapshot, self.repeatable_read,
            assume_no_failures=self.ha_mode,
        )
        execution = QueryExecution(sql, self.sim.now, isolation)
        execution.on_done = on_done
        execution.materialize = materialize
        execution.all_versions = all_versions
        if snapshot_id is None and not all_versions and \
                not isinstance(select, Union):
            snapshot_id = _extract_ssid_filter(select.where)
        if (
            not isinstance(select, Union)
            and not all_versions
            and len(table_kinds) == 1
            and not select.joins
        ):
            # Point-lookup pushdown: a single-table query pinned to one
            # or a few keys (Fig. 4's ``WHERE key = 1`` pattern, plus
            # ``key IN (...)`` / OR-of-equalities) fetches only those
            # keys from their owner nodes instead of scanning anything.
            keys = _extract_key_filter(select.where,
                                       select.table.binding or "")
            if keys is not NO_POINT_KEY:
                execution.point_keys = keys
                if len(keys) == 1:
                    execution.point_key = keys[0]
        execution.entry_node = self._next_entry_node()
        record = _InFlight(execution, select, table_kinds)
        if (
            self.pushdown_enabled
            and materialize
            and not isinstance(select, Union)
            and not all_versions
        ):
            record.plan = split_select(select)
        self._inflight[execution.qid] = record
        self.sim.schedule(self.retry_policy.query_timeout_ms,
                          self._watchdog, execution)
        pool = self.cluster.node(execution.entry_node).query_pool
        pool.submit(
            ("query", execution.qid), self.costs.sql_fixed_ms,
            self._after_plan, record, snapshot_id,
        )
        return execution

    def subscribe(self, sql: str, **kwargs):
        """Register ``sql`` as a standing query pushed to a subscriber.

        Delegates to the environment's continuous-query service (created
        on first use); see
        :meth:`repro.continuous.ContinuousQueryService.subscribe` for
        the flow-control keyword arguments.  Returns a
        :class:`~repro.continuous.Subscription`.
        """
        return self._continuous().subscribe(sql, **kwargs)

    def explain_subscription(self, sql: str) -> str:
        """Which maintenance path ``subscribe(sql)`` would choose."""
        return self._continuous().explain_subscription(sql)

    def _continuous(self):
        if self.env.continuous is None:
            from ..continuous.service import ContinuousQueryService
            self.env.continuous = ContinuousQueryService(
                self.env, query_service=self,
                shared_plans=self.shared_plans_enabled,
            )
        return self.env.continuous

    def explain(self, sql: str) -> str:
        """How this service would execute ``sql``: the point-lookup or
        distributed-pushdown strategy with pushed predicates, scan-side
        projection / partial aggregation and pruning, or the ship-all
        baseline when pushdown cannot apply."""
        from ..sql.explain import render_distributed

        select = parse(sql)
        table_kinds = self._classify_tables(select)
        lines: list[str] = []
        if (
            not isinstance(select, Union)
            and len(table_kinds) == 1
            and not select.joins
        ):
            keys = _extract_key_filter(select.where,
                                       select.table.binding or "")
            if keys is not NO_POINT_KEY:
                owners = sorted({
                    self._table_for(*table_kinds[0]).owner_node_of(key)
                    for key in keys
                })
                lines.append(
                    f"point lookup: {len(keys)} key(s) on "
                    f"{len(owners)} owner node(s)"
                )
        scan_mode = (
            "scan execution: vectorized (columnar batches, "
            "compile-once predicates)"
            if self.vectorized_enabled
            else "scan execution: interpreted per-row (ablation baseline)"
        )
        if not self.pushdown_enabled:
            lines.append("distributed: ship all rows "
                         "(pushdown disabled)")
            lines.append(scan_mode)
            lines.extend(self._explain_approx(select, table_kinds))
            return "\n".join(lines)
        if isinstance(select, Union):
            lines.append("distributed: ship all rows "
                         "(UNION runs centrally)")
            lines.append(scan_mode)
            return "\n".join(lines)
        plan = split_select(select)
        lines.append("distributed: pushdown")
        lines.append(scan_mode)
        lines.extend(render_distributed(select, plan))
        lines.extend(self._explain_access_paths(plan, table_kinds))
        lines.extend(explain_join_lines(self, select, plan, table_kinds))
        lines.extend(self._explain_approx(select, table_kinds))
        return "\n".join(lines)

    def _explain_access_paths(self, plan: DistributedPlan,
                              table_kinds: list[tuple[str, str]]
                              ) -> list[str]:
        """One line per filtered fragment: how its shards would be read
        right now (live indexes, or the latest committed snapshot)."""
        lines: list[str] = []
        seen: list[str] = []
        for table_name, kind in table_kinds:
            if table_name in seen:
                continue
            seen.append(table_name)
            fragment = plan.fragments.get(table_name)
            if fragment is None or fragment.is_passthrough \
                    or not fragment.pushed:
                continue
            prefix = f"  access path [{table_name}]: "
            if not self.index_enabled:
                lines.append(prefix + "full scan (indexes disabled)")
                continue
            table = self._table_for(table_name, kind)
            if kind == "live":
                args: tuple = ()
            else:
                committed = self.store.committed_ssid
                if committed is None:
                    lines.append(
                        prefix + "full scan (no committed snapshot)"
                    )
                    continue
                args = (committed,)
            ready = getattr(table, "index_ready", None)
            if ready is None or not ready(*args):
                lines.append(prefix + "full scan (no usable index)")
                continue
            partitions: list[int] = []
            entries = 0
            for node_id in self.cluster.surviving_node_ids():
                for partition in table.partitions_on_node(node_id):
                    partitions.append(partition)
                    entries += table.partition_entry_count(
                        partition, *args
                    )
            surcharge = self.costs.pushed_filter_entry_ms
            if fragment.partial is not None:
                surcharge += self.costs.partial_agg_entry_ms
            choice = choose_access_path(
                fragment, table, args, partitions, entries, self.costs,
                surcharge,
            )
            lines.append(prefix + choice.describe())
            lines.extend(f"    rejected {reason}"
                         for reason in choice.rejected)
        return lines

    def _explain_approx(self, select,
                        table_kinds: list[tuple[str, str]]) -> list[str]:
        """How an APPROX aggregate would (or would not) be answered
        from sketches right now, including why every losing access-path
        candidate was rejected."""
        if not isinstance(select, Select) or not select.approx:
            return []
        if not self.sketch_enabled:
            return ["  approx: exact fallback (sketches disabled)"]
        if len(table_kinds) != 1 or select.joins:
            return ["  approx: exact fallback (multi-table queries are "
                    "not sketch-answerable)"]
        aggregate = analyze_approx_select(select)
        if aggregate is None:
            return ["  approx: exact fallback (shape not "
                    "sketch-answerable)"]
        table_name, kind = table_kinds[0]
        if kind == "live":
            snapshot_id = None
        else:
            snapshot_id = _extract_ssid_filter(select.where)
            if snapshot_id is None:
                snapshot_id = self.store.committed_ssid
            if snapshot_id is None:
                return ["  approx: exact fallback (no committed "
                        "snapshot)"]
        priced = self._price_sketch(select, table_name, kind,
                                    snapshot_id, aggregate)
        if isinstance(priced, str):
            return [f"  approx: exact fallback ({priced})"]
        choice, _answer, _output = priced
        prefix = f"  approx [{table_name}]: "
        if choice.kind == "sketch":
            lines = [prefix + choice.describe()]
        else:
            lines = [prefix + "exact path (sketch priced out)"]
        lines.extend(f"    rejected {reason}"
                     for reason in choice.rejected)
        return lines

    def execute(self, sql: str,
                snapshot_id: int | None = None) -> QueryExecution:
        """Submit and drive the simulation until the query completes.

        Only valid when the caller owns the simulation loop (examples,
        tests).  Benchmarks submit asynchronously instead.
        """
        execution = self.submit(sql, snapshot_id)
        guard = 0
        while not execution.done:
            if not self.sim.step():
                raise QueryError("simulation drained before query finished")
            guard += 1
            if guard > 10_000_000:
                raise QueryError("query did not terminate")
        if execution.error is not None:
            raise execution.error
        return execution

    @property
    def inflight_queries(self) -> int:
        return len(self._inflight)

    def on_rollback_recovery(self, committed_ssid: int | None) -> None:
        """Called by rollback recovery (§IV): flag every in-flight live
        query, whose fuzzy view now spans an epoch boundary."""
        del committed_ssid  # the flag, not the target, is what matters
        for record in self._inflight.values():
            execution = record.execution
            if execution.done:
                continue
            if not execution.isolation.at_least(IsolationLevel.SNAPSHOT):
                execution.observed_rollback = True

    # -- internals ------------------------------------------------------

    def _classify_tables(self, select: Select) -> list[tuple[str, str]]:
        kinds: list[tuple[str, str]] = []
        for name in select.table_names():
            if self.store.has_snapshot_table(name):
                kinds.append((name, "snapshot"))
            elif self.store.has_live_table(name):
                kinds.append((name, "live"))
            else:
                raise QueryError(f"unknown state table {name!r}")
        return kinds

    def _next_entry_node(self) -> int:
        alive = self.cluster.surviving_node_ids()
        if not alive:
            raise QueryError("no surviving nodes")
        node = alive[self._entry_rotation % len(alive)]
        self._entry_rotation += 1
        return node

    # -- completion (the single exit path) --------------------------------

    def _finish_execution(self, execution: QueryExecution,
                          result: QueryResult | None,
                          error: Exception | None) -> None:
        """Complete ``execution`` exactly once: release its locks, close
        its network channels, and drop the in-flight record — on every
        path, success or failure."""
        if execution.done:
            return
        self._release_locks(execution)
        network = self.cluster.network
        for channel in execution.channels:
            network.close_channel(channel)
        execution.channels.clear()
        self._inflight.pop(execution.qid, None)
        self.counters.update(execution.counters)
        if error is None:
            self.queries_executed += 1
        execution._finish(self.sim.now, result, error)

    def _abort(self, execution: QueryExecution,
               error: QueryAbortedError) -> None:
        self.counters["query_aborts"] += 1
        self._finish_execution(execution, None, error)

    def _watchdog(self, execution: QueryExecution) -> None:
        if execution.done:
            return
        self.counters["query_timeouts"] += 1
        self._abort(execution, QueryTimeoutError(
            f"query exceeded {self.retry_policy.query_timeout_ms} ms "
            f"(submitted at {execution.submitted_ms} ms)"
        ))

    # -- failure handling ---------------------------------------------------

    def _on_node_failure(self, node_id: int) -> None:
        """Cluster failure listener: every in-flight execution that
        depends on the dead node either reschedules or fails fast."""
        for record in list(self._inflight.values()):
            execution = record.execution
            if execution.done:
                self._inflight.pop(execution.qid, None)
                continue
            if execution.entry_node == node_id:
                self._abort(execution, QueryAbortedError(
                    f"entry node {node_id} died while the query was in "
                    "flight"
                ))
                continue
            if record.state is None:
                continue  # plan/ssid phase: runs on the entry node only
            if record.join is not None:
                # Join mode restarts wholesale: a build index or probe
                # slice may have lived on the dead node, so per-table
                # requeueing cannot recover a half-run stage.
                if not join_failure_relevant(record, node_id):
                    continue
                if execution.retries >= self.retry_policy.max_retries:
                    self._abort(execution, QueryAbortedError(
                        f"node {node_id} died and the retry budget "
                        f"({self.retry_policy.max_retries}) is exhausted"
                    ))
                    continue
                execution.retries += 1
                self.counters["query_retries"] += 1
                restart_join(self, record)
                continue
            affected = [
                table for table, nodes in record.state["nodes"].items()
                if node_id in nodes
            ]
            if not affected:
                continue
            if execution.retries >= self.retry_policy.max_retries:
                self._abort(execution, QueryAbortedError(
                    f"node {node_id} died and the retry budget "
                    f"({self.retry_policy.max_retries}) is exhausted"
                ))
                continue
            execution.retries += 1
            self.counters["query_retries"] += 1
            for table in affected:
                self._requeue_table(record, table)

    def _requeue_table(self, record: _InFlight, table: str) -> None:
        """Void a table's in-flight shards and schedule a re-dispatch.

        The attempt token invalidates the lost attempt's scan chunks and
        result shipments; collected rows for the table are discarded so
        the re-scan (over the reassigned partitions / promoted replicas)
        is the single source of that table's rows.
        """
        state = record.state
        state["attempt"][table] += 1
        lost = state["nodes"][table]
        state["nodes"][table] = set()
        # Lost shards leave the pending count; one re-dispatch token
        # takes their place so the merge can't trigger early.
        state["pending"] -= len(lost) - 1
        state["rows"][table].clear()
        self.sim.schedule(
            self.retry_policy.retry_backoff_ms,
            self._redispatch_table, record, table, state["attempt"][table],
        )

    def _redispatch_table(self, record: _InFlight, table: str,
                          attempt: int) -> None:
        execution = record.execution
        state = record.state
        if execution.done or state["attempt"][table] != attempt:
            return  # aborted meanwhile, or a later failure superseded us
        alive = self.cluster.surviving_node_ids()
        if not alive:
            self._abort(execution, QueryAbortedError("no surviving nodes"))
            return
        if state["point"]:
            # consumes the re-dispatch token as the single new shard
            self._point_attempt(record, attempt)
            return
        kind = state["kinds"][table]
        targets = self._scan_targets(record, table, kind)
        state["pending"] += len(targets) - 1
        state["nodes"][table] = set(targets)
        for node_id in targets:
            self._scan_shard(record, table, kind, node_id, attempt)

    # -- plan / snapshot-id resolution ----------------------------------

    def _after_plan(self, record: _InFlight,
                    snapshot_id: int | None) -> None:
        execution = record.execution
        if execution.done:
            return
        needs_snapshot = any(
            kind == "snapshot" for _, kind in record.table_kinds
        )
        if not needs_snapshot:
            self._start_scans(record, None)
            return
        if execution.all_versions:
            versions = self.store.available_ssids()
            if not versions:
                self._finish_execution(
                    execution, None,
                    NoCommittedSnapshotError("no committed snapshot yet"),
                )
                return
            self._start_scans(record, versions)
            return
        if snapshot_id is not None:
            self._validate_and_scan(record, snapshot_id)
            return
        # Atomic read of the committed-snapshot pointer.
        server = self.cluster.node(execution.entry_node).store_server(0)
        server.submit(
            self.costs.snapshot_id_read_ms, self._after_ssid_read, record
        )

    def _after_ssid_read(self, record: _InFlight) -> None:
        execution = record.execution
        if execution.done:
            return
        committed = self.store.committed_ssid
        if committed is None:
            self._finish_execution(
                execution, None,
                NoCommittedSnapshotError("no committed snapshot yet"),
            )
            return
        self._start_scans(record, committed)

    def _validate_and_scan(self, record: _InFlight,
                           snapshot_id: int) -> None:
        if snapshot_id not in self.store.available_ssids():
            self._finish_execution(
                record.execution, None, SnapshotNotFoundError(snapshot_id)
            )
            return
        self._start_scans(record, snapshot_id)

    # -- scan phase ---------------------------------------------------------

    def _start_scans(self, record: _InFlight,
                     snapshot_id: int | list[int] | None) -> None:
        execution = record.execution
        record.snapshot_id = snapshot_id
        if isinstance(snapshot_id, list):
            execution.snapshot_versions = list(snapshot_id)
        else:
            execution.snapshot_id = snapshot_id
        nodes = self.cluster.surviving_node_ids()
        state = {
            "pending": 0,
            #: table -> node -> shipped payload.  Per-node buckets keep
            #: the merge order canonical (sorted by node id) regardless
            #: of network arrival order, so pushdown on/off and retry
            #: interleavings all produce identical results.
            "rows": {name: {} for name, _ in record.table_kinds},
            "scanned": 0,
            #: table -> current attempt; bumped to invalidate lost work.
            "attempt": {name: 0 for name, _ in record.table_kinds},
            #: table -> nodes with an in-flight shard or result.
            "nodes": {name: set() for name, _ in record.table_kinds},
            "kinds": dict(record.table_kinds),
            #: table -> store-partition stripe base for chunk spreading.
            "stripe": {},
            "point": False,
        }
        record.state = state
        if (
            execution.point_keys is not None
            and not isinstance(snapshot_id, list)
        ):
            state["point"] = True
            state["pending"] = 1
            self._point_attempt(record, attempt=0)
            return
        record.sketch = self._sketch_plan(record)
        if record.sketch is None:
            record.join = plan_distributed_joins(self, record)
        seen: set[str] = set()
        shards: list[tuple[str, str, int]] = []
        for stripe, (table_name, kind) in enumerate(record.table_kinds):
            if table_name in seen:  # self-join scans once per node anyway
                continue
            seen.add(table_name)
            if record.join is not None and \
                    table_name in record.join.excluded:
                continue  # index-nested-loop build side: never scanned
            state["stripe"][table_name] = stripe * max(1, len(nodes))
            targets = self._scan_targets(record, table_name, kind)
            for node_id in nodes:
                if node_id not in targets:
                    # Node-level pruning: none of the pinned keys live
                    # here, so the whole shard (every partition) skips.
                    execution.counters["query_partitions_pruned"] += \
                        self._node_partition_count(table_name, kind,
                                                   node_id)
                    continue
                shards.append((table_name, kind, node_id))
                state["nodes"][table_name].add(node_id)
        state["pending"] = len(shards)
        if not shards:
            if record.join is not None:
                start_join_pipeline(self, record)
            else:
                self._merge(record)
            return
        for table_name, kind, node_id in shards:
            self._scan_shard(record, table_name, kind, node_id, attempt=0)

    def _point_attempt(self, record: _InFlight, attempt: int) -> None:
        """Fetch the pinned key(s) from their owner nodes (point path).

        A single-key lookup touches exactly one node; ``key IN (...)``
        and OR-of-equality queries fan out one multi-get per distinct
        owner, each billed per key fetched."""
        execution = record.execution
        state = record.state
        table_name, kind = record.table_kinds[0]
        table = (self.store.get_live_table(table_name) if kind == "live"
                 else self.store.get_snapshot_table(table_name))
        nodes = self.cluster.surviving_node_ids()
        owners: dict[int, list] = {}
        for key in execution.point_keys:
            owner = table.owner_node_of(key)
            if owner not in nodes:
                owner = nodes[0]  # placement mid-recovery: any survivor
            owners.setdefault(owner, []).append(key)
        state["nodes"][table_name] = set(owners)
        # The caller budgeted one shard; account for the fan-out.
        state["pending"] += len(owners) - 1
        snapshot_id = record.snapshot_id

        for owner in sorted(owners):
            owner_keys = owners[owner]
            server = self.cluster.node(owner).store_server(0)
            # Index seek + entry read per key: a handful of store ops.
            duration = 4 * self.costs.store_entry_ms * len(owner_keys)

            def finish(owner: int = owner,
                       owner_keys: list = owner_keys) -> None:
                if execution.done or \
                        state["attempt"][table_name] != attempt:
                    return
                rows: list[dict] = []
                try:
                    for key in owner_keys:
                        if kind == "live":
                            rows.extend(table.point_rows(key))
                        else:
                            rows.extend(table.point_rows(key, snapshot_id))
                except SnapshotNotFoundError as exc:
                    self._finish_execution(execution, None, exc)
                    return
                state["scanned"] += len(owner_keys)
                self._ship_when_locked(record, table_name, kind, owner,
                                       rows, attempt)

            server.submit(duration, finish)

    # -- approximate (sketch) answering -------------------------------------

    def _sketch_plan(self, record: _InFlight) -> _SketchAnswer | None:
        """Sketch answer for an APPROX aggregate, or ``None`` when the
        query must run on an exact path (the fallback is always sound:
        anything a sketch cannot answer within its declared bound runs
        as a normal scan/index query)."""
        if not self.sketch_enabled:
            return None
        execution = record.execution
        select = record.select
        if not execution.materialize:
            return None  # pure-load runs exercise the scan path
        if not isinstance(select, Select) or not select.approx:
            return None
        if isinstance(record.snapshot_id, list):
            return None  # all-versions scans stay exact
        if len(record.table_kinds) != 1 or select.joins:
            return None
        aggregate = analyze_approx_select(select)
        if aggregate is None:
            return None
        table_name, kind = record.table_kinds[0]
        priced = self._price_sketch(select, table_name, kind,
                                    record.snapshot_id, aggregate)
        if isinstance(priced, str):
            return None
        choice, answer, output = priced
        if choice.kind != "sketch":
            return None  # an exact path priced cheaper
        estimate, bound, confidence = answer
        return _SketchAnswer(
            table=table_name,
            description=choice.describe(),
            columns=(output, "error_bound", "confidence"),
            row={output: estimate, "error_bound": bound,
                 "confidence": confidence},
        )

    def _price_sketch(self, select: Select, table_name: str, kind: str,
                      snapshot_id, aggregate):
        """Validate and price one sketch read.

        Returns a rejection reason (str) when the sketch cannot answer,
        or ``(access path, (estimate, bound, confidence), output column
        name)`` with the sketch priced against the exact paths."""
        table = self._table_for(table_name, kind)
        if not hasattr(table, "approx_estimate"):
            return "table backend has no sketch support"
        if kind == "live":
            if aggregate.ssid_eq is not None:
                return "ssid filter on a live table"
            args: tuple = ()
        else:
            if aggregate.ssid_eq is not None \
                    and aggregate.ssid_eq != snapshot_id:
                return "ssid filter does not match the resolved snapshot"
            args = (snapshot_id,)
        if not table.sketch_ready(*args):
            return ("no sketches (or the version's sketches are not "
                    "frozen)")
        if not table.has_sketch(aggregate.column, aggregate.kind):
            return (f"no {aggregate.kind} sketch on "
                    f"{aggregate.column!r}")
        partitions: list[int] = []
        entries = 0
        for node_id in self.cluster.surviving_node_ids():
            for partition in table.partitions_on_node(node_id):
                partitions.append(partition)
                entries += table.partition_entry_count(partition, *args)
        answer = table.approx_estimate(
            partitions, aggregate.mode, aggregate.column,
            aggregate.value, *args,
        )
        if answer is None:
            return "sketch cannot answer soundly (degraded partitions)"
        conjuncts = tuple(split_conjuncts(select.where))
        fragment = ScanFragment(
            table=table_name,
            binding=select.table.binding,
            pushed=conjuncts,
        )
        # The exact alternative pays the aggregation surcharge (and the
        # pushed-filter surcharge when there is a predicate) per row.
        surcharge = self.costs.partial_agg_entry_ms
        if conjuncts:
            surcharge += self.costs.pushed_filter_entry_ms
        candidate = SketchCandidate(
            label=f"{aggregate.kind}({aggregate.column!r})",
            probes=len(partitions),
        )
        choice = choose_access_path(
            fragment, table, args, partitions, entries, self.costs,
            surcharge, sketch=candidate, indexes=self.index_enabled,
        )
        output = output_column_name(select.items[0], 0)
        return choice, answer, output

    def _sketch_shard(self, record: _InFlight, table_name: str,
                      kind: str, node_id: int, attempt: int) -> None:
        """One node's share of a sketch-answered query: probe the local
        partition summaries (one probe each, no row touches) and ship a
        marker through the normal retry-aware result path."""
        execution = record.execution
        state = record.state
        table = self._table_for(table_name, kind)
        partitions = table.partitions_on_node(node_id)
        execution.counters["sketch_probes"] += len(partitions)
        node = self.cluster.node(node_id)
        server = node.store_server(
            state["stripe"].get(table_name, 0) + node_id
        )
        duration = len(partitions) * self.costs.sketch_probe_ms

        def finish() -> None:
            if execution.done or state["attempt"][table_name] != attempt:
                return
            payload = [{"sketch": table_name, "node": node_id}]
            self._ship_when_locked(record, table_name, kind, node_id,
                                   payload, attempt, lock_rows=[])

        server.submit(duration, finish)

    def _scan_shard(self, record: _InFlight, table_name: str, kind: str,
                    node_id: int, attempt: int) -> None:
        execution = record.execution
        state = record.state
        if record.sketch is not None:
            self._sketch_shard(record, table_name, kind, node_id,
                               attempt)
            return
        try:
            shard = self._scan_selection(
                record, table_name, kind, node_id
            )
        except SnapshotNotFoundError as exc:
            self._finish_execution(execution, None, exc)
            return
        counters = execution.counters
        counters["query_partitions_pruned"] += shard.pruned
        if shard.indexed:
            counters["index_probes"] += shard.probes
            counters["index_rows_read"] += shard.entries
            counters["rows_skipped_by_index"] += shard.skipped
        fragment = shard.fragment
        entries = shard.entries
        fetch = shard.fetch
        probe_ms = shard.probes * self.costs.index_probe_ms
        if entries == 0 and probe_ms == 0:
            # A provably-empty shard (zero stored entries, or a key
            # filter that eliminated every candidate partition) must not
            # occupy a store server or bill a chunk: complete it
            # immediately instead of submitting a zero-entry chunk.
            self._shard_scanned(record, table_name, kind, node_id,
                                entries, attempt, fetch, fragment, None)
            return
        vectorized = self.vectorized_enabled
        # Pushed predicate / projection / partial-agg work happens while
        # the scan walks the entries, at a small per-entry surcharge.
        # Index-backed shards fetch candidates by key (index_entry_ms)
        # instead of sweeping partitions; a vectorized sweep reads
        # columns sequentially at the cheaper batch rate, with compiled
        # closures cutting the per-entry fragment surcharge.
        if shard.indexed:
            per_entry_ms = self.costs.index_entry_ms
        elif vectorized:
            per_entry_ms = self.costs.vectorized_scan_entry_ms
        else:
            per_entry_ms = self.costs.scan_entry_ms
        compiled = None
        compile_ms = 0.0
        if fragment is not None:
            if vectorized:
                per_entry_ms += self.costs.vectorized_filter_entry_ms
                if fragment.partial is not None:
                    per_entry_ms += self.costs.vectorized_partial_agg_entry_ms
                compiled, cache_hit = fragment.compiled_form()
                if cache_hit:
                    counters["compile_cache_hits"] += 1
                else:
                    counters["predicates_compiled"] += len(fragment.pushed)
                    compile_ms = self.costs.predicate_compile_ms
            else:
                per_entry_ms += self.costs.pushed_filter_entry_ms
                if fragment.partial is not None:
                    per_entry_ms += self.costs.partial_agg_entry_ms
        chunk_fixed_ms = self.costs.batch_fixed_ms if vectorized else 0.0
        chunk = self.costs.scan_chunk_entries
        chunks = max(1, -(-entries // chunk))
        node = self.cluster.node(node_id)
        stripe = state["stripe"].get(table_name, 0) + node_id

        def run_chunk(remaining: int) -> None:
            if execution.done or state["attempt"][table_name] != attempt:
                return  # query finished, or this shard's node died
            if remaining == 0:
                self._shard_scanned(record, table_name, kind, node_id,
                                    entries, attempt, fetch, fragment,
                                    compiled)
                return
            # The final chunk is partial: bill only the entries left.
            done_entries = (chunks - remaining) * chunk
            entries_in_chunk = max(0, min(chunk, entries - done_entries))
            execution.entries_billed += entries_in_chunk
            duration = entries_in_chunk * per_entry_ms
            if entries_in_chunk:
                # Probe-only chunks (index probes with zero candidates)
                # assemble no batch and bill no batch overhead.
                duration += chunk_fixed_ms
                if vectorized:
                    counters["batches_evaluated"] += 1
            if remaining == chunks:
                # Index probes run before the first candidate fetch;
                # fragment compilation (cache misses only) with them.
                duration += probe_ms + compile_ms
            execution.scan_ms_billed += duration
            # Successive chunks visit successive store partitions, so a
            # scan spreads over (and contends on) all partition threads.
            server = node.store_server(stripe + remaining)
            server.submit(duration, run_chunk, remaining - 1)

        run_chunk(chunks)

    # -- scan pruning (partition selection) --------------------------------

    def _table_for(self, table_name: str, kind: str):
        if kind == "live":
            return self.store.get_live_table(table_name)
        return self.store.get_snapshot_table(table_name)

    def _scan_targets(self, record: _InFlight, table_name: str,
                      kind: str) -> list[int]:
        """Nodes whose shards a table scan must visit.

        With an exact key-set filter and every owner node alive, only
        the owners are scanned; any doubt (range filters, dead owners
        mid-reassignment) falls back to all survivors — pruning must
        never lose rows, only skip provably-empty work."""
        alive = self.cluster.surviving_node_ids()
        plan = record.plan
        if plan is None or not record.execution.materialize:
            return list(alive)
        fragment = plan.fragments.get(table_name)
        if fragment is None or not isinstance(fragment.key_filter, KeySet):
            return list(alive)
        table = self._table_for(table_name, kind)
        owners = sorted({
            table.owner_node_of(key) for key in fragment.key_filter.keys
        })
        if owners and all(owner in alive for owner in owners):
            return owners
        return list(alive)

    def _node_partition_count(self, table_name: str, kind: str,
                              node_id: int) -> int:
        table = self._table_for(table_name, kind)
        partitions = getattr(table, "partitions_on_node", None)
        if partitions is None:
            return 0
        return len(partitions(node_id))

    def _scan_selection(self, record: _InFlight, table_name: str,
                        kind: str, node_id: int) -> _ShardPlan:
        """Decide how one node's shard of one table is read.

        When the fragment pins a key filter, the scan visits only the
        partitions that can hold matching keys; when a secondary index
        prices below sweeping the surviving partitions, the shard
        resolves candidates through the index instead.  ``fetch``
        materialises exactly the chosen rows at scan-completion time."""
        state = record.state
        execution = record.execution
        fragment = None
        if record.plan is not None and not state["point"] \
                and execution.materialize:
            fragment = record.plan.fragments.get(table_name)
            if fragment is not None and fragment.is_passthrough:
                fragment = None
        selected: list[int] | None = None
        selection = None
        if fragment is not None and fragment.key_filter is not None:
            selection = self._select_partitions(
                table_name, kind, node_id, record.snapshot_id,
                fragment.key_filter,
            )
        if selection is not None:
            entries, fetch, pruned, selected = selection
        else:
            entries = self._entries_on_node(table_name, kind, node_id,
                                            record.snapshot_id)
            fetch = self._full_shard_fetch(record, table_name, kind,
                                           node_id)
            pruned = 0
        if fragment is not None and fragment.pushed:
            indexed = self._index_plan(record, table_name, kind, node_id,
                                       fragment, selected, entries)
            if indexed is not None:
                indexed.pruned = pruned
                return indexed
        return _ShardPlan(entries=entries, fetch=fetch, pruned=pruned,
                          fragment=fragment)

    def _index_plan(self, record: _InFlight, table_name: str, kind: str,
                    node_id: int, fragment: ScanFragment,
                    selected: list[int] | None,
                    scan_entries: int) -> _ShardPlan | None:
        """Index-backed shard plan, or ``None`` when no index beats the
        (pruned) full scan under the cost model."""
        if not self.index_enabled:
            return None
        snapshot_id = record.snapshot_id
        if isinstance(snapshot_id, list):
            return None  # all-versions scans stay on the legacy path
        table = self._table_for(table_name, kind)
        if not hasattr(table, "index_probe_count"):
            return None  # backend without secondary-index support
        args: tuple = () if kind == "live" else (snapshot_id,)
        if not table.index_ready(*args):
            return None  # no indexes, or the version is not frozen yet
        if selected is None:
            if not hasattr(table, "partitions_on_node"):
                return None
            selected = table.partitions_on_node(node_id)
        surcharge = self.costs.pushed_filter_entry_ms
        if fragment.partial is not None:
            surcharge += self.costs.partial_agg_entry_ms
        choice = choose_access_path(
            fragment, table, args, selected, scan_entries, self.costs,
            surcharge,
        )
        if choice.kind == "scan":
            return None
        partitions = list(selected)
        column = choice.column
        probe = choice.probe

        def fetch() -> list[dict]:
            return table.index_rows(partitions, column, probe, *args)

        return _ShardPlan(
            entries=choice.candidates,
            fetch=fetch,
            fragment=fragment,
            probes=choice.probes,
            skipped=scan_entries - choice.candidates,
            indexed=True,
        )

    def _select_partitions(self, table_name: str, kind: str, node_id: int,
                           snapshot_id, key_filter):
        """Partition-level pruning; ``None`` when the table or filter
        shape does not support it (whole-shard scan instead)."""
        if kind == "live":
            table = self.store.get_live_table(table_name)
            args: tuple = ()
        else:
            if isinstance(snapshot_id, list):
                return None  # all-versions scans stay on the legacy path
            table = self.store.get_snapshot_table(table_name)
            args = (snapshot_id,)
        if not hasattr(table, "rows_in_partition"):
            return None  # incremental/LSM backends: no partition rows
        partitions = table.partitions_on_node(node_id)
        if isinstance(key_filter, KeySet):
            # Exact key pinning is placement-stable: a key inserted
            # mid-scan still hashes into a selected partition.
            target = {
                table.partition_of_key(key) for key in key_filter.keys
            }
            selected = [p for p in partitions if p in target]
        elif kind == "snapshot":
            # Zone-map range pruning: committed snapshots are immutable,
            # so per-partition (min, max) key bounds computed at scan
            # start stay valid for the whole scan.
            selected = []
            for partition in partitions:
                bounds = table.partition_key_bounds(partition, *args)
                if bounds is None or key_filter.overlaps(*bounds):
                    selected.append(partition)
        else:
            # Live data moves under the scan: a range zone map computed
            # now could hide rows inserted later, so ranges don't prune.
            return None
        entries = sum(
            table.partition_entry_count(partition, *args)
            for partition in selected
        )

        def fetch() -> list[dict]:
            rows: list[dict] = []
            for partition in selected:
                rows.extend(table.rows_in_partition(partition, *args))
            return rows

        return entries, fetch, len(partitions) - len(selected), selected

    def _full_shard_fetch(self, record: _InFlight, table_name: str,
                          kind: str, node_id: int):
        snapshot_id = record.snapshot_id
        if kind == "live":
            live = self.store.get_live_table(table_name)
            return lambda: list(live.rows_on_node(node_id))
        table = self.store.get_snapshot_table(table_name)
        if isinstance(snapshot_id, list):
            return lambda: list(
                table.rows_all_versions_on_node(node_id, snapshot_id)
            )
        return lambda: list(table.rows_on_node(node_id, snapshot_id))

    def _entries_on_node(self, table_name: str, kind: str, node_id: int,
                         snapshot_id: int | list[int] | None) -> int:
        if kind == "live":
            return self.store.get_live_table(table_name).entries_on_node(
                node_id
            )
        table = self.store.get_snapshot_table(table_name)
        if isinstance(snapshot_id, list):
            return table.entries_all_versions_on_node(node_id, snapshot_id)
        return table.entries_on_node(node_id, snapshot_id)

    def _shard_scanned(self, record: _InFlight, table_name: str, kind: str,
                       node_id: int, entries: int, attempt: int,
                       fetch, fragment, compiled=None) -> None:
        """Materialise this shard's rows *now*, run the pushed fragment
        against them, and ship only what survives.

        ``compiled`` is the fragment's compiled closure form on the
        vectorized path (``None`` runs the interpreted baseline)."""
        execution = record.execution
        state = record.state
        lock_rows: list[dict] | None = None
        if not execution.materialize:
            payload: list[dict] | int | PartialGroups | _ShardError = (
                self._row_count(
                    table_name, kind, node_id, record.snapshot_id
                )
            )
        else:
            raws = fetch()
            if fragment is not None:
                try:
                    # Repeatable read locks exactly the rows the query
                    # observes: the survivors of the pushed predicates.
                    lock_rows, payload, _batches = run_fragment_batches(
                        fragment, compiled, raws,
                        EvalContext(now_ms=self.sim.now),
                        self.costs.scan_chunk_entries,
                    )
                except Exception as exc:  # ship the error, don't crash
                    payload = _ShardError(exc)
                    lock_rows = []
            else:
                payload = raws
                lock_rows = raws
        state["scanned"] += entries
        if (
            record.join is not None
            and table_name in record.join.local
            and isinstance(payload, list)
        ):
            # Join input that stays node-local: the rows are held for a
            # later stage and only a framed ack ships to the entry node.
            payload = _JoinLocalAck(node_id, payload)
        self._ship_when_locked(record, table_name, kind, node_id, payload,
                               attempt, lock_rows)

    def _ship_when_locked(self, record: _InFlight, table_name: str,
                          kind: str, node_id: int, payload,
                          attempt: int, lock_rows=None) -> None:
        """Ship a shard's payload, acquiring repeatable-read locks first.

        ``lock_rows`` are the raw rows to lock when they differ from the
        shipped payload (projected rows / partial-aggregate states)."""

        def ship() -> None:
            self._ship(record, table_name, node_id, payload, attempt)

        rows_to_lock = payload if lock_rows is None else lock_rows
        if (
            self.repeatable_read
            and kind == "live"
            and isinstance(rows_to_lock, list)
        ):
            self._lock_rows(record.execution, table_name, rows_to_lock,
                            ship)
        else:
            ship()

    def _payload_nbytes(self, record: _InFlight, table_name: str,
                        payload) -> int:
        """Shipping bytes for one shard's payload.

        The legacy path (and point lookups) bills a flat ``row_bytes``
        per row; pushdown bills the actual surviving shape — projected
        columns per row, or one fixed-width state per partial group —
        which is precisely the bytes-on-the-wire saving the distributed
        plan exists to create."""
        costs = self.costs
        if isinstance(payload, int):
            return payload * costs.row_bytes
        if isinstance(payload, _ShardError):
            # An error marker ships like one framed header-only row.
            return costs.row_overhead_bytes
        if isinstance(payload, _JoinLocalAck):
            # The rows stay on their node for a join stage; only the
            # "shard done" control frame crosses the wire.
            return costs.row_overhead_bytes
        if isinstance(payload, PartialGroups):
            per_group = (costs.row_overhead_bytes
                         + payload.width() * costs.column_bytes)
            return len(payload) * per_group
        state = record.state
        pushdown = record.plan is not None and not state["point"]
        if pushdown:
            fragment = record.plan.fragments.get(table_name)
            if fragment is not None and not fragment.is_passthrough:
                return sum(
                    costs.row_overhead_bytes
                    + len(row) * costs.column_bytes
                    for row in payload
                )
        return len(payload) * costs.row_bytes

    def _ship(self, record: _InFlight, table_name: str, node_id: int,
              payload, attempt: int) -> None:
        execution = record.execution
        nbytes = self._payload_nbytes(record, table_name, payload)
        channel = ("query-result", execution.qid, table_name, node_id,
                   attempt)
        execution.channels.add(channel)
        self.cluster.network.send(
            node_id, execution.entry_node,
            self._shard_arrived, record, table_name, node_id, payload,
            attempt, nbytes,
            nbytes=nbytes,
            channel=channel,
        )

    def _row_count(self, table_name: str, kind: str, node_id: int,
                   snapshot_id: int | list[int] | None) -> int:
        if kind == "live":
            return self.store.get_live_table(table_name).row_count_on_node(
                node_id
            )
        table = self.store.get_snapshot_table(table_name)
        if isinstance(snapshot_id, list):
            return table.rows_all_versions_count_on_node(
                node_id, snapshot_id
            )
        return table.row_count_on_node(node_id, snapshot_id)

    def _lock_rows(self, execution: QueryExecution, table_name: str,
                   rows: list[dict], then: Callable[[], None]) -> None:
        """Repeatable read: hold every read key's lock until the end.

        Contended keys *block* — the request queues FIFO behind the
        holder and ``then`` runs once every key is granted — instead of
        being silently skipped, which would leave the "repeatable" read
        unprotected exactly when it matters.  A grant that arrives after
        the query already finished (abort, timeout) releases itself
        immediately, so nothing leaks.

        Lock requests are issued in canonical (sorted) key order, not
        row-shipment order: two concurrent queries whose shards land in
        different orders would otherwise each hold some keys while
        queued FIFO behind the other's — the hold-and-wait cycle the
        lockdep sanitizer and the lock-order lint rule exist to catch.
        With a single global acquisition order the wait-for graph stays
        acyclic.
        """
        locks = self.store.locks
        pending = {"n": 1}  # sentinel guards against sync completion

        def granted_one() -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                then()

        requested: set = set()
        for row in rows:
            key = (table_name, row["partitionKey"])
            if key in requested or locks.holder_of(key) is execution:
                continue  # already held from an earlier attempt/shard
            requested.add(key)
        pending["n"] += len(requested)
        for key in sorted(requested, key=repr):
            locks.acquire(key, execution,
                          granted=_lock_grant(locks, key, execution,
                                              granted_one))
        granted_one()  # release the sentinel

    def _shard_arrived(self, record: _InFlight, table_name: str,
                       node_id: int, payload, attempt: int,
                       nbytes: int) -> None:
        execution = record.execution
        state = record.state
        if execution.done or state["attempt"][table_name] != attempt:
            return  # stale shipment from a node that died mid-query
        counters = execution.counters
        if isinstance(payload, int):
            counters["query_rows_shipped"] += payload
        else:
            state["rows"][table_name][node_id] = payload
            if not isinstance(payload, _ShardError):
                counters["query_rows_shipped"] += len(payload)
        counters["query_bytes_shipped"] += nbytes
        state["nodes"][table_name].discard(node_id)
        state["pending"] -= 1
        if state["pending"] == 0:
            if record.join is not None:
                start_join_pipeline(self, record)
            else:
                self._merge(record)

    # -- merge phase ---------------------------------------------------------

    def _merge(self, record: _InFlight) -> None:
        execution = record.execution
        execution.entries_scanned = record.state["scanned"]
        duration = (execution.counters["query_rows_shipped"]
                    * self.costs.merge_row_ms)
        pool = self.cluster.node(execution.entry_node).query_pool
        pool.submit(
            ("query", execution.qid), duration, self._finish, record
        )

    def _finish(self, record: _InFlight) -> None:
        execution = record.execution
        if execution.done:
            return  # aborted while the merge sat in the entry pool
        if not execution.materialize:
            self._finish_execution(execution, None, None)
            return
        if record.sketch is not None:
            # Sketch-answered APPROX: the estimate was computed at plan
            # time (sound — see _SketchAnswer); the shards only billed
            # probe costs and shipped markers.
            execution.counters["approx_queries_answered"] += 1
            result = QueryResult(
                columns=list(record.sketch.columns),
                rows=[dict(record.sketch.row)],
                scanned=0,
            )
            self._finish_execution(execution, result, None)
            return
        state = record.state
        shard_error = self._first_shard_error(record)
        if shard_error is not None:
            self._finish_execution(execution, None, shard_error)
            return
        # Point lookups ship complete rows; the full statement (with the
        # key predicate) runs centrally as before.
        plan = record.plan if not state["point"] else None
        context = EvalContext(now_ms=self.sim.now)
        try:
            if plan is not None and plan.partial is not None:
                # Partial-aggregate merge: combine the per-node group
                # states (sorted by node id for determinism), then
                # finalise HAVING / ORDER BY / LIMIT centrally.
                table_name = plan.select.table.name
                per_node = state["rows"][table_name]
                payloads = [per_node[n] for n in sorted(per_node)]
                groups = merge_partial_groups(
                    payloads, plan.partial, plan.select.table.binding
                )
                result = execute_grouped_select(
                    plan.final_select, groups, context,
                    scanned=sum(len(p) for p in payloads),
                )
            else:
                catalog = DictCatalog()
                for name, per_node in state["rows"].items():
                    rows: list[dict] = []
                    for n in sorted(per_node):
                        rows.extend(per_node[n])
                    catalog.add(ListTable(name, tuple(rows)))
                statement = (plan.final_select if plan is not None
                             else record.select)
                result = execute_select(statement, catalog, context)
        except Exception as exc:  # surface SQL errors on the handle
            self._finish_execution(execution, None, exc)
            return
        self._finish_execution(execution, result, None)

    def _first_shard_error(self, record: _InFlight) -> Exception | None:
        """The canonical scan-side error among collected payloads.

        Tables in FROM order, nodes sorted: the same order the merge
        concatenates rows in, so the surfaced error is the first one a
        central evaluation of the canonical row stream would hit —
        independent of shard completion timing."""
        state = record.state
        for table_name, _ in record.table_kinds:
            per_node = state["rows"].get(table_name, {})
            for node_id in sorted(per_node):
                payload = per_node[node_id]
                if isinstance(payload, _ShardError):
                    return payload.error
        return None

    def _release_locks(self, execution: QueryExecution) -> None:
        if self.repeatable_read:
            self.store.locks.release_all(execution)


def _lock_grant(locks, key, execution: QueryExecution,
                granted_one: Callable[[], None]) -> Callable[[], None]:
    """Grant callback for one key: late grants to finished queries give
    the lock straight back instead of leaking it."""

    def granted() -> None:
        if execution.done:
            locks.release(key, execution)
            return
        granted_one()

    return granted


def _extract_key_filter(where: Expr | None, binding: str = "") -> object:
    """Keys a single-table query is pinned to.

    Returns a non-empty tuple for ``key = <literal>``,
    ``key IN (<literals>)`` or an OR-of-equality conjunct (each becomes
    a multi-point get against the owners), or :data:`NO_POINT_KEY` when
    the query needs a scan.  ``partitionKey`` works the same way."""
    if where is None:
        return NO_POINT_KEY
    conjuncts = split_conjuncts(where)
    for column in ("key", "partitionKey"):
        key_filter = extract_key_filter(conjuncts, column, binding)
        if isinstance(key_filter, KeySet):
            keys = tuple(
                key for key in key_filter.keys if key is not None
            )
            if 0 < len(keys) <= MAX_POINT_KEYS:
                return keys
    return NO_POINT_KEY


def _extract_ssid_filter(where: Expr | None) -> int | None:
    """Find a top-level ``ssid = <literal>`` conjunct, as in the paper's
    ``WHERE ssid=9 AND key=2`` example (Fig. 4)."""
    if where is None:
        return None
    if isinstance(where, Binary) and where.op == "AND":
        left = _extract_ssid_filter(where.left)
        if left is not None:
            return left
        return _extract_ssid_filter(where.right)
    if isinstance(where, Binary) and where.op == "=":
        sides = [(where.left, where.right), (where.right, where.left)]
        for column, literal in sides:
            if (
                isinstance(column, Column)
                and column.name == "ssid"
                and isinstance(literal, Literal)
                and isinstance(literal.value, int)
            ):
                return literal.value
    return None
