"""Span tracer that wraps the program's public entry points at runtime.

Nothing under ``src/`` is edited: :func:`install` replaces each entry
point with a wrapper that records a span (name, start, end, parent span,
query id) while the tracer is active, and calls straight through while
it is not.  Spans are held in memory and written out by
:meth:`Tracer.dump` when the benchmark process ends.

A span's *self time* is its duration minus the time its child spans
cover.  Calls nest strictly (the simulator is single-threaded and every
wrapped entry point is synchronous), so the covered time is the sum of
the direct children's durations.  Generator entry points
(``rows_on_node``) are timed while they are consumed, one timing per
``next()``, and recorded as one span per generator.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from time import perf_counter

#: Span name -> layer metric the span's self time is added to.
LAYER_OF_SPAN = {
    "Simulator.run_until": "simtime.self_s",
    "OperatorInstance.deliver_guarded": "dataflow.deliver_s",
    "SQueryBackend.on_state_update": "state.mirror_s",
    "SQueryBackend.write_snapshot": "state.snapshot_write_s",
    "FullSnapshotTable.write_instance": "state.snapshot_write_s",
    "LiveStateTable.rows_on_node": "state.rows_s",
    "FullSnapshotTable.rows_on_node": "state.rows_s",
    "parse": "sql.parse_s",
    "split_select": "sql.plan_s",
    "choose_access_path": "sql.plan_s",
    "choose_join_path": "sql.plan_s",
    "run_fragment_batches": "sql.scan_s",
    "run_broadcast_probe": "sql.scan_s",
    "build_join_index": "sql.join_s",
    "probe_join_index": "sql.join_s",
    "execute_joined_select": "sql.join_s",
    "execute_select": "sql.final_s",
    "execute_grouped_select": "sql.final_s",
    "QueryService.execute": "query.self_s",
    "QueryService.submit": "query.self_s",
    "ChangeRecorder.record_mutation": "continuous.capture_s",
    "StandingQuery.on_delta": "continuous.apply_s",
    "Arrangement.on_event": "continuous.apply_s",
    "SubscriptionRouter.route": "continuous.route_s",
}

#: Every self-time metric, including those no span feeds on a workload.
TIME_METRICS = sorted(set(LAYER_OF_SPAN.values()))


class Tracer:
    def __init__(self) -> None:
        self.active = False
        #: Query id of the ``QueryService.execute`` call in progress
        #: (closed-loop clients); ``None`` for asynchronous submits.
        self.qid = None
        self.in_execute = False
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows_yielded: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child-covered seconds]
        self._next_id = 1

    def start(self) -> None:
        self.qid = None
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- recording ------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float,
               duration: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        self.spans.append((frame[0], name, start, end,
                           parent[0] if parent else 0, self.qid))

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(name, frame, start, end, end - start)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            if not tracer.active:
                return generator
            return tracer._consume(name, generator)

        traced.__wrapped__ = fn
        return traced

    def _consume(self, name: str, generator):
        """Yield ``generator``'s items, timing each ``next()`` as covered
        time of whatever span consumes it."""
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        first = last = None
        own = 0.0
        rows = 0
        try:
            while True:
                frame = [span_id, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - start
                    if stack:
                        stack[-1][1] += duration
                    own += duration - frame[1]
                    first = start if first is None else first
                    last = end
                rows += 1
                yield item
        finally:
            self.self_s[name] += own
            self.calls[name] += 1
            self.rows_yielded[name] += rows
            if first is not None:
                self.spans.append((span_id, name, first, last, parent,
                                   self.qid))

    # -- output ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every recorded span as gzip'd CSV (one span a line)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,qid\n")
            for span_id, name, start, end, parent, qid in self.spans:
                out.write(f"{span_id},{name},{start:.9f},{end:.9f},"
                          f"{parent},{'' if qid is None else qid}\n")

    def layer_times(self) -> dict[str, float]:
        totals = {metric: 0.0 for metric in TIME_METRICS}
        for name, seconds in self.self_s.items():
            totals[LAYER_OF_SPAN[name]] += seconds
        return totals


def _patch_function(tracer: Tracer, module_name: str, attr: str) -> None:
    """Wrap a module function everywhere it is bound by name: modules
    that did ``from x import f`` hold their own reference, so patching
    only the defining module would miss their calls."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = tracer.wrap(attr, original)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch_method(tracer: Tracer, cls, attr: str,
                  generator: bool = False) -> None:
    name = f"{cls.__name__}.{attr}"
    original = getattr(cls, attr)
    wrap = tracer.wrap_generator if generator else tracer.wrap
    setattr(cls, attr, wrap(name, original))


def install(tracer: Tracer) -> None:
    """Wrap every entry point named in :data:`LAYER_OF_SPAN`."""
    import repro  # noqa: F401  (loads the modules patched below)
    from repro.continuous.arrangements import Arrangement
    from repro.continuous.changelog import ChangeRecorder
    from repro.continuous.router import SubscriptionRouter
    from repro.continuous.standing import StandingQuery
    from repro.dataflow.worker import OperatorInstance
    from repro.query.service import QueryService
    from repro.simtime.simulator import Simulator
    from repro.state.live import LiveStateTable
    from repro.state.manager import SQueryBackend
    from repro.state.snapshots import FullSnapshotTable

    _patch_method(tracer, Simulator, "run_until")
    _patch_method(tracer, OperatorInstance, "deliver_guarded")
    _patch_method(tracer, SQueryBackend, "on_state_update")
    _patch_method(tracer, SQueryBackend, "write_snapshot")
    # write_snapshot only schedules the chunked store writes; the rows
    # are copied into the table when they complete.
    _patch_method(tracer, FullSnapshotTable, "write_instance")
    _patch_method(tracer, LiveStateTable, "rows_on_node", generator=True)
    _patch_method(tracer, FullSnapshotTable, "rows_on_node",
                  generator=True)
    _patch_method(tracer, ChangeRecorder, "record_mutation")
    _patch_method(tracer, StandingQuery, "on_delta")
    _patch_method(tracer, Arrangement, "on_event")
    _patch_method(tracer, SubscriptionRouter, "route")
    for module, function in (
        ("repro.sql.parser", "parse"),
        ("repro.sql.fragments", "split_select"),
        ("repro.sql.access", "choose_access_path"),
        ("repro.sql.access", "choose_join_path"),
        ("repro.sql.batch", "run_fragment_batches"),
        ("repro.sql.batch", "run_broadcast_probe"),
        ("repro.sql.executor", "build_join_index"),
        ("repro.sql.executor", "probe_join_index"),
        ("repro.sql.executor", "execute_joined_select"),
        ("repro.sql.executor", "execute_select"),
        ("repro.sql.executor", "execute_grouped_select"),
    ):
        _patch_function(tracer, module, function)

    submit = QueryService.submit
    execute = QueryService.execute

    def submit_with_qid(self, *args, **kwargs):
        execution = submit(self, *args, **kwargs)
        tracer.qid = execution.qid if tracer.in_execute else None
        return execution

    def execute_with_qid(self, *args, **kwargs):
        # The id stays set until the next submit, so the execute span
        # itself (closed after this returns) carries it too.
        tracer.in_execute = True
        tracer.qid = None
        try:
            return execute(self, *args, **kwargs)
        finally:
            tracer.in_execute = False

    QueryService.submit = tracer.wrap("QueryService.submit",
                                      submit_with_qid)
    QueryService.execute = tracer.wrap("QueryService.execute",
                                       execute_with_qid)
