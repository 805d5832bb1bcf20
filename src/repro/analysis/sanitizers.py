"""Runtime sanitizers: invariant detectors armed while tests run.

The lint rules (:mod:`repro.analysis.rules`) catch what is visible in
the source; these sanitizers catch what only shows up at run time.
:class:`SanitizerRuntime` wraps live objects of one
:class:`~repro.env.Environment` — no behavioural change, pure
detection:

* **snapshot immutability** — a ``write_instance`` or ``drop_snapshot``
  against an already-committed, still-queryable snapshot id is the
  torn-read bug snapshot isolation promises away (§VII); optionally,
  content fingerprints taken at commit are re-checked at
  :meth:`SanitizerRuntime.verify` to catch in-place mutation that
  bypasses the store API (the shared-arrangements reader guarantee);
* **lock leaks** — a query that completes while still holding key
  locks would starve every later writer of those keys;
* **billing / isolation classification** — a live (read-uncommitted)
  query must never be accounted as a snapshot read or vice versa, and
  a query that shipped rows must have billed shipping bytes;
* **dead-node scheduling** — work submitted to a pool or store server
  of a node that is not alive would execute on a ghost;
* **lockdep** — the runtime mirror of the static lock-order rule:
  every (held class, acquired class) lock pair is recorded at
  acquisition, and the first pair observed in *both* orders is
  reported with both stacks — a potential deadlock even if this run's
  timing got lucky.  Edge and violation counts roll into
  :class:`~repro.observability.ClusterReport` as
  ``lock_order_edges_observed`` / ``lockdep_violations``;
* **index coherence** — every secondary index must agree with its
  backing partitions at verification time, committed snapshot versions
  must have frozen index registries, and any mutation of a frozen
  registry is reported the instant it is attempted;
* **sketch coherence** — every probabilistic summary (count-min, HLL,
  reservoir) must be rebuildable bit-identically from its backing
  partitions, committed snapshot versions must have frozen sketch
  registries, and any mutation of a frozen sketch registry is reported
  the instant it is attempted.

Violations either raise :class:`~repro.errors.SanitizerError`
immediately (``fail_fast``) or accumulate on the runtime.  The test
suite arms the cheap detectors for every environment through an
autouse fixture (see ``tests/conftest.py``); the CI smoke run arms
everything including fingerprints.
"""

from __future__ import annotations

import hashlib
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from ..config import SanitizerConfig
from ..errors import SanitizerError
from ..state.isolation import IsolationLevel

if TYPE_CHECKING:  # pragma: no cover
    from ..env import Environment

#: Default config consulted by ``Environment`` when none is passed
#: (set by the pytest autouse fixture, ``None`` in production runs).
_default_config: SanitizerConfig | None = None

#: Runtimes installed since the last drain (test-teardown bookkeeping).
# lint: allow(shared-state) append/drain bookkeeping list owned by the
# pytest autouse fixture; single event-loop thread, no lock needed.
_runtimes: list["SanitizerRuntime"] = []


def set_default_config(config: SanitizerConfig | None) -> None:
    """Set the config future ``Environment``s adopt when not given one."""
    global _default_config
    _default_config = config


def default_config() -> SanitizerConfig | None:
    return _default_config


def active_runtimes() -> list["SanitizerRuntime"]:
    return list(_runtimes)


def drain_runtimes() -> list["SanitizerRuntime"]:
    """Return and forget every runtime installed since the last drain."""
    drained = list(_runtimes)
    _runtimes.clear()
    return drained


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected invariant violation."""

    kind: str
    message: str

    def format(self) -> str:
        return f"[{self.kind}] {self.message}"


class SanitizerRuntime:
    """Detection wrappers around one environment's moving parts."""

    def __init__(self, env: "Environment", config: SanitizerConfig,
                 from_default: bool = False) -> None:
        config.validate()
        self.env = env
        self.config = config
        #: Whether this runtime was armed by the process-wide default
        #: (autouse fixture) rather than an explicit config — fixtures
        #: only assert on default-armed runtimes, so tests that verify
        #: the sanitizers themselves can violate invariants on purpose.
        self.from_default = from_default
        self.violations: list[SanitizerViolation] = []
        #: (table name, ssid) -> content hash taken at commit time.
        self._fingerprints: dict[tuple[str, int], str] = {}
        #: Lock classes currently held, per ``id(owner)`` (lockdep).
        self._lockdep_held: dict[int, Counter] = {}
        #: Request-time hold snapshots of still-queued acquires.
        self._lockdep_pending: dict[
            tuple[Hashable, int], tuple[str, ...]
        ] = {}
        #: (held class, acquired class) -> stack summary at first sight.
        self._lockdep_edges: dict[tuple[str, str], str] = {}

    @property
    def lock_order_edges_observed(self) -> int:
        """Distinct (held, acquired) lock-class pairs seen so far."""
        return len(self._lockdep_edges)

    @property
    def lockdep_violations(self) -> int:
        """Lock-order inversions detected by the lockdep sanitizer."""
        return sum(1 for v in self.violations if v.kind == "lockdep")

    # -- recording ---------------------------------------------------------

    def _record(self, kind: str, message: str) -> None:
        violation = SanitizerViolation(kind, message)
        self.violations.append(violation)
        if self.config.fail_fast:
            raise SanitizerError(violation.format())

    # -- installation ------------------------------------------------------

    def install(self) -> "SanitizerRuntime":
        if self.config.snapshot_immutability:
            self._install_snapshot_guard()
        if self.config.lock_leaks or self.config.billing:
            self._install_query_guard()
        if self.config.dead_node_scheduling:
            self._install_dead_node_guard()
        if self.config.lockdep:
            self._install_lockdep()
        _runtimes.append(self)
        return self

    # -- snapshot immutability ---------------------------------------------

    def _install_snapshot_guard(self) -> None:
        store = self.env.store
        for name in store.snapshot_table_names():
            self._wrap_snapshot_table(name, store.get_snapshot_table(name))
        original_register = store.register_snapshot_table

        def register(name: str, table: object) -> None:
            original_register(name, table)
            self._wrap_snapshot_table(name, table)

        store.register_snapshot_table = register  # type: ignore[assignment]
        if self.config.snapshot_fingerprints:
            store.add_commit_listener(self._fingerprint_commit)

    def _wrap_snapshot_table(self, name: str, table: object) -> None:
        # Tolerate partial table APIs (tests register minimal fakes):
        # guard whichever of the mutating methods the table exposes.
        store = self.env.store
        original_write = getattr(table, "write_instance", None)
        original_drop = getattr(table, "drop_snapshot", None)
        set_hook = getattr(table, "set_index_mutation_hook", None)
        if set_hook is not None:
            set_hook(lambda message, name=name: self._record(
                "frozen-index", f"snapshot table {name!r}: {message}"
            ))
        set_sketch_hook = getattr(table, "set_sketch_mutation_hook",
                                  None)
        if set_sketch_hook is not None:
            set_sketch_hook(lambda message, name=name: self._record(
                "frozen-sketch", f"snapshot table {name!r}: {message}"
            ))

        if original_write is not None:
            def write_instance(ssid, *args, **kwargs):
                if ssid in store.available_ssids():
                    self._record(
                        "snapshot-mutation",
                        f"write to snapshot table {name!r} for "
                        f"committed ssid {ssid}: committed versions "
                        "are immutable",
                    )
                return original_write(ssid, *args, **kwargs)

            table.write_instance = write_instance  # type: ignore

        if original_drop is not None:
            def drop_snapshot(ssid):
                if ssid in store.available_ssids():
                    self._record(
                        "snapshot-mutation",
                        f"drop of snapshot {ssid} from {name!r} while "
                        "it is still queryable (retire it first)",
                    )
                return original_drop(ssid)

            table.drop_snapshot = drop_snapshot  # type: ignore

    def _fingerprint_commit(self, ssid: int) -> None:
        store = self.env.store
        for name in store.snapshot_table_names():
            table = store.get_snapshot_table(name)
            if not table.has_snapshot(ssid):
                continue
            self._fingerprints[(name, ssid)] = _content_hash(table, ssid)

    # -- query completion (locks + billing) --------------------------------

    def _install_query_guard(self) -> None:
        for service in self.env.query_services:
            self._wrap_service(service)
        self.env.query_services = _ServiceRegistry(
            self, self.env.query_services
        )

    def _wrap_service(self, service) -> None:
        original_finish = service._finish_execution

        def finish(execution, result, error) -> None:
            was_done = execution.done
            original_finish(execution, result, error)
            if was_done:
                return  # duplicate completion: nothing new happened
            if self.config.lock_leaks:
                self._check_lock_leak(service, execution)
            if self.config.billing:
                self._check_billing(execution)

        service._finish_execution = finish

    def _check_lock_leak(self, service, execution) -> None:
        locks = service.store.locks
        leaked = [
            key for key in locks.held_keys()
            if locks.holder_of(key) is execution
        ]
        if leaked:
            self._record(
                "lock-leak",
                f"query {execution.qid} completed still holding "
                f"{len(leaked)} key lock(s), e.g. {leaked[0]!r}",
            )

    def _check_billing(self, execution) -> None:
        if execution.error is not None:
            return  # aborted queries may stop before resolution/billing
        resolved_snapshot = (
            execution.snapshot_id is not None
            or execution.snapshot_versions is not None
        )
        snapshot_billed = execution.isolation.at_least(
            IsolationLevel.SNAPSHOT
        )
        if snapshot_billed and not resolved_snapshot:
            self._record(
                "billing-isolation",
                f"query {execution.qid} billed as a snapshot read "
                f"({execution.isolation.value}) but resolved no "
                "snapshot id",
            )
        elif resolved_snapshot and not snapshot_billed:
            self._record(
                "billing-isolation",
                f"query {execution.qid} read snapshot "
                f"{execution.snapshot_id} under read-uncommitted "
                "accounting",
            )
        shipped = execution.counters["query_rows_shipped"]
        if shipped > 0 and execution.counters["query_bytes_shipped"] <= 0:
            self._record(
                "unbilled-ship",
                f"query {execution.qid} shipped "
                f"{shipped} rows but billed zero bytes",
            )

    # -- dead-node scheduling ----------------------------------------------

    def _install_dead_node_guard(self) -> None:
        for node in self.env.cluster.nodes:
            self._wrap_submitter(node, node.processing_pool)
            self._wrap_submitter(node, node.query_pool)
            for server in node.store_servers:
                self._wrap_submitter(node, server)

    def _wrap_submitter(self, node, resource) -> None:
        original_submit = resource.submit

        def submit(*args, **kwargs):
            if not node.alive:
                self._record(
                    "dead-node-schedule",
                    f"work submitted to {resource.name!r} while node "
                    f"{node.node_id} is down",
                )
            return original_submit(*args, **kwargs)

        resource.submit = submit  # type: ignore[assignment]

    # -- lockdep: runtime lock-order inversion detection -------------------

    @staticmethod
    def _lock_class(key: Hashable) -> str:
        """The lockdep *class* of a key: its table-name component.

        Keys are ``(table, partition_key)`` tuples, so ordering is
        tracked between tables rather than between the O(n²) pairs of
        individual keys a repeatable-read scan holds (within-table
        order is canonicalised at the acquisition sites instead —
        exactly how kernel lockdep collapses lock instances into
        classes).
        """
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            return key[0]
        return repr(key)

    @staticmethod
    def _stack_summary() -> str:
        """Compact innermost-first summary of the current call stack."""
        frames = traceback.extract_stack()[:-2]
        return " <- ".join(
            f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}:"
            f"{frame.name}"
            for frame in reversed(frames[-8:])
        )

    def _install_lockdep(self) -> None:
        """Wrap the lock table to record acquisition order.

        Every successful acquisition records one edge per lock class
        the owner already held when it *requested* the lock (for FIFO
        waiters that is the request-time snapshot, stashed in
        ``_lockdep_pending`` — by grant time the owner's holdings may
        have changed).  The first pair observed in both orders is
        reported with both stacks: an inversion that can deadlock on a
        timing this run did not happen to hit.
        """
        locks = self.env.store.locks
        held = self._lockdep_held
        pending = self._lockdep_pending
        original_try = locks.try_acquire
        original_acquire = locks.acquire
        original_release = locks.release

        def snapshot(owner) -> tuple[str, ...]:
            counter = held.get(id(owner))
            if not counter:
                return ()
            return tuple(sorted(counter))

        def bump(owner, key) -> None:
            held.setdefault(id(owner), Counter())[
                self._lock_class(key)
            ] += 1

        def drop(owner, key) -> None:
            counter = held.get(id(owner))
            if counter is None:
                return
            cls = self._lock_class(key)
            if counter[cls] > 0:
                counter[cls] -= 1
            if counter[cls] <= 0:
                del counter[cls]
            if not counter:
                del held[id(owner)]

        def note_acquired(key, held_classes) -> None:
            cls = self._lock_class(key)
            for holder_cls in held_classes:
                if holder_cls == cls:
                    continue
                edge = (holder_cls, cls)
                if edge not in self._lockdep_edges:
                    self._lockdep_edges[edge] = self._stack_summary()
                inverse = self._lockdep_edges.get((cls, holder_cls))
                if inverse is not None:
                    self._record(
                        "lockdep",
                        f"lock-order inversion: {cls!r} acquired "
                        f"while {holder_cls!r} is held [stack: "
                        f"{self._lockdep_edges[edge]}] but "
                        f"{holder_cls!r} was previously acquired "
                        f"while {cls!r} was held [stack: {inverse}]; "
                        "the two orders can deadlock",
                    )

        def try_acquire(key, owner):
            ok = original_try(key, owner)
            if ok:
                note_acquired(key, snapshot(owner))
                bump(owner, key)
            return ok

        def acquire(key, owner, granted=None):
            before = snapshot(owner)
            # An immediate grant goes through the wrapped try_acquire
            # (instance attribute), which records the edge itself.
            ok = original_acquire(key, owner, granted)
            if not ok:
                pending[(key, id(owner))] = before
            return ok

        def release(key, owner):
            original_release(key, owner)  # raises before bookkeeping
            drop(owner, key)
            # A released key cannot have a live queued request from
            # the same owner; drop any stale snapshot (late grants to
            # finished queries release from inside their callback).
            pending.pop((key, id(owner)), None)
            new_holder = locks.holder_of(key)
            if new_holder is not None and new_holder is not owner:
                queued = pending.pop((key, id(new_holder)), None)
                if queued is not None:
                    note_acquired(key, queued)
                    bump(new_holder, key)

        locks.try_acquire = try_acquire  # type: ignore[assignment]
        locks.acquire = acquire  # type: ignore[assignment]
        locks.release = release  # type: ignore[assignment]

    # -- verification ------------------------------------------------------

    def verify(self) -> list[SanitizerViolation]:
        """End-of-run checks: fingerprints and orphaned locks.

        Returns all violations recorded so far (raising on a fresh one
        first when ``fail_fast``).
        """
        store = self.env.store
        if self.config.snapshot_fingerprints:
            available = set(store.available_ssids())
            for (name, ssid), expected in sorted(
                self._fingerprints.items()
            ):
                if ssid not in available:
                    continue  # retired since commit: nothing to check
                table = store.get_snapshot_table(name)
                if not table.has_snapshot(ssid):
                    continue
                if _content_hash(table, ssid) != expected:
                    self._record(
                        "torn-snapshot",
                        f"snapshot table {name!r} ssid {ssid} content "
                        "changed after commit (in-place mutation "
                        "bypassed the store API)",
                    )
        if self.config.lock_leaks:
            for key in store.locks.held_keys():
                holder = store.locks.holder_of(key)
                if getattr(holder, "done", False):
                    self._record(
                        "lock-leak",
                        f"lock on {key!r} still held by finished "
                        f"query {getattr(holder, 'qid', holder)!r}",
                    )
        if self.config.index_coherence:
            self._check_index_coherence()
        if self.config.sketch_coherence:
            self._check_sketch_coherence()
        return list(self.violations)

    def _check_index_coherence(self) -> None:
        """Every secondary index must agree with its backing store, and
        committed snapshot versions must have frozen indexes."""
        store = self.env.store
        for name in store.live_table_names():
            table = store.get_live_table(name)
            errors = getattr(table, "index_coherence_errors", None)
            if errors is None:
                continue
            for problem in errors():
                self._record(
                    "index-coherence",
                    f"live table {name!r}: {problem}",
                )
        available = store.available_ssids()
        for name in store.snapshot_table_names():
            table = store.get_snapshot_table(name)
            if not getattr(table, "index_count", 0):
                continue
            for ssid in available:
                if not table.has_snapshot(ssid):
                    continue
                if not table.index_ready(ssid):
                    self._record(
                        "frozen-index",
                        f"snapshot table {name!r} ssid {ssid} committed "
                        "but its indexes were never frozen",
                    )
                    continue
                for problem in table.index_coherence_errors(ssid):
                    self._record(
                        "index-coherence",
                        f"snapshot table {name!r} ssid {ssid}: "
                        f"{problem}",
                    )

    def _check_sketch_coherence(self) -> None:
        """Every sketch must be rebuildable bit-identically from its
        backing store, and committed versions must have frozen
        sketches."""
        store = self.env.store
        for name in store.live_table_names():
            table = store.get_live_table(name)
            errors = getattr(table, "sketch_coherence_errors", None)
            if errors is None:
                continue
            for problem in errors():
                self._record(
                    "sketch-coherence",
                    f"live table {name!r}: {problem}",
                )
        available = store.available_ssids()
        for name in store.snapshot_table_names():
            table = store.get_snapshot_table(name)
            if not getattr(table, "sketch_count", 0):
                continue
            for ssid in available:
                if not table.has_snapshot(ssid):
                    continue
                if not table.sketch_ready(ssid):
                    self._record(
                        "frozen-sketch",
                        f"snapshot table {name!r} ssid {ssid} committed "
                        "but its sketches were never frozen",
                    )
                    continue
                for problem in table.sketch_coherence_errors(ssid):
                    self._record(
                        "sketch-coherence",
                        f"snapshot table {name!r} ssid {ssid}: "
                        f"{problem}",
                    )


class _ServiceRegistry(list):
    """``env.query_services`` replacement wrapping services on append."""

    def __init__(self, runtime: SanitizerRuntime, services) -> None:
        super().__init__(services)
        self._runtime = runtime

    def append(self, service) -> None:
        self._runtime._wrap_service(service)
        super().append(service)


def _content_hash(table, ssid: int) -> str:
    """Order-independent digest of one snapshot version's rows."""
    digest = hashlib.sha256()
    for row in sorted(repr(sorted(row.items()))
                      for row in table.rows_for_snapshot(ssid)):
        digest.update(row.encode("utf-8"))
    return digest.hexdigest()


def install_sanitizers(env: "Environment",
                       config: SanitizerConfig | None = None,
                       from_default: bool = False) -> SanitizerRuntime:
    """Arm ``config``'s sanitizers on ``env``; returns the runtime."""
    if config is None:
        config = SanitizerConfig(enabled=True)
    runtime = SanitizerRuntime(env, config, from_default=from_default)
    return runtime.install()
