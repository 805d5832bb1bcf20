"""The invariant lint rules.

Each rule is a small AST analysis approximating one invariant the
simulation relies on.  They are lexical approximations, not proofs —
each rule's docstring states exactly what it matches and what it
cannot see — but every pattern they flag has either caused a real bug
in this codebase or is one code review is known to miss (unreleased
locks on early returns, unbilled network sends, wall-clock reads that
break bit-determinism, retry paths ignoring attempt tokens).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .lint import FileContext, Violation

#: ``time`` module functions that read the wall clock.
_WALL_CLOCK_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
}
#: ``datetime``/``date`` constructors that read the wall clock.
_DATETIME_FUNCS = {"now", "utcnow", "today"}
#: Module-level ``random.*`` draws (the shared, unseeded global stream).
_RANDOM_MODULE_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
}
#: Other nondeterministic entropy sources.
_ENTROPY_CALLS = {("uuid", "uuid1"), ("uuid", "uuid4"), ("os", "urandom")}


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    """Set display, set comprehension, or a bare ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class DeterminismRule:
    """No wall-clock reads or unseeded randomness in simulation code.

    The discrete-event simulation must be bit-deterministic: same seed,
    same schedule, same results — chaos and pushdown property tests are
    meaningless otherwise.  Flags:

    * ``time.time()`` / ``time.monotonic()`` / ``perf_counter`` and
      friends — virtual time comes from ``Simulator.now``;
    * ``datetime.now()`` / ``utcnow()`` / ``date.today()``;
    * ``random.Random()`` constructed without a seed argument, and
      module-level ``random.<draw>()`` calls that use the process-global
      stream — use the named streams of ``repro.simtime.rng`` or a
      seeded ``random.Random(seed)``;
    * ``uuid.uuid1/uuid4``, ``os.urandom``, and any ``secrets.*`` call;
    * ``dict.popitem()`` — removal order is an implementation detail;
    * iterating a set into ordered output (``for x in {...}``,
      ``list(set(...))``, ``tuple``/``enumerate`` of a set) — wrap the
      set in ``sorted(...)`` instead.

    Cannot see through aliases (``from time import time``) or values
    typed as sets; those few cases are what review is for.
    """

    name = "determinism"

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(context, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.iter
                if _is_set_expr(target):
                    line = getattr(node, "lineno", target.lineno)
                    yield Violation(
                        self.name, context.path, line,
                        "iteration over a set feeds ordered output; "
                        "wrap it in sorted(...)",
                    )

    def _check_call(self, context: FileContext,
                    node: ast.Call) -> Iterator[Violation]:
        dotted = _dotted(node.func) or ""
        parts = tuple(dotted.split("."))
        if len(parts) >= 2:
            # Match on the trailing two segments so both import styles
            # are caught (``datetime.now()`` and ``datetime.datetime
            # .now()``, ``random.random()`` via any alias chain).
            module, func = parts[-2], parts[-1]
            if module == "time" and func in _WALL_CLOCK_FUNCS:
                yield Violation(
                    self.name, context.path, node.lineno,
                    f"wall-clock read time.{func}(); use the simulator's "
                    "virtual time (sim.now) instead",
                )
            if module in ("datetime", "date") and func in _DATETIME_FUNCS:
                yield Violation(
                    self.name, context.path, node.lineno,
                    f"wall-clock read {module}.{func}(); derive "
                    "timestamps from virtual time instead",
                )
            if module == "random" and func in _RANDOM_MODULE_FUNCS:
                yield Violation(
                    self.name, context.path, node.lineno,
                    f"module-level random.{func}() draws from the "
                    "process-global unseeded stream; use a seeded "
                    "random.Random or repro.simtime.rng streams",
                )
            if (module, func) in _ENTROPY_CALLS or module == "secrets":
                yield Violation(
                    self.name, context.path, node.lineno,
                    f"nondeterministic entropy source {dotted}()",
                )
        if dotted == "random.Random" and not node.args and not any(
            keyword.arg in (None, "x") for keyword in node.keywords
        ):
            yield Violation(
                self.name, context.path, node.lineno,
                "random.Random() without a seed is seeded from the wall "
                "clock; pass an explicit seed",
            )
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "popitem":
            yield Violation(
                self.name, context.path, node.lineno,
                "dict.popitem() removes an implementation-defined entry; "
                "pop an explicit key instead",
            )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate", "iter")
            and len(node.args) == 1
            and _is_set_expr(node.args[0])
        ):
            yield Violation(
                self.name, context.path, node.lineno,
                f"{node.func.id}(set(...)) materialises set order into "
                "ordered output; use sorted(...)",
            )


#: Method names that take a key-level lock.
_ACQUIRE_NAMES = {"acquire", "try_acquire", "lock_key"}
#: Method names that give one back.
_RELEASE_NAMES = {"release", "release_all", "unlock_key"}


def _call_attr(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _has_granted_callback(call: ast.Call) -> bool:
    return any(kw.arg == "granted" for kw in call.keywords)


def _finally_releases(handler: list[ast.stmt]) -> bool:
    for stmt in handler:
        for node in ast.walk(stmt):
            if _call_attr(node) in _RELEASE_NAMES:
                return True
    return False


class LockPairingRule:
    """Every lock acquire must be paired with a release on all exits.

    Tracks, lexically and per function, whether a ``.acquire(...)`` /
    ``.lock_key(...)`` call is still unreleased when control reaches a
    ``return``, a ``raise``, or the end of the function.  A ``try``
    whose ``finally`` contains a release protects its whole body.  Two
    idioms are exempt:

    * ``acquire(..., granted=<callback>)`` — the blocking hand-over
      idiom; the callback owns the release (the runtime lock-leak
      sanitizer still checks the end state);
    * ``try_acquire`` used for its boolean result — but a
      ``try_acquire`` whose result is *ignored* is always flagged,
      because a failed acquire silently skipped is how repeatable
      reads lose their protection.

    Purely lexical: a helper that releases on the caller's behalf needs
    an inline ``# lint: allow(lock-pairing)`` with a justification.
    """

    name = "lock-pairing"

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(context, node)

    def _check_function(self, context: FileContext,
                        func: ast.FunctionDef) -> Iterator[Violation]:
        violations: list[Violation] = []
        held_lines: list[int] = []
        self._walk(context, func.body, held_lines, False, violations)
        for line in held_lines:
            violations.append(Violation(
                self.name, context.path, line,
                f"lock acquired in {func.name}() is not released on "
                "every path through the function",
            ))
        yield from violations

    def _walk(self, context: FileContext, stmts: list[ast.stmt],
              held_lines: list[int], protected: bool,
              violations: list[Violation]) -> None:
        """Track unreleased acquires through one statement sequence.

        ``held_lines`` carries the lines of acquires not yet released;
        mutated in place so state flows across nested blocks.
        """
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested defs run later; analysed separately
            if isinstance(stmt, ast.Try):
                body_protected = protected or _finally_releases(
                    stmt.finalbody
                )
                self._walk(context, stmt.body, held_lines,
                           body_protected, violations)
                for handler in stmt.handlers:
                    self._walk(context, handler.body, held_lines,
                               body_protected, violations)
                self._walk(context, stmt.orelse, held_lines,
                           body_protected, violations)
                self._walk(context, stmt.finalbody, held_lines,
                           protected, violations)
                continue
            if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
                branches = [stmt.body]
                if getattr(stmt, "orelse", None):
                    branches.append(stmt.orelse)
                for branch in branches:
                    self._walk(context, branch, held_lines, protected,
                               violations)
                continue
            self._scan_statement(context, stmt, held_lines, protected,
                                 violations)

    def _scan_statement(self, context: FileContext, stmt: ast.stmt,
                        held_lines: list[int], protected: bool,
                        violations: list[Violation]) -> None:
        if isinstance(stmt, (ast.Return, ast.Raise)) and held_lines \
                and not protected:
            kind = "return" if isinstance(stmt, ast.Return) else "raise"
            violations.append(Violation(
                self.name, context.path, stmt.lineno,
                f"{kind} while a lock acquired on line "
                f"{held_lines[0]} is still held",
            ))
            held_lines.clear()  # one report per unbalanced acquire path
            return
        for node in ast.walk(stmt):
            attr = _call_attr(node)
            if attr == "try_acquire":
                if isinstance(stmt, ast.Expr) and stmt.value is node:
                    violations.append(Violation(
                        self.name, context.path, node.lineno,
                        "try_acquire result ignored: a failed acquire "
                        "must not be silently dropped",
                    ))
            elif attr in _ACQUIRE_NAMES:
                if not _has_granted_callback(node):
                    held_lines.append(node.lineno)
            elif attr in _RELEASE_NAMES:
                held_lines.clear()


class BillingRule:
    """Every network shipment must reach the cost model.

    Every ``<...>.network.send(...)`` (or ``network.send(...)``)
    call-site must pass an ``nbytes=`` keyword — an unbilled send makes
    shipped bytes invisible to both the bandwidth model and the
    pushdown ablation measurements.
    """

    name = "billing"

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                yield from self._check_send(context, node)

    def _check_send(self, context: FileContext,
                    node: ast.Call) -> Iterator[Violation]:
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr != "send":
            return
        receiver = _dotted(node.func.value) or ""
        if "network" not in receiver.split("."):
            return
        if not any(kw.arg == "nbytes" for kw in node.keywords):
            yield Violation(
                self.name, context.path, node.lineno,
                "network send without nbytes=: every shipment must be "
                "billed to the cost model",
            )


def _subscript_indices(node: ast.expr) -> set[str]:
    """String constants indexing any Subscript in ``node``'s chain."""
    indices: set[str] = set()
    while isinstance(node, ast.Subscript):
        if isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            indices.add(node.slice.value)
        node = node.value
    return indices


class AttemptTokenRule:
    """Retry paths that collect partials must check the attempt token.

    After a node failure the query service bumps a per-table attempt
    counter; any callback that then merges scan results, bumps scanned
    counters, or ships payloads for a *previous* attempt would
    double-count rows across the retry (the chaos property tests exist
    to catch exactly that).  This rule flags any function that writes
    partial-collection state —

    * assignment into ``state["rows"][...]``,
    * ``state["scanned"] += ...``,
    * ``counters["query_rows_shipped"]`` /
      ``counters["query_bytes_shipped"]`` / ``entries_billed``
      increments —

    without either comparing against ``state["attempt"]`` (or a name
    ``attempt``) or receiving the token as an ``attempt`` parameter to
    forward to a guarded callee.
    """

    name = "attempt-token"

    _COUNTER_KEYS = {"scanned", "query_rows_shipped",
                     "query_bytes_shipped"}

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(context, node)

    def _own_statements(self, func: ast.FunctionDef) -> Iterator[ast.AST]:
        """Walk ``func``'s body excluding nested function bodies."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_function(self, context: FileContext,
                        func: ast.FunctionDef) -> Iterator[Violation]:
        collect_lines: list[int] = []
        checks_token = False
        args = func.args
        params = {a.arg for a in args.args + args.posonlyargs
                  + args.kwonlyargs}
        if "attempt" in params:
            checks_token = True
        for node in self._own_statements(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if "rows" in _subscript_indices(target):
                        collect_lines.append(node.lineno)
                    elif isinstance(node, ast.AugAssign) and (
                        _subscript_indices(target) & self._COUNTER_KEYS
                        or (isinstance(target, ast.Attribute)
                            and target.attr == "entries_billed")
                    ):
                        collect_lines.append(node.lineno)
            if isinstance(node, ast.Compare):
                names = {n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name)}
                indices: set[str] = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Subscript):
                        indices |= _subscript_indices(sub)
                if "attempt" in names or "attempt" in indices:
                    checks_token = True
        if collect_lines and not checks_token:
            for line in sorted(set(collect_lines)):
                yield Violation(
                    self.name, context.path, line,
                    f"{func.name}() collects partial results without "
                    "checking the per-table attempt token; a retry can "
                    "double-count this write",
                )


#: Interpreter entry points that re-walk the expression AST per call.
_INTERPRETED_EVAL_FUNCS = {"eval_predicate", "eval_expr"}


class CompiledScanRule:
    """Scan-path chunk loops must use compiled predicates, not the
    per-row AST interpreter.

    The vectorized scan path compiles each fragment's pushed WHERE
    conjuncts once (``repro.sql.compiled``) and evaluates whole batches
    through the closures.  Calling ``eval_predicate`` / ``eval_expr``
    inside a loop on the scan path re-walks the expression tree for
    every row, silently reverting the optimisation this rule guards.
    Flags any call to those entry points lexically inside a ``for`` /
    ``while`` loop or a comprehension, in scan-path files — anything
    under ``repro/query/`` or ``repro/sql/``, plus files named
    ``scanpath_*.py``.

    The interpreted ablation baseline is deliberate; its call sites
    carry an inline ``# lint: allow(compiled-scan)``.  Central (non
    scan-path) execution in ``repro/continuous/`` or the merge layer is
    out of scope: per-row evaluation is its normal operating mode.
    """

    name = "compiled-scan"

    _LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp,
                   ast.SetComp, ast.GeneratorExp, ast.DictComp)

    def _in_scope(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        if "repro/query/" in posix or "repro/sql/" in posix:
            return True
        basename = posix.rsplit("/", 1)[-1]
        return basename.startswith("scanpath_")

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not self._in_scope(context.path):
            return
        seen: set[int] = set()
        for node in ast.walk(context.tree):
            if not isinstance(node, self._LOOP_NODES):
                continue
            for sub in ast.walk(node):
                if id(sub) in seen:
                    continue  # nested loops walk shared subtrees
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name in _INTERPRETED_EVAL_FUNCS:
                    seen.add(id(sub))
                    yield Violation(
                        self.name, context.path, sub.lineno,
                        f"per-row {name}() inside a scan-path loop "
                        "re-walks the expression AST for every row; "
                        "compile the fragment once "
                        "(repro.sql.compiled) and evaluate batches",
                    )


class LockOrderRule:
    """No cycles in the whole-program acquired-while-holding graph.

    Built on the interprocedural passes (:mod:`.callgraph`,
    :mod:`.lockgraph`): every acquisition of a lock class ``B`` while a
    class ``A`` is lexically held — in the same function or any number
    of resolved calls deeper — adds an edge ``A -> B``.  A cycle means
    two executions can each hold one lock of the cycle and wait
    (FIFO-queued, forever) for the next: the classic deadlock shape
    that no single-file rule can see.  Each cycle is reported once,
    with the full witness path rendered file:line by file:line.

    Lock classes are table names (string constants, or the first
    element of ``(table, key)`` tuples); variable keys are classed by
    their source text.  A cycle between locks that are provably never
    held by concurrent actors can be suppressed at its witness site
    with ``# lint: allow(lock-order)`` plus a justification.
    """

    name = "lock-order"
    program = True

    def check_program(self, model) -> Iterator[Violation]:
        from .lockgraph import (
            build_lock_order_edges,
            find_cycles,
            render_chain,
        )

        edges = build_lock_order_edges(model)
        for cycle in find_cycles(edges):
            closed = cycle + [cycle[0]]
            witnesses = []
            for src, dst in zip(closed, closed[1:]):
                chain = edges.get((src, dst))
                if chain is not None:
                    witnesses.append(render_chain(chain))
            first_edge = edges.get((closed[0], closed[1]))
            if first_edge is None:
                continue
            path, line, _text = first_edge[0]
            rendered = " -> ".join(f"'{label}'" for label in closed)
            yield Violation(
                self.name, path, line,
                f"lock-order cycle {rendered} is a potential deadlock; "
                "witness: " + " ; ".join(witnesses),
            )


class BlockingUnderLockRule:
    """No blocking operation while a lock summary says a lock is held.

    The Jet cooperative-worker rule: a store-server worker that blocks
    while holding a key lock parks every FIFO waiter behind it for an
    unbounded number of virtual milliseconds.  Flags — in the same
    function or through any chain of resolved calls — store-server job
    submission (``.submit``), network ``send``/``recv``, channel
    ``wait``/``wait_for``, simtime ``sleep``, and ``while True`` loops
    containing IO, whenever the lexical lock summary says a lock is
    held at that point.  ``sim.schedule`` is asynchronous and exempt.
    """

    name = "blocking-under-lock"
    program = True

    def check_program(self, model) -> Iterator[Violation]:
        from .lockgraph import render_chain, transitive_blocking

        memo: dict = {}
        for qualname in sorted(model.functions):
            fn = model.functions[qualname]
            for kind, line, held in fn["blocking"]:
                if not held:
                    continue
                label, held_line = held[0]
                yield Violation(
                    self.name, fn["path"], line,
                    f"{kind} while lock '{label}' (acquired line "
                    f"{held_line}) is held; cooperative workers must "
                    "not block under a lock",
                )
            for callee, line, held in fn["calls"]:
                if not held:
                    continue
                reached = transitive_blocking(model, callee, memo)
                label, held_line = held[0]
                for kind, chain in sorted(reached.items()):
                    yield Violation(
                        self.name, fn["path"], line,
                        f"call reaches {kind} while lock '{label}' "
                        f"(acquired line {held_line}) is held: "
                        + render_chain(chain),
                    )


class SharedStateAuditRule:
    """Module-level mutables reachable from both the query path and
    the continuous/chaos paths must be guarded or annotated.

    A module-level accumulator (``{}``, ``[]``, ``set()``,
    ``defaultdict(...)``, any ``*Cache``/``*LRU``/``*Registry``
    constructor) in a module imported — transitively — by both a
    query/SQL module and a continuous/chaos module is state shared
    across services with no lock the analyzer knows about.  Populated
    literal lookup tables are read-only by convention and not flagged.
    Deliberate shared caches are annotated at the definition site with
    ``# lint: allow(shared-state)`` (or ``allow(shared-state-audit)``)
    plus a one-line justification.
    """

    name = "shared-state-audit"
    program = True
    #: The ISSUE-era annotation spelling is honoured alongside the
    #: rule name itself.
    allow_aliases = ("shared-state",)

    _QUERY_SEGMENTS = ("query", "sql")
    _BACKGROUND_SEGMENTS = ("continuous", "chaos")

    def _side_roots(self, model, fragments) -> list[str]:
        return [
            name for name in sorted(model.modules)
            if any(fragment in segment
                   for segment in name.split(".")
                   for fragment in fragments)
        ]

    def check_program(self, model) -> Iterator[Violation]:
        from .lockgraph import import_chain, reachable_modules

        query_roots = self._side_roots(model, self._QUERY_SEGMENTS)
        background_roots = self._side_roots(
            model, self._BACKGROUND_SEGMENTS
        )
        if not query_roots or not background_roots:
            return
        query_reached, query_parent = reachable_modules(
            model, query_roots
        )
        background_reached, background_parent = reachable_modules(
            model, background_roots
        )
        for name in sorted(query_reached & background_reached):
            info = model.modules[name]
            if not info["mutable_globals"]:
                continue
            via_query = " -> ".join(import_chain(query_parent, name))
            via_background = " -> ".join(
                import_chain(background_parent, name)
            )
            for global_name, line, description in \
                    info["mutable_globals"]:
                yield Violation(
                    self.name, info["path"], line,
                    f"module-level mutable {global_name} = "
                    f"{description} is reachable from the query path "
                    f"({via_query}) and the continuous/chaos path "
                    f"({via_background}); guard it with a known lock "
                    "or annotate # lint: allow(shared-state)",
                )


ALL_RULES = (
    DeterminismRule(),
    LockPairingRule(),
    BillingRule(),
    AttemptTokenRule(),
    CompiledScanRule(),
    LockOrderRule(),
    BlockingUnderLockRule(),
    SharedStateAuditRule(),
)


def rule_names() -> list[str]:
    return [rule.name for rule in ALL_RULES]


def rules_by_name(names: list[str] | None):
    """The selected rules; unknown names raise ``ValueError``."""
    if not names:
        return ALL_RULES
    by_name = {rule.name: rule for rule in ALL_RULES}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise ValueError(
            f"unknown rule(s) {missing}; known: {sorted(by_name)}"
        )
    return tuple(by_name[name] for name in names)
