"""``lock-discipline``: the serving core's lock order, machine-checked.

The concurrent serving core is deadlock-free by a *declared* total order
over its lock classes (see ``docs/INVARIANTS.md``): every thread must
acquire locks in non-decreasing rank.  This checker rebuilds that
argument from the AST — per-function lock-acquisition events, a
closed-world call graph over the serving/consumer modules, and a
fixpoint of which lock classes each function may transitively acquire —
then flags:

* ``lock-order``   — a lock acquired (directly or via a resolved call)
  while a higher-ranked lock is held;
* ``lock-cycle``   — a cycle in the aggregated lock-class graph
  (subsumed by ``lock-order`` under a total order, reported separately
  because the cycle is the actual deadlock witness);
* ``read-upgrade`` — ``rwlock.write`` acquired while ``rwlock.read`` is
  held (:class:`~repro.serving.rwlock.ReadWriteLock` upgrades deadlock
  by design and raise at runtime; this catches them before that);
* ``self-deadlock`` — a non-reentrant lock class acquired while already
  held;
* ``mutation-under-gate`` — a corpus mutation (``add``/``remove``/
  ``touch``) issued while holding any consumer-side lock;
* ``notify-under-lock`` — notification delivery (listener/hook
  invocation, outbox flush) while holding the corpus mutation lock or
  the bus intake lock — the exact PR 5 deadlock class.

Known model limits (false negatives, never false positives):

* Lock classes conflate instances — the scheduler's composite locks walk
  *different* consumers' gates in sorted-name order, which a class-level
  rank model cannot distinguish; their protocol is covered by the
  runtime validator instead.
* Property accesses that acquire locks (e.g. ``BusSubscription.dirty``)
  are invisible to call resolution.
* Calls that resolve to nothing (external receivers) propagate nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.astutil import ParsedModule, dotted_name, iter_functions, parse_module
from repro.analysis.findings import Finding

__all__ = ["CHECKER", "LOCK_RANKS", "LOCK_FILES", "check"]

CHECKER = "lock-discipline"

#: The declared total order: acquire in non-decreasing rank only.
LOCK_RANKS: dict[str, int] = {
    "checkpoint.gate": 1,   # the checkpoint consumer queue's refresh gate
    "checkpoint.drain": 2,  # its drain mutex
    "store.lock": 3,        # CorpusStore._lock
    "journal.append": 4,    # DurableJournalSubscriber._lock (paused() window)
    "scheduler.intake": 5,  # EagerRefreshScheduler._intake
    "shard.io": 6,          # ShardCoordinator._io (lifecycle + mutation drain)
    "shard.conn": 7,        # _Shard.lock (one wire round-trip per hold)
    "consumer.gate": 10,    # ConsumerQueue.refresh_gate / consumer refresh_mutex
    "consumer.drain": 20,   # ConsumerQueue._drain_mutex
    "rwlock.write": 30,     # ReadWriteLock write side
    "rwlock.read": 31,      # ReadWriteLock read side (no read->write upgrade)
    "corpus.mutation": 40,  # SourceCorpus._mutation_lock
    "bus.intake": 50,       # InvalidationBus._intake
    "rwlock.internal": 60,  # ReadWriteLock._condition (leaf; never nested)
}

#: ``threading.Lock`` classes — re-acquisition on the same thread deadlocks.
NON_REENTRANT = frozenset({"bus.intake"})

#: Holding any of these means "a consumer refresh/read is in flight".
CONSUMER_LOCKS = frozenset(
    {
        "checkpoint.gate",
        "checkpoint.drain",
        "consumer.gate",
        "consumer.drain",
        "rwlock.read",
        "rwlock.write",
    }
)

#: The concurrent serving core — the modules the call graph closes over.
LOCK_FILES: tuple[str, ...] = (
    "src/repro/serving/rwlock.py",
    "src/repro/serving/queues.py",
    "src/repro/serving/scheduler.py",
    "src/repro/sources/diffing.py",
    "src/repro/sources/corpus.py",
    "src/repro/search/engine.py",
    "src/repro/core/source_quality.py",
    "src/repro/core/contributor_quality.py",
    "src/repro/persistence/store.py",
    "src/repro/sharding/coordinator.py",
)

#: Context-manager methods that alias a lock class.
_CM_ALIASES = {"_mutating": "corpus.mutation", "paused": "journal.append"}

#: ``.read_lock()``-style calls that *are* acquisitions.
_CALL_LOCKS = {
    "read_lock": "rwlock.read",
    "acquire_read": "rwlock.read",
    "write_lock": "rwlock.write",
    "acquire_write": "rwlock.write",
}
_CALL_RELEASES = {
    "release_read": "rwlock.read",
    "release_write": "rwlock.write",
}

#: Receiver-name hints (matched on the final dotted segment, first hit
#: wins) — the closed world's answer to "what class is ``queue``?".
_RECEIVER_HINTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("subscription", ("BusSubscription",)),
    ("subscriber", ("DurableJournalSubscriber",)),
    ("marker", ("BusSubscription",)),
    ("queue", ("ConsumerQueue",)),
    ("previous", ("ConsumerQueue",)),
    ("corpus", ("SourceCorpus",)),
    ("bus", ("InvalidationBus",)),
    ("rwlock", ("ReadWriteLock",)),
    ("engine", ("SearchEngine",)),
    ("scheduler", ("EagerRefreshScheduler",)),
    ("store", ("CorpusStore",)),
    ("model", ("SourceQualityModel", "ContributorQualityModel")),
)

#: Methods whose return type we know, for chained receivers like
#: ``corpus.invalidation_bus().subscribe(...)``.
_RETURN_TYPES = {"invalidation_bus": "InvalidationBus", "queue": "ConsumerQueue"}

#: ``ConsumerQueue`` is analysed once per refresh target: the checkpoint
#: store's queue sits *below* the consumer locks in the order (its
#: refresh drives other consumers' gates through the journal pause), so
#: its gate/drain are distinct lock classes.
_QUEUE_SPECS: dict[str, dict[str, object]] = {
    "consumer": {
        "gate": "consumer.gate",
        "drain": "consumer.drain",
        "_refresh": (
            "SearchEngine.refresh",
            "SourceQualityModel.assessment_context",
            "ContributorQualityModel.refresh",
        ),
    },
    "checkpoint": {
        "gate": "checkpoint.gate",
        "drain": "checkpoint.drain",
        "_refresh": ("CorpusStore.checkpoint_if_due",),
    },
}

_CORPUS_MUTATORS = frozenset({"add", "remove", "touch"})

#: Name-call patterns that *are* notification delivery.
_NOTIFY_NAME_PARTS = ("listener", "callback", "hook")
_NOTIFY_ATTRS = frozenset({"_flush_outbox"})


@dataclass
class _Ctx:
    """Where a function body lives: module, class, queue specialisation."""

    module: ParsedModule
    cls: Optional[str]
    spec: Optional[str] = None

    def key(self, name: str) -> str:
        if self.cls is None:
            return f"{Path(self.module.relative).stem}::{name}"
        if self.spec is not None:
            return f"{self.cls}#{self.spec}.{name}"
        return f"{self.cls}.{name}"


@dataclass
class _Event:
    """One acquisition / call / mutation / delivery with the held set."""

    kind: str  # "acquire" | "call" | "mutate" | "notify"
    line: int
    held: frozenset[str]
    lock: Optional[str] = None
    callees: tuple[str, ...] = ()
    detail: str = ""


@dataclass
class _FunctionInfo:
    key: str
    ctx: _Ctx
    events: list[_Event] = field(default_factory=list)
    direct_acquires: set[str] = field(default_factory=set)
    callees: set[str] = field(default_factory=set)
    delivers: bool = False
    mutates: bool = False


class _World:
    """Every analysed function plus the class table, for call resolution."""

    def __init__(self) -> None:
        self.functions: dict[str, _FunctionInfo] = {}
        self.classes: set[str] = set()
        #: class name -> method name -> list of function keys (specs fan out)
        self.methods: dict[str, dict[str, list[str]]] = {}

    def register(self, info: _FunctionInfo, method: str) -> None:
        self.functions[info.key] = info
        if info.ctx.cls is not None:
            self.methods.setdefault(info.ctx.cls, {}).setdefault(method, []).append(
                info.key
            )

    def resolve_method(self, cls: str, method: str) -> tuple[str, ...]:
        return tuple(self.methods.get(cls, {}).get(method, ()))


def _final_segment(name: str) -> str:
    return name.split(".")[-1].lower()


def _receiver_classes(receiver: ast.expr, ctx: _Ctx, world: _World) -> tuple[str, ...]:
    """The possible classes of a method call's receiver (may be empty)."""
    if isinstance(receiver, ast.Call):
        returned = _RETURN_TYPES.get(dotted_name(receiver.func).split(".")[-1])
        return (returned,) if returned in world.classes else ()
    name = dotted_name(receiver)
    if name == "self" and ctx.cls is not None:
        return (ctx.cls,)
    segment = _final_segment(name)
    for hint, classes in _RECEIVER_HINTS:
        if hint in segment:
            return tuple(cls for cls in classes if cls in world.classes)
    return ()


def _attr_lock(attr: str, receiver_name: str, ctx: _Ctx) -> Optional[str]:
    """Lock class of an attribute like ``self._mutation_lock`` (or None)."""
    if attr == "_mutation_lock":
        return "corpus.mutation"
    if attr == "_intake":
        if "bus" in _final_segment(receiver_name):
            return "bus.intake"
        if ctx.cls in ("InvalidationBus", "BusSubscription"):
            return "bus.intake"
        if ctx.cls == "EagerRefreshScheduler":
            return "scheduler.intake"
        return None
    if attr in ("refresh_gate", "refresh_mutex", "_refresh_mutex"):
        spec = _QUEUE_SPECS.get(ctx.spec or "consumer", _QUEUE_SPECS["consumer"])
        return str(spec["gate"])
    if attr == "_drain_mutex":
        spec = _QUEUE_SPECS.get(ctx.spec or "consumer", _QUEUE_SPECS["consumer"])
        return str(spec["drain"])
    if attr == "_condition" and ctx.cls == "ReadWriteLock":
        return "rwlock.internal"
    if attr == "_io" and ctx.cls == "ShardCoordinator":
        return "shard.io"
    if attr == "lock" and "shard" in _final_segment(receiver_name):
        return "shard.conn"
    if attr == "_lock":
        if ctx.cls == "DurableJournalSubscriber" or "subscriber" in _final_segment(
            receiver_name
        ):
            return "journal.append"
        if ctx.cls == "CorpusStore" or "store" in _final_segment(receiver_name):
            return "store.lock"
    return None


#: Runtime-validator wrappers (``with ordered(lock, "class"): ...``);
#: classified by unwrapping their first argument, so instrumenting a
#: with-block never blinds the static checker to the lock it holds.
_ORDERED_WRAPPERS = {"ordered", "_journal_append_lock"}


def _classify_lock_expr(node: ast.expr, ctx: _Ctx) -> Optional[str]:
    """Lock class of a with-item / acquire-receiver expression."""
    if isinstance(node, ast.Attribute):
        return _attr_lock(node.attr, dotted_name(node.value), ctx)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        name = node.func.attr
        if name in _CALL_LOCKS:
            return _CALL_LOCKS[name]
        if name in _CM_ALIASES:
            return _CM_ALIASES[name]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ORDERED_WRAPPERS
        and node.args
    ):
        return _classify_lock_expr(node.args[0], ctx)
    return None


class _FunctionVisitor:
    """Sequential walk of one function body, tracking the held-lock set."""

    def __init__(self, info: _FunctionInfo, world: _World) -> None:
        self.info = info
        self.world = world
        self.held: set[str] = set()

    # -- statement dispatch ----------------------------------------------------------

    def visit_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.If):
            self.scan_expr(stmt.test)
            self._visit_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                self.scan_expr(stmt.test)
            else:
                self.scan_expr(stmt.iter)
            # Two passes: an acquisition in iteration N is held in N+1
            # (the composite-lock pattern); events dedupe via held sets.
            self.visit_block(stmt.body)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.visit_block(stmt.body)
            for handler in stmt.handlers:
                self.visit_block(handler.body)
            self.visit_block(stmt.orelse)
            self.visit_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs run later, not here
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.scan_expr(child)

    def _visit_branches(self, blocks: Sequence[Sequence[ast.stmt]]) -> None:
        """Path-insensitive merge: held-after = union of branch outcomes."""
        before = set(self.held)
        merged: set[str] = set()
        for block in blocks:
            self.held = set(before)
            self.visit_block(block)
            merged |= self.held
        self.held = merged

    def _visit_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in stmt.items:
            lock = _classify_lock_expr(item.context_expr, self.info.ctx)
            if lock is not None:
                self._acquire(lock, item.context_expr.lineno)
                if lock not in self.held:
                    self.held.add(lock)
                    acquired.append(lock)
            else:
                self.scan_expr(item.context_expr)
        self.visit_block(stmt.body)
        for lock in acquired:
            self.held.discard(lock)

    # -- expression scan (evaluation order, skipping lambdas) ------------------------

    def scan_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Lambda):
            return  # runs later, under whatever locks the *caller* holds
        if isinstance(node, ast.Call):
            # Receiver/arguments evaluate before the call fires.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.scan_expr(child)
            self._visit_call(node)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.scan_expr(child)

    # -- call handling ---------------------------------------------------------------

    def _visit_call(self, call: ast.Call) -> None:
        ctx = self.info.ctx
        func = call.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            receiver = func.value
            receiver_name = dotted_name(receiver)
            # 1. Lock operations.  ``read_lock()``/``write_lock()`` are
            # factories whose holding the enclosing ``with`` models;
            # ``acquire_read``/``acquire_write`` hold from here on.
            if name in _CALL_LOCKS:
                lock = _CALL_LOCKS[name]
                self._acquire(lock, call.lineno)
                if name.startswith("acquire_") and lock not in self.held:
                    self.held.add(lock)
                return
            if name in _CALL_RELEASES:
                self.held.discard(_CALL_RELEASES[name])
                return
            if name in _CM_ALIASES:
                self._acquire(_CM_ALIASES[name], call.lineno)
                return
            if name == "acquire":
                lock = _classify_lock_expr(receiver, ctx)
                if lock is not None:
                    self._acquire(lock, call.lineno)
                    if lock not in self.held:
                        self.held.add(lock)
                return
            if name == "release":
                lock = _classify_lock_expr(receiver, ctx)
                if lock is not None:
                    self.held.discard(lock)
                return
            # 2. Notification delivery / corpus mutation.
            if name in _NOTIFY_ATTRS:
                self.info.events.append(
                    _Event("notify", call.lineno, frozenset(self.held), detail=name)
                )
                self.info.delivers = True
            if name in _CORPUS_MUTATORS and (
                "corpus" in _final_segment(receiver_name)
                or (receiver_name == "self" and ctx.cls == "SourceCorpus")
            ):
                self.info.events.append(
                    _Event("mutate", call.lineno, frozenset(self.held), detail=name)
                )
            # 3. Closed-world resolution.
            callees = self._resolve_attr_call(name, receiver)
            if callees:
                self.info.callees.update(callees)
                self.info.events.append(
                    _Event(
                        "call",
                        call.lineno,
                        frozenset(self.held),
                        callees=callees,
                        detail=f"{receiver_name}.{name}()",
                    )
                )
        elif isinstance(func, ast.Name):
            lowered = func.id.lower()
            if lowered == "on_event" or any(p in lowered for p in _NOTIFY_NAME_PARTS):
                self.info.events.append(
                    _Event("notify", call.lineno, frozenset(self.held), detail=func.id)
                )
                self.info.delivers = True
                return
            if func.id in self.world.classes:
                callees: tuple[str, ...] = ()
                for key in self.world.resolve_method(func.id, "__init__"):
                    callees += (key,)
                if callees:
                    self.info.callees.update(callees)
                    self.info.events.append(
                        _Event(
                            "call",
                            call.lineno,
                            frozenset(self.held),
                            callees=callees,
                            detail=f"{func.id}()",
                        )
                    )

    def _resolve_attr_call(self, name: str, receiver: ast.expr) -> tuple[str, ...]:
        ctx = self.info.ctx
        if dotted_name(receiver) == "self":
            if ctx.cls == "ConsumerQueue" and name == "_refresh":
                spec = _QUEUE_SPECS[ctx.spec or "consumer"]
                return tuple(
                    key for key in spec["_refresh"] if key in self.world.functions  # type: ignore[union-attr]
                )
            if ctx.cls is not None:
                return tuple(
                    key
                    for key in self.world.resolve_method(ctx.cls, name)
                    if _spec_of(key) in (None, ctx.spec)
                )
            return ()
        resolved: tuple[str, ...] = ()
        for cls in _receiver_classes(receiver, ctx, self.world):
            resolved += self.world.resolve_method(cls, name)
        return resolved

    # -- acquisition bookkeeping ------------------------------------------------------

    def _acquire(self, lock: str, line: int) -> None:
        """Record an acquisition event against the current held set."""
        self.info.events.append(
            _Event("acquire", line, frozenset(self.held), lock=lock)
        )
        self.info.direct_acquires.add(lock)


def _spec_of(key: str) -> Optional[str]:
    if "#" in key:
        return key.split("#", 1)[1].split(".", 1)[0]
    return None


# -- world construction ---------------------------------------------------------------


def _build_world(modules: Sequence[ParsedModule]) -> _World:
    world = _World()
    for module in modules:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                world.classes.add(node.name)
    for module in modules:
        for cls, func in iter_functions(module.tree):
            specs: tuple[Optional[str], ...] = (None,)
            if cls == "ConsumerQueue":
                specs = tuple(_QUEUE_SPECS)
            for spec in specs:
                ctx = _Ctx(module=module, cls=cls, spec=spec)
                info = _FunctionInfo(key=ctx.key(func.name), ctx=ctx)
                world.register(info, func.name)
    # Visit bodies only after every function is registered, so calls
    # resolve forward references.
    for module in modules:
        for cls, func in iter_functions(module.tree):
            specs = (None,) if cls != "ConsumerQueue" else tuple(_QUEUE_SPECS)
            for spec in specs:
                ctx = _Ctx(module=module, cls=cls, spec=spec)
                info = world.functions[ctx.key(func.name)]
                _FunctionVisitor(info, world).visit_block(func.body)
    return world


def _fixpoint(world: _World) -> tuple[dict[str, set[str]], dict[str, bool]]:
    """Transitive may-acquire sets and may-deliver flags."""
    may_acquire = {key: set(info.direct_acquires) for key, info in world.functions.items()}
    delivers = {key: info.delivers for key, info in world.functions.items()}
    changed = True
    while changed:
        changed = False
        for key, info in world.functions.items():
            for callee in info.callees:
                target = world.functions.get(callee)
                if target is None:
                    continue
                if not may_acquire[key].issuperset(may_acquire[callee]):
                    may_acquire[key] |= may_acquire[callee]
                    changed = True
                if delivers[callee] and not delivers[key]:
                    delivers[key] = True
                    changed = True
    return may_acquire, delivers


# -- rule evaluation ------------------------------------------------------------------


def _check_edge(
    held: str,
    acquired: str,
    info: _FunctionInfo,
    line: int,
    via: str,
    findings: list[Finding],
    reported: set[tuple[str, str, str]],
) -> None:
    if LOCK_RANKS.get(acquired, 0) >= LOCK_RANKS.get(held, 0):
        return
    if (info.key, held, acquired) in reported:
        return
    reported.add((info.key, held, acquired))
    suffix = f" via {via}" if via else ""
    if held == "rwlock.read" and acquired == "rwlock.write":
        findings.append(
            Finding(
                CHECKER,
                "read-upgrade",
                info.ctx.module.relative,
                line,
                "rwlock.write acquired while rwlock.read is held"
                f"{suffix} — ReadWriteLock upgrades deadlock by design; "
                "release the read side first",
                symbol=info.key,
            )
        )
        return
    findings.append(
        Finding(
            CHECKER,
            "lock-order",
            info.ctx.module.relative,
            line,
            f"{acquired} (rank {LOCK_RANKS.get(acquired)}) acquired while "
            f"holding {held} (rank {LOCK_RANKS.get(held)}){suffix} — the "
            "declared order requires non-decreasing ranks",
            symbol=info.key,
        )
    )


def _evaluate(world: _World) -> list[Finding]:
    may_acquire, delivers = _fixpoint(world)
    findings: list[Finding] = []
    reported: set[tuple[str, str, str]] = set()
    #: lock-class graph edge -> first (function, line) witnessing it
    edges: dict[tuple[str, str], tuple[_FunctionInfo, int]] = {}

    for info in world.functions.values():
        for event in info.events:
            if event.kind == "acquire":
                lock = event.lock or ""
                if lock in event.held:
                    if lock in NON_REENTRANT:
                        findings.append(
                            Finding(
                                CHECKER,
                                "self-deadlock",
                                info.ctx.module.relative,
                                event.line,
                                f"{lock} is not reentrant and is already held "
                                "on this thread",
                                symbol=info.key,
                            )
                        )
                    continue
                for held in event.held:
                    edges.setdefault((held, lock), (info, event.line))
                    _check_edge(held, lock, info, event.line, "", findings, reported)
            elif event.kind == "call" and event.held:
                targets: set[str] = set()
                for callee in event.callees:
                    targets |= may_acquire.get(callee, set())
                for lock in sorted(targets - event.held):
                    for held in event.held:
                        edges.setdefault((held, lock), (info, event.line))
                        _check_edge(
                            held, lock, info, event.line, event.detail, findings, reported
                        )
                if any(delivers.get(callee) for callee in event.callees):
                    blocked = event.held & {"corpus.mutation", "bus.intake"}
                    if blocked:
                        findings.append(
                            Finding(
                                CHECKER,
                                "notify-under-lock",
                                info.ctx.module.relative,
                                event.line,
                                "notification delivery via "
                                f"{event.detail} while holding "
                                f"{', '.join(sorted(blocked))} — deliver after "
                                "release (the PR 5 deadlock class)",
                                symbol=info.key,
                            )
                        )
            elif event.kind == "notify":
                blocked = event.held & {"corpus.mutation", "bus.intake"}
                if blocked:
                    findings.append(
                        Finding(
                            CHECKER,
                            "notify-under-lock",
                            info.ctx.module.relative,
                            event.line,
                            f"notification delivery ({event.detail}) while "
                            f"holding {', '.join(sorted(blocked))} — deliver "
                            "after release (the PR 5 deadlock class)",
                            symbol=info.key,
                        )
                    )
            elif event.kind == "mutate":
                blocked = event.held & CONSUMER_LOCKS
                if blocked:
                    findings.append(
                        Finding(
                            CHECKER,
                            "mutation-under-gate",
                            info.ctx.module.relative,
                            event.line,
                            f"corpus mutation .{event.detail}() while holding "
                            f"{', '.join(sorted(blocked))} — mutating under a "
                            "consumer lock inverts the gate→mutation order",
                            symbol=info.key,
                        )
                    )

    findings.extend(_cycles(edges))
    return findings


def _cycles(
    edges: dict[tuple[str, str], tuple[_FunctionInfo, int]]
) -> list[Finding]:
    """Report each lock-class cycle once, anchored at a witnessing edge."""
    graph: dict[str, set[str]] = {}
    for held, acquired in edges:
        graph.setdefault(held, set()).add(acquired)
        graph.setdefault(acquired, set())
    index = 0
    stack: list[str] = []
    on_stack: set[str] = set()
    indices: dict[str, int] = {}
    low: dict[str, int] = {}
    components: list[list[str]] = []

    def strongconnect(node: str) -> None:
        nonlocal index
        indices[node] = low[node] = index
        index += 1
        stack.append(node)
        on_stack.add(node)
        for succ in graph[node]:
            if succ not in indices:
                strongconnect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], indices[succ])
        if low[node] == indices[node]:
            component: list[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                components.append(component)

    for node in sorted(graph):
        if node not in indices:
            strongconnect(node)

    findings: list[Finding] = []
    for component in components:
        member_set = set(component)
        witness = min(
            (
                (info, line, f"{held}->{acquired}")
                for (held, acquired), (info, line) in edges.items()
                if held in member_set and acquired in member_set
            ),
            key=lambda item: (item[0].ctx.module.relative, item[1]),
        )
        info, line, edge = witness
        findings.append(
            Finding(
                CHECKER,
                "lock-cycle",
                info.ctx.module.relative,
                line,
                "lock-class cycle "
                + " -> ".join(sorted(member_set))
                + f" (witnessed by edge {edge}) — a deadlock is schedulable",
                symbol=info.key,
            )
        )
    return findings


# -- entry point ----------------------------------------------------------------------


def check(root: Path, files: Optional[Sequence[str]] = None) -> list[Finding]:
    """Run lock-discipline over ``root`` (default: the serving core files)."""
    selected = LOCK_FILES if files is None else tuple(files)
    modules = [
        parse_module(root / relative, root)
        for relative in selected
        if (root / relative).exists()
    ]
    if not modules:
        return []
    world = _build_world(modules)
    return sorted(
        _evaluate(world), key=lambda f: (f.path, f.line, f.rule, f.message)
    )
