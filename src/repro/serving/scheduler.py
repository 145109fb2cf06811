"""Eager refresh scheduling for latency-critical serving (ROADMAP (d)).

Every consumer of a :class:`~repro.sources.corpus.SourceCorpus` — the
search engine, the quality models — already refreshes *lazily*: each read
checks an O(1) dirty flag and, when a mutation happened since the last
read, patches its derived state incrementally before answering.  That
keeps reads correct under any mutation stream, but it puts the patch cost
on the *read path*: the first read after a burst of mutations absorbs the
whole patch, which is exactly where an interactive mashup can least
afford latency.

:class:`EagerRefreshScheduler` moves that cost off the read path.  It
registers one typed subscription per consumer on the corpus's shared
:class:`~repro.sources.diffing.InvalidationBus` and drives the
consumers' *ordinary* refresh entry points ahead of the next read, so a
hot read finds a clean dirty flag and serves in O(1).  Three modes trade
patch count against write latency:

``sync``
    Refresh inline, inside the mutation's notification: every event pays
    one patch per consumer, reads are always clean.  Simplest, and the
    right mode when mutations are rare.
``deferred``
    Mark work pending and apply it at the next :meth:`~EagerRefreshScheduler.flush`
    / :meth:`~EagerRefreshScheduler.poll` (or as soon as the background
    worker wakes).  Mutations return immediately; a burst of events that
    arrives before the patch runs collapses into one patch.
``coalescing``
    Like ``deferred``, plus a *debounce window*: the patch is held until
    the stream has been quiet for ``debounce_window`` seconds (bounded by
    ``max_delay``, so a steady stream cannot starve serving forever).  A
    burst of N mutations costs one patch per consumer, the mode to pair
    with write-heavy workloads.

**Correctness never depends on the scheduler.**  Eager refresh invokes the
same incremental-maintenance paths the consumers run lazily (which are
bit-identical to from-scratch rebuilds — see ``docs/PERFORMANCE.md``), and
every consumer read path keeps its own dirty-flag check: if a read
arrives before the scheduler got around to patching, the consumer simply
patches itself lazily, exactly as without a scheduler.  The scheduler is
therefore purely a latency optimisation, and eager results are
bit-identical to lazy ones by construction (pinned by
``tests/test_serving.py`` and re-asserted per event by
``benchmarks/bench_eager_refresh.py``).

The consumer registration contract is documented in
``docs/ARCHITECTURE.md``: anything callable can be registered via
:meth:`~EagerRefreshScheduler.register`; convenience wrappers cover the
built-in consumers.  Registrations may carry a *source filter* so that
per-source consumers (a contributor model watching one community) are
only refreshed by events touching their source — the filter lives in the
consumer's bus subscription, so non-matching events never even reach its
queue.

Threading (the concurrent serving core): every registered consumer owns
a :class:`~repro.serving.queues.ConsumerQueue` — its own coalescing bus
subscription, its own drain serialisation and its own
:class:`~repro.serving.rwlock.ReadWriteLock` — so a patch to one
consumer never blocks reads, or patches, of another.  The built-in
consumers are themselves thread-safe (their refreshes build the patched
state *aside* and swap it in under their write lock in O(1)), so plain
reads need no scheduler lock at all; reads under no pending patch take
only the consumer's shared lock.  For callers that want to freeze every
registered consumer at once (multi-consumer consistency, end-of-run
assertions), :meth:`~EagerRefreshScheduler.read_lock` and
:meth:`~EagerRefreshScheduler.write_lock` return composite context
managers over all queues.
:meth:`~EagerRefreshScheduler.start` launches a daemon worker that
applies deferred/coalescing patches in the background; notifications
from mutating threads only record the event into the bus and poke the
worker — they never wait for a running patch.

Error policy: a consumer refresh that raises is always recorded in the
consumer's :class:`~repro.serving.queues.ConsumerStats` (and the
``refresh_errors`` counter), and the staleness it consumed is restored to
its queue's subscription so the consumer falls back to lazy refresh.
Explicit foreground calls — :meth:`~EagerRefreshScheduler.flush`,
:meth:`~EagerRefreshScheduler.poll`,
:meth:`~EagerRefreshScheduler.refresh_all`,
:meth:`~EagerRefreshScheduler.drain` — additionally re-raise the first
failure as a :class:`~repro.errors.ServingError`.  Sync-mode patches
(which run inside the *mutation's* notification) and the background
worker do not raise: a failed eager refresh must not make an
already-applied corpus mutation appear to fail, nor starve other
listeners of the event.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Any, Callable, Iterable, Optional

from repro.errors import PersistenceError, ServingError
from repro.perf.counters import PerfCounters
from repro.serving.queues import ConsumerQueue, ConsumerStats
from repro.serving.rwlock import ReadWriteLock, note_acquired, note_released
from repro.sources.corpus import CorpusChange, SourceCorpus
from repro.sources.diffing import PendingInvalidation

__all__ = [
    "RefreshMode",
    "ConsumerStats",
    "EagerRefreshScheduler",
    "register_worker_stack",
]


class RefreshMode(str, Enum):
    """When the scheduler patches its consumers relative to mutations."""

    #: Patch inline, inside each mutation's change notification.
    SYNC = "sync"
    #: Patch at the next flush/poll or background wake-up, without a window.
    DEFERRED = "deferred"
    #: Patch once the stream has been quiet for the debounce window.
    COALESCING = "coalescing"


class _CompositeLock:
    """Acquire one side of every registered queue's rwlock, in sorted order.

    The write side additionally acquires each consumer's refresh gate, so
    "no patch while held" covers lazy read-path patches too, not just the
    scheduler's drains.  All multi-consumer acquirers use the same sorted
    name order (and the same per-consumer gate-then-write order the
    consumers' own refresh paths use), which is what keeps the composite
    deadlock-free against individual patchers.
    """

    def __init__(self, scheduler: "EagerRefreshScheduler", write: bool) -> None:
        self._scheduler = scheduler
        self._write = write
        self._acquired: list[tuple[str, Any]] = []

    def __enter__(self) -> "_CompositeLock":
        queues = self._scheduler._queues_snapshot()
        try:
            for queue in sorted(queues, key=lambda q: q.name):
                if self._write:
                    # check=False: the sorted-name walk is deadlock-free
                    # by protocol but not rank-monotonic across consumers
                    # (gate after the previous consumer's write side), so
                    # the frame is recorded without a rank check; locks
                    # taken on top of it are still checked against it.
                    note_acquired(queue.gate_lock_class, queue.refresh_gate, check=False)
                    queue.refresh_gate.acquire()
                    self._acquired.append(("gate", queue.refresh_gate))
                    queue.rwlock.acquire_write()
                    self._acquired.append(("write", queue.rwlock))
                else:
                    queue.rwlock.acquire_read()
                    self._acquired.append(("read", queue.rwlock))
        except BaseException:
            # A mid-walk failure (e.g. a rejected read→write upgrade on
            # one consumer's rwlock) must not leak the locks already
            # taken: __exit__ never runs when __enter__ raises.
            self._release_acquired()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._release_acquired()

    def _release_acquired(self) -> None:
        while self._acquired:
            kind, lock = self._acquired.pop()
            if kind == "gate":
                lock.release()
                note_released(lock)
            elif kind == "write":
                lock.release_write()
            else:
                lock.release_read()


class EagerRefreshScheduler:
    """Subscribe to corpus changes and patch registered consumers eagerly.

    See the module docstring for the mode semantics.  The scheduler holds
    strong references to its consumers and registers subscriptions on the
    corpus's invalidation bus; call :meth:`close` (or use it as a context
    manager) when done, which detaches every subscription and stops the
    background worker.
    """

    def __init__(
        self,
        corpus: SourceCorpus,
        mode: RefreshMode | str = RefreshMode.COALESCING,
        *,
        debounce_window: float = 0.05,
        max_delay: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if debounce_window < 0:
            raise ServingError("debounce_window must be non-negative")
        if max_delay < debounce_window:
            raise ServingError("max_delay must be at least the debounce window")
        self._corpus = corpus
        self._mode = RefreshMode(mode)
        self._debounce_window = float(debounce_window)
        self._max_delay = float(max_delay)
        self._clock = clock
        self._queues: dict[str, ConsumerQueue] = {}
        #: Intake lock: protects the queue registry and the worker state.
        self._intake = threading.RLock()
        self._wakeup = threading.Condition(self._intake)
        self._auto_names = 0
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.counters = PerfCounters()
        self._bus = corpus.invalidation_bus()
        #: The scheduler's own unfiltered subscription: the global pending
        #: marker (drives ``pending``/``due``/the worker) and the
        #: notification hook that wakes the worker / runs sync patches.
        self._marker = self._bus.subscribe(
            name="eager-refresh-scheduler", clock=clock, on_event=self._on_event
        )

    # -- accessors -----------------------------------------------------------------

    @property
    def corpus(self) -> SourceCorpus:
        """The corpus whose change notifications drive the scheduler."""
        return self._corpus

    @property
    def mode(self) -> RefreshMode:
        """The configured refresh mode."""
        return self._mode

    def read_lock(self) -> _CompositeLock:
        """Context manager holding every consumer's *shared* lock.

        Freezes all registered consumers' snapshots for a multi-consumer
        consistent read; concurrent readers are unaffected, patches wait
        at their O(1) swap.  Plain single-consumer reads do not need it —
        the built-in consumers are internally thread-safe.
        """
        return _CompositeLock(self, write=False)

    def write_lock(self) -> _CompositeLock:
        """Context manager holding every consumer's *exclusive* side.

        Excludes scheduler drains and lazy read-path patches alike; the
        holder may still read (and even refresh) the consumers itself —
        the per-consumer locks are reentrant for their holder.
        """
        return _CompositeLock(self, write=True)

    @property
    def pending(self) -> bool:
        """True when at least one event awaits a patch (always False in sync mode)."""
        return self._marker.peek() is not None

    @property
    def running(self) -> bool:
        """True while the background worker thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def consumer_names(self) -> list[str]:
        """Names of the registered consumers, in registration order."""
        with self._intake:
            return list(self._queues)

    def stats(self) -> dict[str, ConsumerStats]:
        """Per-consumer patch/skip/error statistics keyed by consumer name."""
        with self._intake:
            return {name: queue.stats for name, queue in self._queues.items()}

    def queue(self, name: str) -> ConsumerQueue:
        """The work queue registered under ``name`` (KeyError when unknown)."""
        with self._intake:
            return self._queues[name]

    def _queues_snapshot(self) -> list[ConsumerQueue]:
        with self._intake:
            return list(self._queues.values())

    # -- registration ---------------------------------------------------------------

    def register(
        self,
        name: str,
        refresh: Callable[[], Any],
        *,
        source_ids: Optional[Iterable[str]] = None,
        rwlock: Optional[ReadWriteLock] = None,
        refresh_gate: Optional[Any] = None,
    ) -> None:
        """Register ``refresh`` to be driven eagerly under ``name``.

        ``refresh`` must be an idempotent zero-argument callable that
        brings the consumer's derived state in sync with the corpus — for
        the built-in consumers that is exactly their lazy refresh entry
        point, which is what guarantees eager results are bit-identical to
        lazy ones.  ``source_ids`` optionally restricts the consumer to
        events touching those sources (the filter lives in the consumer's
        bus subscription).  ``rwlock``/``refresh_gate`` let the consumer
        share its own reader/writer lock and refresh serialisation with
        the queue, so the scheduler's composite locks guard the real
        snapshots; the built-in registration wrappers pass them
        automatically.  Registering an existing name replaces it (the old
        queue's subscription is detached).
        """
        subscription = self._bus.subscribe(
            name=f"consumer:{name}",
            source_ids=source_ids,
            clock=self._clock,
        )
        queue = ConsumerQueue(
            name,
            refresh,
            subscription,
            clock=self._clock,
            rwlock=rwlock,
            refresh_gate=refresh_gate,
            counters=self.counters,
        )
        with self._intake:
            previous = self._queues.pop(name, None)
            self._queues[name] = queue
        if previous is not None:
            previous.close()

    def _auto_name(self, prefix: str) -> str:
        """A fresh consumer name that can never replace a live registration."""
        with self._intake:
            while True:
                name = f"{prefix}-{self._auto_names}"
                self._auto_names += 1
                if name not in self._queues:
                    return name

    def register_search_engine(self, engine: Any, name: Optional[str] = None) -> str:
        """Register a :class:`~repro.search.engine.SearchEngine` (``engine.refresh``)."""
        name = name or self._auto_name("search-engine")
        self.register(
            name,
            engine.refresh,
            rwlock=getattr(engine, "rwlock", None),
            refresh_gate=getattr(engine, "refresh_mutex", None),
        )
        return name

    def register_source_model(
        self,
        model: Any,
        corpus: Optional[SourceCorpus] = None,
        benchmark_corpus: Optional[SourceCorpus] = None,
        name: Optional[str] = None,
    ) -> str:
        """Register a :class:`~repro.core.source_quality.SourceQualityModel`.

        The eager refresh drives ``model.assessment_context(corpus,
        benchmark_corpus)`` — the same incremental path every model read
        goes through.  ``corpus`` defaults to the scheduler's corpus.
        """
        target = corpus if corpus is not None else self._corpus
        name = name or self._auto_name("source-model")
        self.register(
            name,
            lambda: model.assessment_context(target, benchmark_corpus),
            rwlock=getattr(model, "rwlock", None),
            refresh_gate=getattr(model, "refresh_mutex", None),
        )
        return name

    def register_contributor_model(
        self, model: Any, source: Any, name: Optional[str] = None
    ) -> str:
        """Register a contributor model for one source's community.

        The consumer's subscription is filtered to events touching
        ``source`` (other sources' mutations cannot stale this community),
        and the eager refresh drives ``model.refresh(source)``.
        """
        name = name or self._auto_name(f"contributor-model-{source.source_id}")
        self.register(
            name,
            lambda: model.refresh(source),
            source_ids=(source.source_id,),
            rwlock=getattr(model, "rwlock", None),
            refresh_gate=getattr(model, "refresh_mutex", None),
        )
        return name

    def register_checkpoint_store(
        self, store: Any, name: Optional[str] = None
    ) -> str:
        """Register a :class:`~repro.persistence.store.CorpusStore` checkpointer.

        Drives ``store.checkpoint_if_due`` as a fourth consumer queue:
        checkpoints are coalesced per mutation burst and run where the
        scheduler runs its consumers — its worker thread, or the
        foreground of a ``poll()``/``flush()`` pump (a shard worker's,
        before the ``apply`` reply).  A checkpoint failure is a
        :class:`~repro.errors.PersistenceError`, which the queue re-raises
        through every path (durability loss is never silently absorbed —
        see :class:`~repro.serving.queues.ConsumerQueue`).
        """
        name = name or self._auto_name("checkpoint")
        self.register(name, store.checkpoint_if_due)
        return name

    def unregister(self, name: str) -> bool:
        """Remove a registered consumer; returns False when unknown."""
        with self._intake:
            queue = self._queues.pop(name, None)
        if queue is None:
            return False
        queue.close()
        return True

    # -- event intake ----------------------------------------------------------------

    def _on_event(self, change: CorpusChange) -> None:
        """Per-event hook (called by the bus, outside its intake lock).

        The event itself is already coalesced into every matching queue's
        subscription by the bus; this hook only keeps the scheduler-level
        counters and wakes the worker — or, in sync mode, patches inline
        on the mutating thread.
        """
        with self._intake:
            if self._closed:
                return
            self.counters.increment("notifications")
            pending = self._marker.peek()
            if pending is not None and pending.events > 1:
                self.counters.increment("coalesced_events")
            if self._mode is not RefreshMode.SYNC:
                self._wakeup.notify_all()
                return
        # Sync mode: patch on the mutating thread, outside the intake lock
        # and *without raising* — a failed eager refresh must not make the
        # already-applied mutation appear to fail, nor starve the corpus's
        # later-registered listeners of this event (errors are recorded in
        # the consumer stats; the consumer falls back to lazy refresh).
        self._apply(raise_errors=False)

    # -- patching --------------------------------------------------------------------

    def _due_pending(self, pending: PendingInvalidation, now: float) -> bool:
        if self._mode is not RefreshMode.COALESCING:
            return True
        return (
            now - pending.last_at >= self._debounce_window
            or now - pending.first_at >= self._max_delay
        )

    def due(self, now: Optional[float] = None) -> bool:
        """True when pending work should be applied at ``now`` (poll contract).

        Deferred mode is due as soon as anything is pending; coalescing
        mode is due once the stream has been quiet for the debounce window
        or the oldest pending event has waited ``max_delay``.
        """
        pending = self._marker.peek()
        if pending is None:
            return False
        return self._due_pending(pending, self._clock() if now is None else now)

    def poll(self) -> int:
        """Apply pending work if it is due; return the number of patches run.

        The foreground pump for callers without a background worker:
        call it from the serving loop (e.g. once per request batch).
        """
        if not self.due():
            return 0
        return self._apply(raise_errors=True)

    def flush(self) -> int:
        """Apply pending work *now*, ignoring the debounce window.

        Returns the number of consumer patches run (0 when nothing was
        pending).  Also the deterministic hook tests and benchmarks use to
        force the eager patch without waiting on wall-clock time.
        """
        return self._apply(raise_errors=True)

    def drain(self, name: str) -> int:
        """Drain one consumer's queue independently of the others.

        Applies the named queue's pending work now (ignoring the debounce
        window) without touching any other queue — the entry point for
        callers that want to prioritise one consumer's freshness.  Returns
        the number of patches run (0 when that queue was idle); re-raises
        a refresh failure as :class:`~repro.errors.ServingError`.
        """
        with self._intake:
            queue = self._queues.get(name)
        if queue is None:
            raise ServingError(f"no consumer registered under {name!r}")
        patched, error = queue.drain()
        if error is not None:
            raise ServingError(
                f"eager refresh of consumer {name!r} failed"
            ) from error
        return patched

    def refresh_all(self) -> int:
        """Unconditionally run every registered consumer's refresh once.

        Useful right after registration to warm consumers up so the first
        mutation patches incrementally instead of building from scratch.
        """
        self._marker.drain()
        patched = 0
        errors: list[tuple[str, BaseException]] = []
        for queue in self._queues_snapshot():
            count, error = queue.force_refresh()
            patched += count
            if error is not None:
                errors.append((queue.name, error))
        self._raise_first(errors, raise_errors=True)
        return patched

    def _apply(self, raise_errors: bool) -> int:
        """Apply the pending patch to every queue with matching events.

        The scheduler-level marker is drained first (one ``patches_applied``
        apply-cycle per burst); each queue then drains *its own* pending
        state under its own serialisation — queues with nothing pending
        (their source filter excluded the whole burst) record a skip.  No
        lock is shared across queues, so one consumer's slow patch never
        delays another's.
        """
        if self._marker.drain() is None:
            return 0
        self.counters.increment("patches_applied")
        patched = 0
        errors: list[tuple[str, BaseException]] = []
        for queue in self._queues_snapshot():
            if queue.pending:
                count, error = queue.drain()
                patched += count
                if error is not None:
                    errors.append((queue.name, error))
            else:
                queue.skip()
        self._raise_first(errors, raise_errors)
        return patched

    def _raise_first(
        self, errors: list[tuple[str, BaseException]], raise_errors: bool
    ) -> None:
        if errors and raise_errors:
            # Explicit foreground calls get the failure; sync notifications
            # and the background worker record it (see ConsumerStats) and
            # keep serving the other consumers.
            name, exc = errors[0]
            raise ServingError(f"eager refresh of consumer {name!r} failed") from exc

    # -- background worker -------------------------------------------------------------

    def start(self) -> None:
        """Launch the daemon worker applying deferred/coalescing patches.

        A no-op in sync mode (patches already run inline) and when the
        worker is already running.  Incompatible with an injected
        ``clock``: the worker sleeps on real Condition timeouts, so a
        simulated clock would never make pending work due — drive such a
        scheduler with :meth:`poll`/:meth:`flush` instead.
        """
        if self._mode is RefreshMode.SYNC:
            return
        if self._clock is not time.monotonic:
            raise ServingError(
                "the background worker needs the real clock; "
                "with an injected clock, drive the scheduler via poll()/flush()"
            )
        with self._intake:
            if self._closed:
                raise ServingError("scheduler is closed")
            if self.running:
                return
            self._thread = threading.Thread(
                target=self._worker, name="eager-refresh-scheduler", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the background worker (pending work stays pending)."""
        with self._intake:
            thread = self._thread
            self._thread = None
            self._wakeup.notify_all()
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)

    def _worker(self) -> None:
        while True:
            with self._intake:
                if self._thread is not threading.current_thread() or self._closed:
                    return
                pending = self._marker.peek()
                if pending is None:
                    self._wakeup.wait(timeout=0.5)
                    continue
                now = self._clock()
                if not self._due_pending(pending, now):
                    deadline = min(
                        pending.last_at + self._debounce_window,
                        pending.first_at + self._max_delay,
                    )
                    self._wakeup.wait(timeout=max(0.0, deadline - now))
                    continue
            # Due: patch outside the intake lock so mutating threads are
            # never blocked behind the running refreshes.
            try:
                self._apply(raise_errors=False)
            except PersistenceError:
                # Already recorded in the failing queue's ConsumerStats
                # (see ConsumerQueue._run, which re-raises persistence
                # errors through every path).  Swallowing would be silent
                # data-durability loss; killing the worker would silently
                # stop every other consumer's eager refresh — so count it
                # and retry on the next due burst.
                self.counters.increment("persistence_errors")

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Detach every bus subscription and stop the worker (idempotent).

        Pending work is *not* applied: after ``close`` the consumers are
        back to plain lazy refresh, which remains correct.  The
        scheduler's subscriptions — its own pending marker and every
        queue's — are unregistered from the corpus's invalidation bus, so
        a closed scheduler receives no further notifications and holds no
        listener registration on the corpus.
        """
        with self._intake:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
            queues = list(self._queues.values())
        self.stop()
        self._marker.close()
        for queue in queues:
            queue.close()

    def __enter__(self) -> "EagerRefreshScheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def register_worker_stack(
    scheduler: EagerRefreshScheduler,
    *,
    shard_index: int,
    engine: Any = None,
    source_model: Any = None,
    corpus: Optional[SourceCorpus] = None,
    store: Any = None,
) -> list[str]:
    """Register a shard worker's serving stack under shard-scoped names.

    The sharded worker (:mod:`repro.sharding.worker`) runs the same
    consumers a single-process deployment does; this helper registers
    whichever of them are given under ``shard<i>.``-prefixed names — e.g.
    ``shard2.search-engine`` — so consumer stats, stress output and test
    assertions can tell the shards apart at a glance.  Pass only the
    pieces that already exist (the worker builds its engine lazily and
    registers it on first build); returns the registered names.  The
    worker passes its engine and store; ``source_model`` and ``corpus``
    register an eagerly patched model for a stack that keeps one.
    """
    names: list[str] = []
    prefix = f"shard{shard_index}."
    if engine is not None:
        names.append(
            scheduler.register_search_engine(engine, name=f"{prefix}search-engine")
        )
    if source_model is not None:
        names.append(
            scheduler.register_source_model(
                source_model, corpus, name=f"{prefix}source-model"
            )
        )
    if store is not None:
        names.append(
            scheduler.register_checkpoint_store(store, name=f"{prefix}checkpoint")
        )
    return names
