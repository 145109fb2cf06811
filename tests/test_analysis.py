"""Tests for the invariant lint suite and the runtime lock-order validator.

Each checker is proven twice: a *bad fixture* (a minimal reconstruction of
the violation class, including the PR 5 sync-mode delivery deadlock) must
be flagged, and a *clean fixture* exercising the same APIs correctly must
not be.  On top of that the real tree is asserted violation-free, the
suppression / baseline plumbing is unit-tested, and the runtime validator
is shown to catch a deliberately inverted acquisition that the static
checker would also reject.
"""

import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis import run_all
from repro.analysis import bus as bus_checker
from repro.analysis import durability, floats, locks
from repro.analysis.findings import (
    apply_baseline,
    apply_suppressions,
    load_baseline,
    write_baseline,
)
from repro.errors import ServingError
from repro.serving import rwlock as rwlock_mod
from repro.serving.rwlock import (
    RUNTIME_LOCK_RANKS,
    ReadWriteLock,
    note_acquired,
    note_released,
    ordered,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _small_corpus(count: int = 3):
    from repro.sources.generators import CorpusGenerator, CorpusSpec

    return CorpusGenerator(
        CorpusSpec(source_count=count, seed=23, discussion_budget=6, user_budget=8)
    ).generate()


def _write(root: Path, relative: str, source: str) -> str:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return relative


def _rules(findings):
    return {finding.rule for finding in findings}


# -- lock-discipline -------------------------------------------------------------------


class TestLockDiscipline:
    def test_notify_under_mutation_lock_is_flagged(self, tmp_path):
        """The reconstructed PR 5 deadlock: delivery inside the mutation lock."""
        relative = _write(
            tmp_path,
            "bad_corpus.py",
            '''
            import threading

            class BadCorpus:
                def __init__(self):
                    self._mutation_lock = threading.RLock()
                    self._listeners = []

                def add(self, source):
                    with self._mutation_lock:
                        self._apply(source)
                        for listener in self._listeners:
                            listener(source)

                def _apply(self, source):
                    pass
            ''',
        )
        findings = locks.check(tmp_path, files=[relative])
        assert "notify-under-lock" in _rules(findings)

    def test_gate_acquired_under_write_lock_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_consumer.py",
            '''
            class BadConsumer:
                def refresh(self):
                    with self.rwlock.write_lock():
                        with self.refresh_gate:
                            pass
            ''',
        )
        findings = locks.check(tmp_path, files=[relative])
        assert "lock-order" in _rules(findings)

    def test_read_to_write_upgrade_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_upgrade.py",
            '''
            class BadReader:
                def read_then_patch(self):
                    with self.rwlock.read_lock():
                        self.rwlock.acquire_write()
            ''',
        )
        findings = locks.check(tmp_path, files=[relative])
        assert "read-upgrade" in _rules(findings)

    def test_mutation_under_consumer_gate_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_mutator.py",
            '''
            class BadPatcher:
                def patch(self, source):
                    with self.refresh_gate:
                        self.corpus.add(source)
            ''',
        )
        findings = locks.check(tmp_path, files=[relative])
        assert "mutation-under-gate" in _rules(findings)

    def test_non_reentrant_intake_reacquire_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_bus.py",
            '''
            import threading

            class InvalidationBus:
                def __init__(self):
                    self._intake = threading.Lock()

                def publish(self, event):
                    with self._intake:
                        with self._intake:
                            pass
            ''',
        )
        findings = locks.check(tmp_path, files=[relative])
        assert "self-deadlock" in _rules(findings)

    def test_opposite_orders_report_a_cycle(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_cycle.py",
            '''
            class InvalidationBus:
                def forward(self):
                    with self._mutation_lock:
                        with self._intake:
                            pass

                def backward(self):
                    with self._intake:
                        with self._mutation_lock:
                            pass
            ''',
        )
        findings = locks.check(tmp_path, files=[relative])
        assert "lock-cycle" in _rules(findings)

    def test_clean_consumer_passes(self, tmp_path):
        relative = _write(
            tmp_path,
            "good_consumer.py",
            '''
            import threading

            class GoodCorpus:
                def __init__(self):
                    self._mutation_lock = threading.RLock()
                    self._listeners = []
                    self._outbox = []

                def add(self, source):
                    with self._mutation_lock:
                        self._outbox.append(source)
                    for listener in self._listeners:
                        listener(source)

            class GoodConsumer:
                def refresh(self):
                    with self.refresh_gate:
                        with self.rwlock.write_lock():
                            pass

                def read(self):
                    with self.rwlock.read_lock():
                        pass
            ''',
        )
        assert locks.check(tmp_path, files=[relative]) == []

    def test_ordered_wrapper_is_transparent_to_the_checker(self, tmp_path):
        """Instrumenting a with-block must not blind the static checker."""
        relative = _write(
            tmp_path,
            "bad_instrumented.py",
            '''
            from repro.serving.rwlock import ordered

            class BadConsumer:
                def refresh(self):
                    with self.rwlock.write_lock():
                        with ordered(self.refresh_gate, "consumer.gate"):
                            pass
            ''',
        )
        findings = locks.check(tmp_path, files=[relative])
        assert "lock-order" in _rules(findings)


# -- float-exactness -------------------------------------------------------------------


class TestFloatExactness:
    def test_banned_reduction_and_method_are_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_kernel.py",
            '''
            import numpy as np

            def score(values):
                total = np.sum(values)
                centred = values - values.mean()
                return total, centred
            ''',
        )
        findings = floats.check(tmp_path, files=[relative])
        rules = _rules(findings)
        assert "banned-op" in rules
        assert "reduction-method" in rules

    def test_matmul_operator_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_matmul.py",
            '''
            import numpy as np

            def project(weights, matrix):
                return weights @ matrix
            ''',
        )
        assert "matmul" in _rules(floats.check(tmp_path, files=[relative]))

    def test_unknown_numpy_call_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_unknown.py",
            '''
            import numpy as np

            def smooth(values):
                return np.convolve(values, values)
            ''',
        )
        rules = _rules(floats.check(tmp_path, files=[relative]))
        assert rules & {"banned-op", "unknown-op"}

    def test_whitelisted_exact_ops_pass(self, tmp_path):
        relative = _write(
            tmp_path,
            "good_kernel.py",
            '''
            import numpy as np

            def clamp(values, low, high):
                out = np.minimum(np.maximum(np.asarray(values), low), high)
                order = np.argsort(out, kind="stable")
                return np.where(np.isfinite(out), out, 0.0), order
            ''',
        )
        assert floats.check(tmp_path, files=[relative]) == []


# -- durability-discipline -------------------------------------------------------------


class TestDurabilityDiscipline:
    def test_raw_snapshot_write_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "src/repro/bad_snapshot.py",
            '''
            import json

            def save_snapshot(path, state):
                with open(path, "w") as handle:
                    json.dump(state, handle)
            ''',
        )
        findings = durability.check(tmp_path, files=[relative])
        assert "raw-write" in _rules(findings)
        # both the open() mode and the json.dump sink are reported
        assert len(findings) >= 2

    def test_raw_rename_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "src/repro/bad_rename.py",
            '''
            import os

            def rotate(old, new):
                os.replace(old, new)
            ''',
        )
        assert "raw-rename" in _rules(durability.check(tmp_path, files=[relative]))

    def test_reads_and_atomic_helpers_pass(self, tmp_path):
        relative = _write(
            tmp_path,
            "src/repro/good_persistence.py",
            '''
            from repro.persistence.format import atomic_write_bytes

            def load(path):
                with open(path) as handle:
                    return handle.read()

            def save(path, payload):
                atomic_write_bytes(path, payload, fsync=True)
            ''',
        )
        assert durability.check(tmp_path, files=[relative]) == []

    def test_format_module_itself_is_exempt(self):
        findings = durability.check(REPO_ROOT, files=["src/repro/persistence/format.py"])
        assert findings == []


# -- bus-hygiene -----------------------------------------------------------------------


class TestBusHygiene:
    def test_unclosed_subscription_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_unclosed.py",
            '''
            class LeakyConsumer:
                def __init__(self, corpus):
                    self._subscription = corpus.invalidation_bus().subscribe(
                        name="leaky", on_event=self._on_event
                    )

                def _on_event(self, change):
                    pass

                def close(self):
                    pass
            ''',
        )
        findings = bus_checker.check(tmp_path, files=[relative])
        assert "unclosed-subscription" in _rules(findings)

    def test_leaked_local_subscription_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_leak.py",
            '''
            def watch(corpus):
                subscription = corpus.invalidation_bus().subscribe(name="drive-by")
                return corpus.version
            ''',
        )
        findings = bus_checker.check(tmp_path, files=[relative])
        assert "leaked-subscription" in _rules(findings)

    def test_unclosed_bridge_is_flagged(self, tmp_path):
        relative = _write(
            tmp_path,
            "bad_bridge.py",
            '''
            class LeakyCoordinator:
                def __init__(self, corpus, sink):
                    self._bridge = WireBridgeSubscriber(corpus, sink)

                def close(self):
                    pass

            class LeakyStore:
                def attach(self, corpus):
                    self._subscriber = DurableJournalSubscriber(corpus, self._sink)
            ''',
        )
        findings = bus_checker.check(tmp_path, files=[relative])
        assert _rules(findings) == {"unclosed-bridge"}
        assert len(findings) == 2

    def test_closed_bridge_passes(self, tmp_path):
        relative = _write(
            tmp_path,
            "good_bridge.py",
            '''
            class TidyCoordinator:
                def __init__(self, corpus, sink):
                    self._bridge = WireBridgeSubscriber(corpus, sink)

                def close(self):
                    self._bridge.close()
            ''',
        )
        assert bus_checker.check(tmp_path, files=[relative]) == []

    def test_detaching_consumer_passes(self, tmp_path):
        relative = _write(
            tmp_path,
            "good_consumer.py",
            '''
            class TidyConsumer:
                def __init__(self, corpus):
                    self._subscription = corpus.invalidation_bus().subscribe(
                        name="tidy", on_event=self._on_event
                    )

                def _on_event(self, change):
                    pass

                def close(self):
                    self._subscription.close()

            def watch(corpus):
                subscription = corpus.invalidation_bus().subscribe(name="kept")
                return subscription
            ''',
        )
        assert bus_checker.check(tmp_path, files=[relative]) == []


# -- suppressions, baseline, the real tree ---------------------------------------------


class TestRunnerPlumbing:
    def test_allow_comment_suppresses_a_finding(self, tmp_path):
        relative = _write(
            tmp_path,
            "src/repro/suppressed.py",
            '''
            def save(path, payload):
                path.write_text(payload)  # lint: allow[raw-write]
            ''',
        )
        findings = durability.check(tmp_path, files=[relative])
        assert _rules(findings) == {"raw-write"}
        kept, count = apply_suppressions(findings, tmp_path)
        assert kept == []
        assert count == 1

    def test_baseline_grandfathers_by_fingerprint_not_line(self, tmp_path):
        relative = _write(
            tmp_path,
            "src/repro/legacy.py",
            '''
            def save(path, payload):
                path.write_text(payload)
            ''',
        )
        findings = durability.check(tmp_path, files=[relative])
        assert findings
        baseline_path = tmp_path / "lint_baseline.json"
        write_baseline(baseline_path, findings)
        # the same violation on a different line is still grandfathered
        _write(
            tmp_path,
            "src/repro/legacy.py",
            '''
            # a comment that shifts every line number

            def save(path, payload):
                path.write_text(payload)
            ''',
        )
        moved = durability.check(tmp_path, files=[relative])
        fresh, grandfathered = apply_baseline(moved, load_baseline(baseline_path))
        assert fresh == []
        assert grandfathered == len(moved)
        # a second occurrence of the same fingerprint is NOT covered
        _write(
            tmp_path,
            "src/repro/legacy.py",
            '''
            def save(path, payload):
                path.write_text(payload)

            def save_again(path, payload):
                path.write_text(payload)
            ''',
        )
        doubled = durability.check(tmp_path, files=[relative])
        fresh, _ = apply_baseline(doubled, load_baseline(baseline_path))
        assert len(fresh) == 1

    def test_real_tree_is_violation_free(self):
        report = run_all(REPO_ROOT)
        assert report.ok, report.render()
        assert set(report.checkers) == {
            "lock-discipline",
            "float-exactness",
            "durability-discipline",
            "bus-hygiene",
        }

    def test_cli_exits_zero_on_the_real_tree(self):
        result = subprocess.run(
            [sys.executable, "scripts/run_lint.py"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK:" in result.stdout


# -- runtime lock-order validator ------------------------------------------------------


@pytest.fixture
def lock_validator():
    rwlock_mod.enable_lock_order_validation(True)
    try:
        yield
    finally:
        rwlock_mod.enable_lock_order_validation(False)
        rwlock_mod._held_frames.stack = []


class TestRuntimeLockOrderValidator:
    def test_ranks_agree_with_the_static_checker(self):
        static = {
            name: rank
            for name, rank in locks.LOCK_RANKS.items()
            if name != "rwlock.internal"
        }
        assert static == RUNTIME_LOCK_RANKS

    def test_inverted_acquisition_raises_instead_of_deadlocking(self, lock_validator):
        mutation, gate = threading.RLock(), threading.RLock()
        note_acquired("corpus.mutation", mutation)
        try:
            with pytest.raises(ServingError, match="lock-order violation"):
                note_acquired("consumer.gate", gate)
        finally:
            note_released(mutation)

    def test_ordered_raises_before_acquiring_the_lock(self, lock_validator):
        mutation, gate = threading.RLock(), threading.RLock()
        with ordered(mutation, "corpus.mutation"):
            with pytest.raises(ServingError):
                with ordered(gate, "consumer.gate"):
                    pass
        # the violating lock was never acquired, and the stack is balanced
        assert gate.acquire(blocking=False)
        gate.release()
        assert rwlock_mod._frames() == []

    def test_rwlock_is_natively_instrumented(self, lock_validator):
        rwlock, gate = ReadWriteLock(), threading.RLock()
        rwlock.acquire_write()
        try:
            with pytest.raises(ServingError, match="rwlock.write"):
                note_acquired("consumer.gate", gate)
        finally:
            rwlock.release_write()
        assert rwlock_mod._frames() == []

    def test_rejected_upgrade_leaves_the_stack_balanced(self, lock_validator):
        rwlock = ReadWriteLock()
        rwlock.acquire_read()
        with pytest.raises(ServingError, match="upgrade"):
            rwlock.acquire_write()
        rwlock.release_read()
        assert rwlock_mod._frames() == []

    def test_reentrant_and_composite_dips_are_exempt(self, lock_validator):
        mutation, gate = threading.RLock(), threading.RLock()
        note_acquired("corpus.mutation", mutation)
        # same object again: reentrant, no check
        note_acquired("corpus.mutation", mutation)
        # composite-style dip below the top rank: recorded, not checked
        note_acquired("consumer.gate", gate, check=False)
        # but a checked acquisition above the dipped frame still validates
        with pytest.raises(ServingError):
            note_acquired("checkpoint.gate", threading.RLock())
        note_released(gate)
        note_released(mutation)
        note_released(mutation)
        assert rwlock_mod._frames() == []

    def test_serving_stack_runs_clean_under_the_validator(
        self, lock_validator, travel_domain
    ):
        from repro.core.source_quality import SourceQualityModel
        from repro.search.engine import SearchEngine
        from repro.serving.scheduler import EagerRefreshScheduler, RefreshMode

        corpus = _small_corpus(4)
        engine = SearchEngine(corpus)
        model = SourceQualityModel(travel_domain)
        with EagerRefreshScheduler(corpus, RefreshMode.SYNC) as scheduler:
            scheduler.register_search_engine(engine)
            scheduler.register_source_model(model)
            corpus.touch(corpus.source_ids()[0])
            scheduler.flush()
            with scheduler.read_lock():
                pass
            with scheduler.write_lock():
                pass
        engine.close()
        model.close()
        assert rwlock_mod._frames() == []


# -- subscription lifecycle fixes surfaced by the lint run -----------------------------


class TestSubscriptionLifecycle:
    def test_search_engine_close_detaches_its_subscription(self):
        from repro.search.engine import SearchEngine

        corpus = _small_corpus()
        engine = SearchEngine(corpus)
        assert not engine._subscription.closed
        engine.close()
        assert engine._subscription.closed
        engine.close()  # idempotent

    def test_source_model_close_discards_entries_and_trackers(self, travel_domain):
        from repro.core.source_quality import SourceQualityModel

        corpus = _small_corpus()
        benchmark = _small_corpus()
        model = SourceQualityModel(travel_domain)
        model.assessment_context(corpus, benchmark)
        entries = list(model._incremental.values())
        assert len(entries) == 2
        model.close()
        assert model._incremental == {}
        for entry in entries:
            assert entry.subscription.closed
