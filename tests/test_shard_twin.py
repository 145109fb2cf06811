"""The traced benchmark's twin still drives the ``src/`` surface it calls.

``perfbench/shard_twin.py`` replays shard 0's worker calls in process:
replay into a store-backed corpus, the serving scheduler's queues, the
engine's shard phases, the model's pre-merge phases and a store
checkpoint.  This builds it on a tiny two-shard cluster and drives each
of those paths once, so renaming or re-signing a method the twin calls
fails the tier-1 suite, not only ``make bench-selftest``.  The test goes
with the twin (ROADMAP 2(e)).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sources.generators import CorpusGenerator, CorpusSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def shard_twin(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import shard_twin

    return shard_twin


def test_the_twin_drives_each_worker_path_once(
    shard_twin, coordinator_factory, travel_domain, tmp_path
):
    corpus = CorpusGenerator(
        CorpusSpec(source_count=8, seed=3, discussion_budget=4, user_budget=5)
    ).generate()
    coordinator = coordinator_factory(
        corpus, shard_twin.SHARD_COUNT, domain=travel_domain
    )
    twin = shard_twin.ShardTwin(coordinator, travel_domain, tmp_path / "twin")
    try:
        owned = [source_id for source_id in corpus.source_ids() if twin._owned(source_id)]
        assert owned and len(twin.corpus) == len(owned)
        corpus.touch(owned[0])
        coordinator.flush()
        assert twin.catch_up() == 1
        seconds, candidates, entries = twin.search("travel food", corpus.version)
        assert seconds >= 0.0 and 0 < entries <= candidates
        times = twin.rank_top(corpus.version, corpus.largest_source_open_discussions())
        assert set(times) == {
            "fit_worker",
            "fit_coordinator",
            "score_worker",
            "score_coordinator",
        }
        written = len(twin.checkpoint_seconds)
        twin.checkpoint()
        assert len(twin.checkpoint_seconds) == written + 1
    finally:
        twin.close()
