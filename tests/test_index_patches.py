"""Fragment-group patches of the search index: structure and work counts.

A changed source is re-counted from the thread groups that differ from
the ones the index last counted (see ``SearchEngine._index_source``).
Results-only checks could miss a wrong count that never reaches a top-10,
so the stream below compares the patched index with a fresh build *as
mappings* after every thread-level edit.  The work-count tests pin how
many fragment groups each kind of edit tokenises.
"""

from __future__ import annotations

import random

import pytest

from repro.persistence import CorpusStore
from repro.persistence.store import _overlay_source
from repro.search.engine import SearchEngine, _fragment_groups
from repro.sources.corpus import SourceCorpus
from repro.sources.models import Discussion, Post, Source
from repro.sources.webstats import AlexaLikeService
from test_mutation_safety import (
    QUERIES,
    _assert_bit_identical,
    _extra_source,
    _fresh_corpus,
    _grow,
)


def _mappings(state) -> tuple:
    """Deep plain-dict copies of a snapshot's count and postings maps.

    Plain dicts, so a zero count left behind by a subtraction compares
    unequal to a fresh build's missing key.
    """
    return (
        {source_id: dict(counter) for source_id, counter in state.term_frequencies.items()},
        dict(state.document_lengths),
        dict(state.document_frequencies),
        {term: dict(entries) for term, entries in state.postings.items()},
    )


def _assert_same_index(engine: SearchEngine, corpus: SourceCorpus) -> None:
    """The patched index equals a fresh build over the same corpus."""
    engine.refresh()
    rebuilt = SearchEngine(corpus, panel=AlexaLikeService(), config=engine.config)
    assert _mappings(engine._state) == _mappings(rebuilt._state)
    assert engine.static_rank() == rebuilt.static_rank()
    rebuilt.close()
    _assert_bit_identical(engine, corpus, QUERIES)


def _thread(serial: int, words: str, posts: int = 3) -> Discussion:
    discussion = Discussion(
        discussion_id=f"patch-thread-{serial}",
        category="travel",
        title=f"{words} thread",
        opened_at=1.0,
    )
    for index in range(posts):
        discussion.posts.append(
            Post(
                post_id=f"patch-post-{serial}-{index}",
                author_id="u1",
                day=2.0,
                text=f"{words} post {index}",
                tags=("travel", f"tag-{serial % 3}"),
            )
        )
    return discussion


def _clone(discussion: Discussion, serial: int) -> Discussion:
    """Same text, fresh ids: an identical fragment group."""
    payload = discussion.to_dict()
    payload["discussion_id"] = f"clone-{serial}"
    for index, post in enumerate(payload["posts"]):
        post["post_id"] = f"clone-{serial}-{index}"
    return Discussion.from_dict(payload)


def _post(rng: random.Random, source: Source) -> Post:
    discussion = rng.choice([d for d in source.discussions if d.posts])
    return rng.choice(discussion.posts)


WORDS = ("travel flight resort", "food recipe dinner", "travel review", "beach hotel")


class _Stream:
    """Seeded thread-level edits over one corpus and its engine."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.corpus = _fresh_corpus(8, seed=seed)
        self.engine = SearchEngine(self.corpus, panel=AlexaLikeService())
        self.serial = 0

    def _source(self) -> Source:
        return self.corpus.get(self.rng.choice(self.corpus.source_ids()))

    def _words(self) -> str:
        self.serial += 1
        return f"{self.rng.choice(WORDS)} w{self.serial}"

    def _touch(self, source: Source) -> None:
        self.corpus.touch(source.source_id)

    def grow(self) -> None:
        words = self._words()
        self._source().add_discussion(_thread(self.serial, words))

    def reword(self) -> None:
        source = self._source()
        _post(self.rng, source).text = self._words()
        self._touch(source)

    def retag(self) -> None:
        source = self._source()
        _post(self.rng, source).tags = ("retagged", self._words().split()[0])
        self._touch(source)

    def retitle(self) -> None:
        source = self._source()
        self.rng.choice(source.discussions).title = self._words()
        self._touch(source)

    def drop_thread(self) -> None:
        source = self._source()
        if len(source.discussions) > 1:
            del source.discussions[self.rng.randrange(len(source.discussions))]
        self._touch(source)

    def reorder(self) -> None:
        source = self._source()
        self.rng.shuffle(source.discussions)
        self._touch(source)

    def duplicate(self) -> None:
        source = self._source()
        self.serial += 1
        source.add_discussion(_clone(self.rng.choice(source.discussions), self.serial))

    def rename(self) -> None:
        source = self._source()
        if self.rng.random() < 0.5:
            source.name = f"Renamed {self._words()}"
        else:
            source.categories = tuple(self._words().split()[:2])
        self._touch(source)

    def overlay_identical(self) -> None:
        source = self._source()
        _overlay_source(source, Source.from_dict(source.to_dict()))
        self._touch(source)

    def overlay_changed(self) -> None:
        source = self._source()
        payload = source.to_dict()
        thread = self.rng.choice([d for d in payload["discussions"] if d["posts"]])
        self.rng.choice(thread["posts"])["text"] = self._words()
        _overlay_source(source, Source.from_dict(payload))
        self._touch(source)

    def append_unannounced(self) -> None:
        words = self._words()
        self._source().discussions.append(_thread(self.serial, words))
        assert self.engine.refresh(deep=True) is True

    def remove_and_readd(self) -> None:
        source = self._source()
        self.corpus.remove(source.source_id)
        if self.rng.random() < 0.5:
            self.engine.refresh()  # re-added as a new source
        self.corpus.add(source)

    EDITS = (
        "grow",
        "reword",
        "retag",
        "retitle",
        "drop_thread",
        "reorder",
        "duplicate",
        "rename",
        "overlay_identical",
        "overlay_changed",
        "append_unannounced",
        "remove_and_readd",
    )


class TestFragmentGroupStream:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_patched_index_equals_a_fresh_build_after_every_edit(self, seed):
        stream = _Stream(seed)
        kinds = list(_Stream.EDITS) * 3
        stream.rng.shuffle(kinds)
        for kind in kinds:
            published = stream.engine._state
            frozen = _mappings(published)
            getattr(stream, kind)()
            _assert_same_index(stream.engine, stream.corpus)
            # Copy-aside: the patch never wrote into the previous snapshot.
            assert _mappings(published) == frozen
        assert set(stream.engine._state.fragment_groups) == set(stream.corpus.source_ids())

    def test_identical_threads_count_as_a_multiset(self):
        corpus = _fresh_corpus(4)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        source = corpus.sources()[0]
        source.add_discussion(_thread(1, "travel twin"))
        source.add_discussion(_clone(source.discussions[-1], 2))
        _assert_same_index(engine, corpus)
        del source.discussions[-1]  # one copy of the twin group stays
        corpus.touch(source.source_id)
        _assert_same_index(engine, corpus)
        del source.discussions[-1]
        corpus.touch(source.source_id)
        _assert_same_index(engine, corpus)


def _tokenised(engine: SearchEngine) -> int:
    return engine.counters.get("fragment_groups_tokenised")


class TestFragmentGroupWorkCounts:
    def test_initial_build_counts_every_group_once(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        assert _tokenised(engine) == sum(len(_fragment_groups(s)) for s in corpus)

    def test_grow_tokenises_one_group(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        before = _tokenised(engine)
        _grow(corpus.sources()[0], "travel flight resort")
        assert engine.refresh() is True
        assert _tokenised(engine) - before == 1

    def test_reworded_post_tokenises_the_old_and_new_thread(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        before = _tokenised(engine)
        source = corpus.sources()[1]
        source.discussions[0].posts[0].text = "reworded travel content"
        corpus.touch(source.source_id)
        assert engine.refresh() is True
        assert _tokenised(engine) - before == 2
        assert engine.counters.get("sources_reindexed") == 1
        assert engine.counters.get("sources_unindexed") == 0

    def test_identical_overlay_and_reordering_tokenise_nothing(self):
        corpus = _fresh_corpus()
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        before = _tokenised(engine)
        source = corpus.sources()[2]
        _overlay_source(source, Source.from_dict(source.to_dict()))  # fresh objects, same text
        corpus.touch(source.source_id)
        assert engine.refresh() is True
        assert _tokenised(engine) == before
        source.discussions.reverse()
        corpus.touch(source.source_id)
        assert engine.refresh() is True
        assert _tokenised(engine) == before
        assert engine.counters.get("sources_reindexed") == 2
        _assert_same_index(engine, corpus)

    def test_warm_start_counts_a_source_in_full_once(self, tmp_path):
        corpus = _fresh_corpus()
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus, engine=SearchEngine(corpus))
        store.checkpoint()
        _grow(corpus.sources()[0], "travel tail growth")  # the journal tail
        store.close()
        with CorpusStore(tmp_path, fsync=False) as fresh:
            stack = fresh.recover_stack(attach=False)
        engine = stack.engine
        assert _tokenised(engine) == 0  # restored, not counted
        assert engine._state.fragment_groups == {}
        engine.refresh()  # the replayed tail: its source counted in full
        tail_source = stack.corpus.sources()[0]
        assert _tokenised(engine) == len(_fragment_groups(tail_source))
        source = stack.corpus.sources()[3]
        for expected in (len(_fragment_groups(source)) + 1, 1):
            before = _tokenised(engine)
            _grow(source, "travel warm growth")
            engine.refresh()
            assert _tokenised(engine) - before == expected
        assert set(engine._state.fragment_groups) == {
            tail_source.source_id,
            source.source_id,
        }
        _assert_same_index(engine, stack.corpus)

    def test_churn_leaves_groups_for_live_sources_only(self):
        corpus = _fresh_corpus(6)
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        live = set(corpus.source_ids())
        for round_ in range(3):
            extras = [_extra_source(f"churn-{round_}-{i}") for i in range(2)]
            for extra in extras:
                corpus.add(extra)
            engine.refresh()
            for extra in extras:
                corpus.remove(extra.source_id)
            engine.refresh()
        assert engine.counters.get("sources_unindexed") == 6
        assert set(engine._state.fragment_groups) == live
        _assert_same_index(engine, corpus)
