"""One measure state per corpus in ``SourceQualityModel``.

Every reader of the raw Table 1 measures — assessment contexts,
``raw_measures``, benchmark-corpus fits, the shard workers' measure
columns and the ``source_model`` snapshot section — shares one
incrementally patched measure state per corpus.  The cases below pin what
that buys: a clean shard read computes no fingerprint, a benchmark
mutation re-crawls only the touched benchmark source, a model read both
ways (its own maximum and an injected one) never renormalises, and the
snapshot section holds the raw state alone, so a restore re-derives the
tail under the restoring model's own registry and scheme.  Every
comparison is bit-exact against fresh models.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import numpy as np
import pytest

import repro.perf.cache as perf_cache
import repro.sources.diffing as diffing
from repro.core.dimensions import QualityDimension
from repro.core.domain import DomainOfInterest
from repro.core.measures import source_measure_registry
from repro.core.scoring import dimension_weighted_scheme
from repro.core.source_quality import AssessmentContext, SourceQualityModel
from repro.persistence import CorpusStore
from repro.persistence.format import (
    SNAPSHOT_MAGIC,
    atomic_write_bytes,
    decode_json,
    json_record,
    pack_sections,
    unpack_sections,
)
from repro.sources.corpus import SourceCorpus
from repro.sources.crawler import Crawler
from repro.sources.generators import (
    CorpusGenerator,
    CorpusSpec,
    SourceGenerator,
    SourceSpec,
)
from repro.sources.models import Discussion, Post, Source

DOMAIN = DomainOfInterest(categories=("travel", "food"), name="measure-state-tests")


def _corpus(count: int = 10, seed: int = 33) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(source_count=count, seed=seed, discussion_budget=8, user_budget=10)
    ).generate()


def _extra_source(source_id: str, popularity: float = 0.7) -> Source:
    return SourceGenerator(
        SourceSpec(
            source_id=source_id,
            focus_categories=("travel", "food"),
            latent_popularity=popularity,
            latent_engagement=0.6,
            discussion_budget=6,
            user_budget=8,
        ),
        seed=53,
    ).generate()


def _grow(source: Source, text: str) -> None:
    """Append one open single-post thread through the mutation helper."""
    tag = f"{source.source_id}-{source.content_revision}"
    discussion = Discussion(
        discussion_id=f"state-grown-{tag}",
        category="travel",
        title=text,
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(post_id=f"state-post-{tag}", author_id="u1", day=2.0, text=text)
    )
    source.add_discussion(discussion)


def _reword(corpus: SourceCorpus, source_id: str, text: str) -> None:
    """A count-preserving edit announced by ``touch``: no maximum moves."""
    post = next(iter(corpus.get(source_id).posts()), None)
    if post is not None:
        post.text = text
    corpus.touch(source_id)


def _mutate(corpus: SourceCorpus, rng: random.Random, step: int) -> None:
    """One random grow / touch / add / remove step (never below 5 sources)."""
    ids = corpus.source_ids()
    op = rng.choice(("grow", "touch", "add", "remove", "grow"))
    if op == "add" or len(ids) <= 5:
        corpus.add(_extra_source(f"state-extra-{step}", popularity=rng.random()))
    elif op == "remove":
        corpus.remove(rng.choice(ids))
    elif op == "touch":
        _reword(corpus, rng.choice(ids), f"reworded travel food {step}")
    else:
        _grow(corpus.get(rng.choice(ids)), f"travel food growth {step}")


def _assert_contexts_identical(live: AssessmentContext, fresh: AssessmentContext) -> None:
    assert live.columns.subject_ids == fresh.columns.subject_ids
    assert live.columns.ranking_ids() == fresh.columns.ranking_ids()
    assert live.scheme_name == fresh.scheme_name
    for name in fresh.columns.measures:
        assert live.columns.raw[name].tobytes() == fresh.columns.raw[name].tobytes()
        assert (
            live.columns.normalized[name].tobytes()
            == fresh.columns.normalized[name].tobytes()
        )
    assert live.columns.overall.tobytes() == fresh.columns.overall.tobytes()
    assert live.raw_vectors == fresh.raw_vectors
    assert live.normalized_vectors == fresh.normalized_vectors
    assert live.max_open_discussions == fresh.max_open_discussions
    for source_id, expected in fresh.assessments.items():
        assert live.assessments[source_id].snapshot == expected.snapshot


def _assert_columns_identical(live, fresh) -> None:
    assert live[:2] == fresh[:2]
    assert set(live[2]) == set(fresh[2])
    for name, column in fresh[2].items():
        assert live[2][name].tobytes() == column.tobytes()


def _shard_columns(model: SourceQualityModel, corpus: SourceCorpus, max_open: int):
    return model.shard_measure_columns(corpus, corpus_max_open_discussions=max_open)


class _CountingCrawler(Crawler):
    """A crawler that records every source it crawls."""

    def __init__(self) -> None:
        self.crawled: list[str] = []

    def crawl_source(self, source):
        self.crawled.append(source.source_id)
        return super().crawl_source(source)


class TestOneMeasureState:
    def test_clean_shard_read_computes_no_fingerprint(self, travel_domain, monkeypatch):
        corpus = _corpus()
        model = SourceQualityModel(travel_domain)
        max_open = corpus.largest_source_open_discussions() + 3
        first = _shard_columns(model, corpus, max_open)

        def boom(*_args, **_kwargs):  # pragma: no cover - must never run
            raise AssertionError("fingerprint computed on a clean shard read")

        monkeypatch.setattr(diffing, "source_fingerprint", boom)
        monkeypatch.setattr(perf_cache, "source_fingerprint", boom)
        monkeypatch.setattr(corpus, "content_fingerprint", boom)
        counters = model.counters.snapshot()
        second = _shard_columns(model, corpus, max_open)
        assert second[0] == first[0]
        assert second[2] is first[2]  # the same published columns, unpatched
        assert model.counters.snapshot() == counters  # not even a probe sweep

    def test_benchmark_growth_recrawls_one_benchmark_source(self, travel_domain):
        corpus = _corpus(8, seed=5)
        benchmark = _corpus(8, seed=6)
        crawler = _CountingCrawler()
        model = SourceQualityModel(travel_domain, crawler=crawler)
        model.assessment_context(corpus, benchmark)
        crawler.crawled.clear()
        grown = benchmark.source_ids()[2]
        _grow(benchmark.get(grown), "travel benchmark growth")
        live = model.assessment_context(corpus, benchmark)
        assert crawler.crawled == [grown]
        fresh = SourceQualityModel(travel_domain).assessment_context(corpus, benchmark)
        _assert_contexts_identical(live, fresh)

    def test_seeded_stream_recrawls_at_most_one_source_per_step(self, travel_domain):
        rng = random.Random(57)
        corpus = _corpus()
        model = SourceQualityModel(travel_domain)
        max_open = corpus.largest_source_open_discussions() + 4
        _shard_columns(model, corpus, max_open)
        for step in range(30):
            _mutate(corpus, rng, step)
            max_open = max(max_open, corpus.largest_source_open_discussions())
            recrawled = model.counters.get("sources_recrawled")
            live = _shard_columns(model, corpus, max_open)
            assert model.counters.get("sources_recrawled") - recrawled <= 1, step
            fresh = _shard_columns(SourceQualityModel(travel_domain), corpus, max_open)
            _assert_columns_identical(live, fresh)
        assert model.counters.get("context_builds") == 1  # every later read patched

    def test_two_maxima_one_model_never_renormalise(self, travel_domain):
        corpus = _corpus(10, seed=71)
        model = SourceQualityModel(travel_domain)
        injected = corpus.largest_source_open_discussions() + 6
        for step in range(8):
            _reword(corpus, corpus.source_ids()[step % len(corpus)], f"travel {step}")
            if step % 2:
                live_context = model.assessment_context(corpus)
                live_columns = _shard_columns(model, corpus, injected)
            else:
                live_columns = _shard_columns(model, corpus, injected)
                live_context = model.assessment_context(corpus)
            _assert_contexts_identical(
                live_context, SourceQualityModel(travel_domain).assessment_context(corpus)
            )
            _assert_columns_identical(
                live_columns,
                _shard_columns(SourceQualityModel(travel_domain), corpus, injected),
            )
        assert model.counters.get("measure_renormalisations") == 0
        assert model.counters.get("context_builds") == 2  # one state per maximum kind

    def test_raw_measures_and_contexts_share_the_state(self, travel_domain):
        corpus = _corpus()
        crawler = _CountingCrawler()
        model = SourceQualityModel(travel_domain, crawler=crawler)
        model.assessment_context(corpus)
        crawler.crawled.clear()
        grown = corpus.source_ids()[1]
        _grow(corpus.get(grown), "travel shared growth")
        raw = model.raw_measures(corpus)  # patches the state the tail reads
        live = model.assessment_context(corpus)
        assert raw == live.raw_vectors
        assert crawler.crawled == [grown]
        assert model.counters.get("context_builds") == 1
        _assert_contexts_identical(
            live, SourceQualityModel(travel_domain).assessment_context(corpus)
        )


def _checkpointed(tmp_path, corpus: SourceCorpus, model: SourceQualityModel):
    store = CorpusStore(tmp_path, fsync=False)
    store.attach(corpus, source_model=model)
    store.checkpoint()
    store.close()
    return store


def _recover(tmp_path):
    with CorpusStore(tmp_path, fsync=False) as store:
        return store.recover_stack(domain=DOMAIN, attach=False)


def _count_crawls(monkeypatch) -> list[str]:
    crawled: list[str] = []
    crawl_source = Crawler.crawl_source

    def counting(self, source):
        crawled.append(source.source_id)
        return crawl_source(self, source)

    monkeypatch.setattr(Crawler, "crawl_source", counting)
    return crawled


class TestSourceModelSection:
    def test_section_holds_the_raw_state_only(self):
        corpus = _corpus(6, seed=43)
        section = SourceQualityModel(DOMAIN).export_assessment_state(corpus)
        assert set(section) == {
            "order",
            "measures",
            "snapshots",
            "raw_columns",
            "post_totals",
            "max_open_discussions",
        }

    def test_older_section_restores_without_crawl_or_note(self, tmp_path, monkeypatch):
        corpus = _corpus(8, seed=41)
        model = SourceQualityModel(DOMAIN)
        store = _checkpointed(tmp_path, corpus, model)
        # Rewrite the section as an older writer left it: the normalised
        # and score columns, the ranking and the scheme name beside the
        # raw state.
        context = model.assessment_context(corpus)
        columns = context.columns
        raw = unpack_sections(store.snapshot_path.read_bytes(), SNAPSHOT_MAGIC)
        section = decode_json(raw["source_model"])
        section.update(
            ranking=list(columns.ranking_ids()),
            normalized_columns={
                name: columns.normalized[name].tolist() for name in columns.measures
            },
            overall=columns.overall.tolist(),
            dimension_scores={
                key.value: values.tolist()
                for key, values in columns.dimension_scores.items()
            },
            attribute_scores={
                key.value: values.tolist()
                for key, values in columns.attribute_scores.items()
            },
            scheme_name=context.scheme_name,
        )
        raw["source_model"] = json_record(section)
        atomic_write_bytes(store.snapshot_path, pack_sections(SNAPSHOT_MAGIC, raw))

        crawled = _count_crawls(monkeypatch)
        stack = _recover(tmp_path)
        warm = stack.source_model.assessment_context(stack.corpus)
        assert crawled == []
        assert not any("source model" in note for note in stack.result.notes)
        _assert_contexts_identical(
            warm, SourceQualityModel(DOMAIN).assessment_context(stack.corpus)
        )

    def test_section_of_another_registry_is_refused_with_a_note(self, tmp_path):
        corpus = _corpus(8, seed=41)
        _checkpointed(
            tmp_path, corpus, SourceQualityModel(DOMAIN, domain_independent_only=True)
        )
        stack = _recover(tmp_path)
        assert any("source model section unusable" in note for note in stack.result.notes)
        model = stack.source_model
        _assert_contexts_identical(
            model.assessment_context(stack.corpus),
            SourceQualityModel(DOMAIN).assessment_context(stack.corpus),
        )
        # Later patches stay exact too.
        _grow(stack.corpus.sources()[2], "travel growth after recovery")
        _assert_contexts_identical(
            model.assessment_context(stack.corpus),
            SourceQualityModel(DOMAIN).assessment_context(stack.corpus),
        )

    def test_weighted_scheme_section_recovers_under_the_model_scheme(self, tmp_path):
        corpus = _corpus(8, seed=41)
        scheme = dimension_weighted_scheme(
            source_measure_registry(), {QualityDimension.AUTHORITY: 1.0}
        )
        weighted = SourceQualityModel(DOMAIN, scheme=scheme)
        _checkpointed(tmp_path, corpus, weighted)
        stack = _recover(tmp_path)
        assert not any("source model" in note for note in stack.result.notes)
        warm = stack.source_model.assessment_context(stack.corpus)
        cold = SourceQualityModel(DOMAIN).assessment_context(stack.corpus)
        assert not np.array_equal(
            weighted.assessment_context(corpus).columns.overall, cold.columns.overall
        )
        _assert_contexts_identical(warm, cold)


@pytest.mark.stress
class TestMeasureStateStress:
    def test_every_surface_converges_under_mutation(self, travel_domain):
        """Readers of the three measure-state surfaces against a mutator:
        no exceptions, and bit-identity with fresh models at quiesce."""
        corpus = _corpus(12, seed=131)
        model = SourceQualityModel(travel_domain)
        injected = corpus.largest_source_open_discussions() + 9
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(read) -> None:
            try:
                while not stop.is_set():
                    read()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def mutator() -> None:
            try:
                rng = random.Random(19)
                for step in range(60):
                    _mutate(corpus, rng, step)
                    time.sleep(0.002)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        reads = (
            lambda: model.assessment_context(corpus),
            lambda: model.raw_measures(corpus),
            lambda: _shard_columns(model, corpus, injected),
        )
        threads = [threading.Thread(target=reader, args=(read,)) for read in reads]
        threads.append(threading.Thread(target=mutator))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: widen the races
        try:
            for thread in threads:
                thread.start()
            threads[-1].join(timeout=60.0)  # the mutation stream finishes first
            stop.set()
            for thread in threads[:-1]:
                thread.join(timeout=60.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

        fresh = SourceQualityModel(travel_domain)
        _assert_contexts_identical(
            model.assessment_context(corpus), fresh.assessment_context(corpus)
        )
        assert model.raw_measures(corpus) == fresh.raw_measures(corpus)
        _assert_columns_identical(
            _shard_columns(model, corpus, injected),
            _shard_columns(SourceQualityModel(travel_domain), corpus, injected),
        )
