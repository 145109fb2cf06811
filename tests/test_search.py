"""Tests for the simulated search engine and the query workload."""

from __future__ import annotations

import pytest

from _reference import reference_topical_score, search_fullscan
from repro.errors import ConfigurationError, SearchError, UnsearchableQueryError
from repro.search.engine import (
    SearchEngine,
    SearchEngineConfig,
    _query_noise,
    ranked_results,
    tokenize,
)
from repro.search.queries import QueryWorkload, QueryWorkloadSpec
from repro.sharding import partition_shard
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusGenerator, CorpusSpec
from repro.sources.models import Source
from repro.sources.webstats import AlexaLikeService, PanelObservation, WebStatsPanel
from test_mutation_safety import _hand_built_corpus


@pytest.fixture(scope="module")
def engine(small_corpus):
    return SearchEngine(small_corpus)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World-Wide 42x") == ["hello", "world-wide", "42x"]

    def test_drops_single_characters(self):
        assert tokenize("a b cd") == ["cd"]


class TestQueryNoise:
    """Pins the blake2b-based noise values so rankings stay reproducible.

    The noise function moved from SHA-256 to salted ``blake2b`` with an
    8-byte digest; these constants were computed at the switch and must
    never change (without bumping the salt version deliberately), or every
    simulated search ranking silently shifts.
    """

    PINNED = {
        ("travel flight", "site-001"): 0.8086660936502043,
        ("food recipe dinner", "site-042"): 0.058279568878980094,
        ("museum milan", "blog-7"): 0.7063097360846955,
    }

    def test_pinned_noise_values(self):
        for (query_key, source_id), expected in self.PINNED.items():
            assert _query_noise(query_key, source_id) == pytest.approx(
                expected, abs=1e-15
            )

    def test_noise_in_unit_interval_and_deterministic(self):
        values = [_query_noise("query", f"site-{i}") for i in range(50)]
        assert all(0.0 <= value <= 1.0 for value in values)
        assert values == [_query_noise("query", f"site-{i}") for i in range(50)]
        # Distinct inputs should not collide on a healthy hash.
        assert len(set(values)) == len(values)


class TestSearchEngineConfig:
    def test_negative_weight_rejected(self):
        with pytest.raises(SearchError):
            SearchEngineConfig(static_weight=-1.0).validate()

    def test_all_zero_primary_weights_rejected(self):
        with pytest.raises(SearchError):
            SearchEngineConfig(static_weight=0.0, topical_weight=0.0).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name",
        [
            "static_weight",
            "topical_weight",
            "query_noise_weight",
            "traffic_coefficient",
            "inbound_link_coefficient",
        ],
    )
    def test_non_finite_weights_rejected(self, name, bad):
        """Regression: ``NaN < 0`` is False, so NaN used to pass validation
        and silently poison every combined score."""
        with pytest.raises(SearchError, match=name):
            SearchEngineConfig(**{name: bad}).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_minimum_topical_score_rejected(self, bad):
        with pytest.raises(SearchError, match="minimum_topical_score"):
            SearchEngineConfig(minimum_topical_score=bad).validate()

    def test_negative_minimum_topical_score_still_allowed(self):
        SearchEngineConfig(minimum_topical_score=-1.0).validate()


class TestSearchEngine:
    def test_empty_corpus_rejected(self):
        with pytest.raises(SearchError):
            SearchEngine(SourceCorpus())

    def test_search_returns_ranked_results(self, engine):
        results = engine.search("travel flight resort", limit=5)
        assert len(results) <= 5
        assert [result.rank for result in results] == list(range(1, len(results) + 1))
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)

    def test_search_is_deterministic(self, engine):
        first = engine.result_ids("food recipe dinner", limit=10)
        second = engine.result_ids("food recipe dinner", limit=10)
        assert first == second

    def test_invalid_queries_rejected(self, engine):
        with pytest.raises(SearchError):
            engine.search("")
        with pytest.raises(SearchError):
            engine.search("!!!")
        with pytest.raises(SearchError):
            engine.search("travel", limit=0)

    def test_single_character_query_raises_typed_error(self, engine):
        """A 1-char query is dropped by the tokeniser; the error must say so
        instead of the misleading generic "no searchable terms"."""
        with pytest.raises(UnsearchableQueryError) as excinfo:
            engine.search("x")
        assert excinfo.value.dropped_tokens == ["x"]
        assert "at least two characters" in str(excinfo.value)
        with pytest.raises(UnsearchableQueryError) as excinfo:
            engine.search("a b c")
        assert excinfo.value.dropped_tokens == ["a", "b", "c"]

    def test_single_character_query_raises_in_result_ids_and_fullscan(self, engine):
        with pytest.raises(UnsearchableQueryError):
            engine.result_ids("x")
        with pytest.raises(UnsearchableQueryError):
            search_fullscan(engine, "x")

    def test_queries_without_alphanumeric_content_keep_generic_error(self, engine):
        with pytest.raises(SearchError) as excinfo:
            engine.search("!!! ??")
        assert not isinstance(excinfo.value, UnsearchableQueryError)

    def test_mixed_query_with_droppable_token_still_searches(self, engine):
        """Only *entirely* dropped queries fail; "x travel" keeps "travel"."""
        assert engine.result_ids("x travel", 5) == engine.result_ids("travel", 5)

    def test_topical_score_unknown_source_rejected(self, engine):
        with pytest.raises(SearchError):
            engine.topical_score("ghost", ["travel"])

    def test_static_rank_orders_by_popularity(self, small_corpus):
        engine = SearchEngine(small_corpus)
        static = engine.static_rank()
        assert set(static) == set(small_corpus.source_ids())
        popularity = {s.source_id: s.latent_popularity for s in small_corpus}
        # Popularity ordering should be respected at the extremes (noise aside).
        top, bottom = static[0], static[-1]
        assert popularity[top] >= popularity[bottom]

    def test_static_rank_matches_cached_static_scores(self, small_corpus):
        """static_rank() must equal the ordering implied by the static scores."""
        engine = SearchEngine(small_corpus)
        expected = [
            source_id
            for source_id, _ in sorted(
                (
                    (source_id, engine.static_score(source_id))
                    for source_id in small_corpus.source_ids()
                ),
                key=lambda item: (-item[1], item[0]),
            )
        ]
        assert engine.static_rank() == expected
        # The ordering is precomputed at index build; repeated calls return
        # equal, independent copies.
        first = engine.static_rank()
        second = engine.static_rank()
        assert first == second and first is not second

    def test_static_score_unknown_source_rejected(self, engine):
        with pytest.raises(SearchError):
            engine.static_score("ghost")

    def test_static_weight_dominance_changes_ordering(self, small_corpus):
        popular_first = SearchEngine(
            small_corpus,
            config=SearchEngineConfig(
                static_weight=1.0, topical_weight=0.0, query_noise_weight=0.0
            ),
        )
        topical_first = SearchEngine(
            small_corpus,
            config=SearchEngineConfig(
                static_weight=0.0, topical_weight=1.0, query_noise_weight=0.0
            ),
        )
        query = "travel flight resort beach"
        assert popular_first.result_ids(query, 10) != topical_first.result_ids(query, 10) or (
            len(popular_first.result_ids(query, 10)) <= 1
        )


class TestNegativeTopicalThreshold:
    """A negative ``minimum_topical_score`` admits sources matching no term."""

    QUERY = "alpha beta"

    def _assert_matches_oracle(self, engine):
        for limit in (1, 2, 10):
            assert engine.search(self.QUERY, limit) == search_fullscan(
                engine, self.QUERY, limit
            )  # exact: ids, ranks and every score

    def test_indexed_search_matches_full_scan(self):
        corpus = _hand_built_corpus()  # disjoint vocabularies
        engine = SearchEngine(
            corpus,
            panel=AlexaLikeService(),
            config=SearchEngineConfig(minimum_topical_score=-1.0),
        )
        self._assert_matches_oracle(engine)
        # Sources matching neither term are ranked too, at topical 0.0.
        results = engine.search(self.QUERY, 10)
        assert {r.source_id for r in results} == set(corpus.source_ids())
        assert {r.topical_score for r in results if r.source_id != "src-alpha"} == {0.0}

        # Mutate a source containing none of the query terms: its static
        # score moves while the corpus size and static maxima stay put —
        # exactly the change a term-scoped memo eviction would miss.
        before = engine.static_score("src-eta")
        corpus.get("src-eta").latent_popularity = 0.3
        corpus.touch("src-eta")
        assert engine.static_score("src-eta") != before
        self._assert_matches_oracle(engine)


class _UnitPanel(WebStatsPanel):
    """Every source reads one visitor and one inbound link: the maxima an
    empty index starts from, so a build sees no maximum move."""

    def _measure(self, source: Source) -> PanelObservation:
        return PanelObservation(source.source_id, 1, 1.0, 1.0, 60.0, 0.5, 1, 0)


class TestOneSearchPath:
    """Single-process search is the one-shard case of the sharded phases."""

    QUERIES = QueryWorkload(QueryWorkloadSpec(query_count=6, seed=5)).texts()

    @pytest.fixture(scope="class")
    def corpus(self):
        return CorpusGenerator(
            CorpusSpec(source_count=12, seed=8, discussion_budget=6, user_budget=6)
        ).generate()

    @staticmethod
    def _shard_engines(corpus, config):
        return [
            SearchEngine(
                SourceCorpus(
                    Source.from_dict(source.to_dict())
                    for source in corpus
                    if partition_shard(source.source_id, 2) == index
                ),
                panel=AlexaLikeService(),
                config=config,
            )
            for index in range(2)
        ]

    @staticmethod
    def _sharded_search(engines, query, limit, query_id):
        """The coordinator's three phases, run by hand in process."""
        terms = tuple(tokenize(query))
        stats = [engine.shard_term_stats(terms) for engine in engines]
        scored = [
            engine.shard_score(
                query_id,
                terms,
                n_documents=sum(s["n_documents"] for s in stats),
                document_frequencies={
                    term: sum(s["document_frequencies"][term] for s in stats)
                    for term in set(terms)
                },
                max_visitors=max(s["max_visitors"] for s in stats),
                max_links=max(s["max_links"] for s in stats),
            )
            for engine in engines
        ]
        max_topical = max(s["max_raw"] for s in scored)
        entries = [
            entry
            for engine in engines
            for entry in engine.shard_select(
                query_id, max_topical=max_topical, limit=limit
            )
        ]
        entries.sort(key=lambda entry: (-entry[0], entry[1]))
        return ranked_results(entries[:limit])

    @pytest.mark.parametrize("minimum_topical_score", [0.0, 0.005])
    def test_hand_run_shard_phases_equal_single_process_search(
        self, corpus, minimum_topical_score
    ):
        config = SearchEngineConfig(minimum_topical_score=minimum_topical_score)
        single = SearchEngine(corpus, panel=AlexaLikeService(), config=config)
        engines = self._shard_engines(corpus, config)
        # One shard holds both global maxima and the other neither, so the
        # shards take both static branches of the scoring kernel: the
        # index's own static scores, and scores recomputed from the
        # observations against the coordinator's maxima.
        maxima = [(e._state.max_visitors, e._state.max_links) for e in engines]
        own = (single._state.max_visitors, single._state.max_links)
        assert own in maxima
        other = maxima[1 - maxima.index(own)]
        assert other[0] != own[0] and other[1] != own[1]
        query_id = 0
        dropped = 0
        for query in self.QUERIES:
            for limit in (1, 3, 20):
                query_id += 1
                expected = single.search(query, limit)
                assert self._sharded_search(engines, query, limit, query_id) == expected
                assert expected == search_fullscan(single, query, limit)
            matched = sum(
                reference_topical_score(single._state, source_id, tokenize(query)) > 0
                for source_id in corpus.source_ids()
            )
            dropped += matched - len(expected)  # limit 20 admits every candidate
        assert (dropped > 0) == (minimum_topical_score > 0)

    @pytest.mark.parametrize("panel", [AlexaLikeService, _UnitPanel])
    def test_a_first_build_counts_only_its_fragment_groups(self, corpus, panel):
        engine = SearchEngine(corpus, panel=panel())
        groups = sum(1 + len(source.discussions) for source in corpus)
        # No refresh, renormalisation or per-source static-order patch.
        assert engine.counters.snapshot() == {"fragment_groups_tokenised": groups}
        assert engine.static_rank() == sorted(
            corpus.source_ids(), key=lambda sid: (-engine.static_score(sid), sid)
        )

    def test_topical_score_equals_the_oracle_bit_for_bit(self, corpus):
        engine = SearchEngine(corpus, panel=AlexaLikeService())
        state = engine._state
        for query in (*self.QUERIES, "travel travel cruise", "zzz-unmatched travel"):
            terms = tokenize(query)
            for source_id in corpus.source_ids():
                assert engine.topical_score(source_id, terms) == reference_topical_score(
                    state, source_id, terms
                )


class TestQueryWorkload:
    def test_generates_requested_number_of_queries(self):
        workload = QueryWorkload(QueryWorkloadSpec(query_count=25, seed=3))
        assert len(workload) == 25
        assert len(workload.texts()) == 25

    def test_workload_is_deterministic(self):
        first = QueryWorkload(QueryWorkloadSpec(query_count=10, seed=3)).texts()
        second = QueryWorkload(QueryWorkloadSpec(query_count=10, seed=3)).texts()
        assert first == second

    def test_queries_are_anchored_in_their_category(self):
        workload = QueryWorkload(QueryWorkloadSpec(query_count=10, seed=4))
        for query in workload:
            assert query.category.replace("_", " ") in query.text

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryWorkloadSpec(query_count=0).validate()
        with pytest.raises(ConfigurationError):
            QueryWorkloadSpec(terms_per_query=(3, 1)).validate()
        with pytest.raises(ConfigurationError):
            QueryWorkloadSpec(categories=()).validate()
        with pytest.raises(ConfigurationError):
            QueryWorkloadSpec(results_per_query=0).validate()
