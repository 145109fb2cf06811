#!/usr/bin/env python
"""Perf benchmark harness: batched assessment + indexed search vs naive baselines.

Times four workloads and writes the trajectory to ``BENCH_perf.json``
in the repository root.  The search/rank/sentiment sections run at the
same 240-source / 60-query spec the table benchmarks use; the assessment
section runs at the 10k-source tier the columnar core targets:

* **corpus_assessment** — the assessment core (normaliser fit →
  normalisation → scoring → ranking) over a seeded 10 000-source corpus's
  measured matrix: the columnar float64 kernels
  (:mod:`repro.core.columnar`) versus the per-value reference arithmetic
  (``fit_scalar``/``normalize_many``/``build_quality_scores`` in
  ``tests/_reference.py``).  Both sides share one precomputed raw-measure
  matrix, so the comparison isolates exactly the math the columnar
  refactor vectorised — crawling and measuring are identical Python in
  both and would only dilute it;
* **repeated_rank** — N ``rank()`` calls over an unchanged corpus: the
  fingerprint-keyed context cache versus full recomputation per call;
* **search_throughput** — the full query workload through the inverted-
  index hot path versus the reference full scan (``search_fullscan`` in
  ``tests/_reference.py``), in queries/second;
* **sentiment_aggregation** — repeated sentiment indicators over the Milan
  corpus with and without the analyser's per-text memo.

Every section first asserts that the optimised path returns exactly the
same rankings as its baseline, so a regression can never produce a
"speedup" by computing the wrong thing.  Run with ``make perf`` or::

    PYTHONPATH=src python benchmarks/bench_perf_pipeline.py

The harness exits non-zero if ``BENCH_perf.json`` cannot be written.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path

from _harness import harness_parser
from repro.core.columnar import (
    columns_from_vectors,
    ensure_finite_columns,
    rank_order,
)
from repro.core.domain import DomainOfInterest, TimeInterval
from repro.core.scoring import build_quality_score_columns
from repro.core.source_quality import SourceQualityModel
from repro.datasets.google_study import GoogleStudySpec, build_google_study
from repro.datasets.milan_tourism import MilanTourismSpec, build_milan_tourism
from repro.perf.buildinfo import git_build_stamp
from repro.perf.timers import time_call
from repro.persistence.format import atomic_write_json
from repro.sentiment.analyzer import SentimentAnalyzer
from repro.sentiment.indicators import SentimentIndicatorService
from repro.sources.generators import CorpusGenerator, CorpusSpec

# The naive baselines are the test suite's oracles (one copy, test-side).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _reference import (  # noqa: E402
    build_quality_scores,
    fit_scalar,
    naive_rank,
    normalize_many,
    reference_values,
    search_fullscan,
)

#: Mirrors BENCH_STUDY_SPEC in benchmarks/conftest.py (kept in sync by hand:
#: this script must run without pytest).
BENCH_STUDY_SPEC = GoogleStudySpec(source_count=240, query_count=60)

#: The 10k-source tier the columnar assessment core targets (seeded, so the
#: measured matrix — and therefore the timed work — is reproducible).
ASSESSMENT_TIER = CorpusSpec(
    source_count=10_000, seed=31, discussion_budget=4, user_budget=6
)

#: Speedup targets recorded in the JSON so future PRs see the goalposts.
TARGET_ASSESSMENT_SPEEDUP = 10.0
TARGET_REPEATED_RANK_SPEEDUP = 5.0
TARGET_SEARCH_SPEEDUP = 3.0


def _speedup(baseline_seconds: float, optimized_seconds: float) -> float:
    if optimized_seconds <= 0:
        return float("inf")
    return baseline_seconds / optimized_seconds


def _fresh_model(dataset) -> SourceQualityModel:
    """A quality model wired to the dataset's panels (like the E3 experiment)."""
    return SourceQualityModel(
        dataset.domain, alexa=dataset.alexa, feedburner=dataset.feedburner
    )


def bench_corpus_assessment(source_count: int, repetitions: int = 3) -> dict:
    """Columnar assessment kernels vs the per-value reference at 10k tier.

    One seeded corpus is measured once (through the model's ordinary
    batched pass) and the resulting raw-measure matrix is shared by both
    sides; each timed call then runs the complete assessment core — fit,
    normalise, score, rank — from that matrix.  Bit-identity of the
    ranking order and of every overall score is asserted before the
    timing counts (exact float equality, no tolerance).
    """
    spec = CorpusSpec(
        source_count=source_count,
        seed=ASSESSMENT_TIER.seed,
        discussion_budget=ASSESSMENT_TIER.discussion_budget,
        user_budget=ASSESSMENT_TIER.user_budget,
    )
    corpus = CorpusGenerator(spec).generate()
    domain = DomainOfInterest(
        categories=("travel", "food"),
        time_interval=TimeInterval(0.0, 365.0),
        name="bench-assessment-tier",
    )
    raw_vectors = SourceQualityModel(domain).assessment_context(corpus).raw_vectors

    scalar_model = SourceQualityModel(domain)

    def run_scalar():
        normalizer = fit_scalar(
            scalar_model._normalizer, reference_values(raw_vectors.values())
        )
        normalized = normalize_many(normalizer, raw_vectors)
        scores = build_quality_scores(
            raw_vectors,
            normalized,
            registry=scalar_model.registry,
            scheme=scalar_model.scheme,
        )
        ranking = sorted(
            scores.values(), key=lambda score: (-score.overall, score.subject_id)
        )
        return [score.subject_id for score in ranking], scores

    columnar_model = SourceQualityModel(domain)

    def run_columnar():
        normalizer = columnar_model._normalizer
        names, _ = columnar_model.registry.column_layout()
        subject_ids, measures, raw_columns = columns_from_vectors(raw_vectors, names)
        ensure_finite_columns(raw_columns)
        normalizer.fit_columns(raw_columns)
        normalized = normalizer.normalize_columns(raw_columns)
        overall, _dims, _attrs = build_quality_score_columns(
            subject_ids, measures, normalized, columnar_model.registry,
            columnar_model.scheme,
        )
        return list(rank_order(overall, subject_ids)), dict(
            zip(subject_ids, overall.tolist())
        )

    scalar = time_call(run_scalar, repetitions=repetitions, label="scalar_core")
    columnar = time_call(run_columnar, repetitions=repetitions, label="columnar_core")

    scalar_order, scalar_scores = scalar.last_result
    columnar_order, columnar_overall = columnar.last_result
    _assert_same_ranking(scalar_order, columnar_order, "corpus_assessment")
    for subject_id, overall in columnar_overall.items():
        if scalar_scores[subject_id].overall != overall:
            raise AssertionError(
                f"corpus_assessment: overall diverged for {subject_id!r}"
            )
    return {
        "baseline_seconds": scalar.total_seconds,
        "optimized_seconds": columnar.total_seconds,
        "repetitions": repetitions,
        "speedup": _speedup(scalar.total_seconds, columnar.total_seconds),
        "target_speedup": TARGET_ASSESSMENT_SPEEDUP,
        "sources": len(corpus),
    }


def bench_repeated_rank(dataset, repetitions: int) -> dict:
    """N rank() calls over an unchanged corpus: context cache vs recompute."""
    naive_model = _fresh_model(dataset)
    cached_model = _fresh_model(dataset)

    naive = time_call(
        lambda: naive_rank(naive_model, dataset.corpus),
        repetitions=repetitions,
        label="naive_rank",
    )
    cached = time_call(
        lambda: cached_model.rank(dataset.corpus),
        repetitions=repetitions,
        label="cached_rank",
    )
    _assert_same_ranking(
        [a.source_id for a in naive.last_result],
        [a.source_id for a in cached.last_result],
        "repeated_rank",
    )
    return {
        "repetitions": repetitions,
        "baseline_seconds": naive.total_seconds,
        "optimized_seconds": cached.total_seconds,
        "optimized_first_call_seconds": cached.per_call_seconds[0],
        "optimized_cached_call_seconds": (
            min(cached.per_call_seconds[1:]) if repetitions > 1 else None
        ),
        "speedup": _speedup(naive.total_seconds, cached.total_seconds),
        "target_speedup": TARGET_REPEATED_RANK_SPEEDUP,
        "context_cache_hits": cached_model.counters.get("context_hits"),
    }


def bench_search_throughput(dataset, rounds: int) -> dict:
    """The 60-query workload: inverted-index hot path vs full scan."""
    engine = dataset.engine
    queries = [query.text for query in dataset.workload]
    limit = dataset.spec.results_per_query

    for text in queries:  # equivalence guard before timing
        _assert_same_ranking(
            [r.source_id for r in search_fullscan(engine, text, limit)],
            [r.source_id for r in engine.search(text, limit)],
            f"search({text!r})",
        )

    def run_fullscan():
        for text in queries:
            search_fullscan(engine, text, limit)

    def run_indexed():
        for text in queries:
            engine.search(text, limit)

    engine.invalidate_caches()
    fullscan = time_call(run_fullscan, repetitions=rounds, label="search_fullscan")
    engine.invalidate_caches()
    # First indexed round runs cold (postings-driven scoring); later rounds
    # hit the result cache, as repeated queries do in a real workload.
    indexed = time_call(run_indexed, repetitions=rounds, label="search_indexed")
    total_queries = len(queries) * rounds
    cold_round_seconds = indexed.per_call_seconds[0]
    return {
        "queries": len(queries),
        "rounds": rounds,
        "baseline_seconds": fullscan.total_seconds,
        "optimized_seconds": indexed.total_seconds,
        "baseline_qps": total_queries / fullscan.total_seconds,
        "optimized_qps": total_queries / indexed.total_seconds,
        "speedup": _speedup(fullscan.total_seconds, indexed.total_seconds),
        "cold_round_seconds": cold_round_seconds,
        "cold_round_speedup": _speedup(
            fullscan.total_seconds / rounds, cold_round_seconds
        ),
        "target_speedup": TARGET_SEARCH_SPEEDUP,
        "candidates_scored": engine.counters.get("candidates_scored"),
        "result_cache_hits": engine.counters.get("result_cache_hits"),
    }


def bench_sentiment(repetitions: int) -> dict:
    """Repeated sentiment indicators over the Milan corpus, memo on vs off."""
    dataset = build_milan_tourism(MilanTourismSpec())
    domain = DomainOfInterest(categories=dataset.spec.categories, name="milan")

    uncached_service = SentimentIndicatorService(
        analyzer=SentimentAnalyzer(cache_size=0), domain=domain
    )
    cached_service = SentimentIndicatorService(
        analyzer=SentimentAnalyzer(), domain=domain
    )

    uncached = time_call(
        lambda: uncached_service.indicator(dataset.corpus),
        repetitions=repetitions,
        label="sentiment_uncached",
    )
    cached = time_call(
        lambda: cached_service.indicator(dataset.corpus),
        repetitions=repetitions,
        label="sentiment_cached",
    )
    if abs(uncached.last_result.overall_polarity - cached.last_result.overall_polarity) > 1e-12:
        raise AssertionError("sentiment memo changed the overall indicator")
    return {
        "repetitions": repetitions,
        "baseline_seconds": uncached.total_seconds,
        "optimized_seconds": cached.total_seconds,
        "speedup": _speedup(uncached.total_seconds, cached.total_seconds),
        "cache_stats": cached_service.analyzer.cache_stats,
    }


def _assert_same_ranking(expected: list, actual: list, label: str) -> None:
    if expected != actual:
        raise AssertionError(
            f"{label}: optimised path diverged from the baseline ranking"
        )


def run(
    output_path: Path,
    rank_repetitions: int,
    search_rounds: int,
    assessment_sources: int,
) -> dict:
    """Run every section and return the report dictionary."""
    print(f"building bench dataset ({BENCH_STUDY_SPEC.source_count} sources, "
          f"{BENCH_STUDY_SPEC.query_count} queries)...", flush=True)
    dataset = build_google_study(BENCH_STUDY_SPEC)

    report = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            **git_build_stamp(),
            "spec": {
                "source_count": BENCH_STUDY_SPEC.source_count,
                "query_count": BENCH_STUDY_SPEC.query_count,
                "results_per_query": BENCH_STUDY_SPEC.results_per_query,
            },
            "assessment_tier": {
                "source_count": assessment_sources,
                "seed": ASSESSMENT_TIER.seed,
                "discussion_budget": ASSESSMENT_TIER.discussion_budget,
                "user_budget": ASSESSMENT_TIER.user_budget,
            },
        }
    }
    print(
        f"timing corpus assessment ({assessment_sources} sources)...", flush=True
    )
    report["corpus_assessment"] = bench_corpus_assessment(assessment_sources)
    print("timing repeated rank...", flush=True)
    report["repeated_rank"] = bench_repeated_rank(dataset, rank_repetitions)
    print("timing search throughput...", flush=True)
    report["search_throughput"] = bench_search_throughput(dataset, search_rounds)
    print("timing sentiment aggregation...", flush=True)
    report["sentiment_aggregation"] = bench_sentiment(repetitions=3)

    try:
        atomic_write_json(output_path, report)
    except OSError as exc:
        print(f"FATAL: could not write {output_path}: {exc}", file=sys.stderr)
        sys.exit(1)
    return report


def summarise(report: dict) -> None:
    """Print the per-section speedups and target status."""
    for section in (
        "corpus_assessment",
        "repeated_rank",
        "search_throughput",
        "sentiment_aggregation",
    ):
        entry = report[section]
        target = entry.get("target_speedup")
        status = ""
        if target is not None:
            status = "  [ok]" if entry["speedup"] >= target else f"  [BELOW {target}x TARGET]"
        print(
            f"{section:24s} baseline {entry['baseline_seconds']:8.3f}s  "
            f"optimized {entry['optimized_seconds']:8.3f}s  "
            f"speedup {entry['speedup']:7.1f}x{status}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = harness_parser(__doc__)
    parser.add_argument(
        "--rank-repetitions", type=int, default=5,
        help="rank() calls per side in the repeated-rank section (default: 5)",
    )
    parser.add_argument(
        "--search-rounds", type=int, default=3,
        help="passes over the query workload per side (default: 3)",
    )
    parser.add_argument(
        "--assessment-sources", type=int, default=ASSESSMENT_TIER.source_count,
        help="corpus size of the assessment-core tier "
             f"(default: {ASSESSMENT_TIER.source_count})",
    )
    args = parser.parse_args(argv)

    report = run(
        args.output, args.rank_repetitions, args.search_rounds,
        args.assessment_sources,
    )
    summarise(report)
    print(f"wrote {args.output}")

    if args.strict:
        missed = [
            section
            for section in ("corpus_assessment", "repeated_rank", "search_throughput")
            if report[section]["speedup"] < report[section]["target_speedup"]
        ]
        if missed:
            print(f"FATAL: speedup targets missed: {', '.join(missed)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
