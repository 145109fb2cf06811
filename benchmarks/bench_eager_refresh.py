#!/usr/bin/env python
"""Post-mutation first-read latency: eager (coalescing) vs lazy refresh.

Builds a large corpus (1000 sources by default) served by a
:class:`~repro.search.engine.SearchEngine` and a
:class:`~repro.core.source_quality.SourceQualityModel`, then drives a
stream of mutation *bursts* (several add/remove/grow/touch events per
burst) against two identical deployments:

* **lazy** — the PR 1–3 stack on its own: consumers refresh on read, so
  the first read after a burst absorbs the whole incremental patch;
* **eager** — the same consumers registered with an
  :class:`~repro.serving.EagerRefreshScheduler` in coalescing mode: the
  burst coalesces into one background patch per consumer
  (``flush()`` stands in for the background worker's wake-up, keeping the
  measurement deterministic), and the first read then finds a clean
  dirty flag and serves in O(1).

Per burst the harness measures the *first-read latency* — one
``model.assessment_context`` plus one ``engine.search`` — on each
deployment.  Before timing counts, every burst asserts the eager
deployment is **bit-identical** to the lazy one (rankings, overall
scores, raw/normalised matrices, search results) and, on the final
state, to from-scratch rebuilds; the coalescing guarantee (one patch per
consumer per burst) is counter-asserted too.  The eager patch cost is
recorded honestly alongside — eager mode moves work off the read path,
it does not delete it.

Results are merged into ``BENCH_perf.json`` under the ``eager_refresh``
key.  Run with ``make perf`` or::

    PYTHONPATH=src python benchmarks/bench_eager_refresh.py

``--strict`` exits non-zero when the ≥5x first-read speedup target is
missed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from _harness import merge_report_section
from repro.core.domain import DomainOfInterest, TimeInterval
from repro.core.source_quality import SourceQualityModel
from repro.search.engine import SearchEngine
from repro.serving import EagerRefreshScheduler, RefreshMode
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusGenerator, CorpusSpec
from repro.sources.models import Discussion, Post
from repro.sources.webstats import AlexaLikeService

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: First-read latency target recorded in the JSON so future PRs see the
#: goalposts: eager mode must serve the first post-burst read ≥5x faster.
TARGET_FIRST_READ_SPEEDUP = 5.0

FIRST_READ_QUERY = "travel flight resort"


def _domain() -> DomainOfInterest:
    return DomainOfInterest(
        categories=("travel", "food"),
        time_interval=TimeInterval(0.0, 365.0),
        locations=("Milan",),
        name="bench-eager-refresh",
    )


def _build_dataset(source_count: int, spare_count: int) -> tuple[SourceCorpus, list]:
    """Generate ``source_count`` sources plus a held-back add stream."""
    corpus = CorpusGenerator(
        CorpusSpec(
            source_count=source_count + spare_count,
            seed=29,
            discussion_budget=10,
            user_budget=10,
        )
    ).generate()
    spare_ids = corpus.source_ids()[source_count:]
    spares = [corpus.remove(source_id) for source_id in spare_ids]
    return corpus, spares


def _grow(source, tag: str) -> None:
    discussion = Discussion(
        discussion_id=f"eager-stream-{tag}",
        category="travel",
        title="travel flight resort late breaking",
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"eager-stream-post-{tag}",
            author_id="u1",
            day=2.0,
            text="travel flight resort beach hotel",
        )
    )
    source.add_discussion(discussion)


def _mutate(corpus: SourceCorpus, spares: list, event: int) -> str:
    """Apply one streaming mutation; rotate through the four mutation kinds.

    Applied identically to the lazy and the eager corpus (same seed, same
    event sequence), so the two deployments always hold the same content.
    """
    kind = event % 4
    if kind == 0 and spares:
        corpus.add(spares.pop())
        return "add"
    if kind == 1:
        corpus.remove(corpus.source_ids()[event % len(corpus)])
        return "remove"
    if kind == 2:
        _grow(corpus.sources()[event % len(corpus)], str(event))
        return "grow"
    source = corpus.sources()[event % len(corpus)]
    post = next(iter(source.posts()), None)
    if post is not None:
        post.text = f"reworded travel content {event}"
    corpus.touch(source.source_id)
    return "touch"


def _first_read(model: SourceQualityModel, corpus: SourceCorpus, engine: SearchEngine):
    """The latency-critical serving read: one ranking plus one query."""
    context = model.assessment_context(corpus)
    results = engine.search(FIRST_READ_QUERY, 20)
    return context, results


def _assert_bit_identical(eager, lazy, label: str) -> None:
    eager_context, eager_results = eager
    lazy_context, lazy_results = lazy
    if [a.source_id for a in eager_context.ranking] != [
        a.source_id for a in lazy_context.ranking
    ]:
        raise AssertionError(f"{label}: ranking diverged between eager and lazy")
    for source_id, expected in lazy_context.assessments.items():
        if eager_context.assessments[source_id].overall != expected.overall:
            raise AssertionError(f"{label}: overall diverged for {source_id!r}")
    if eager_context.raw_vectors != lazy_context.raw_vectors:
        raise AssertionError(f"{label}: raw measure matrix diverged")
    if eager_context.normalized_vectors != lazy_context.normalized_vectors:
        raise AssertionError(f"{label}: normalised matrix diverged")
    if eager_results != lazy_results:
        raise AssertionError(f"{label}: search results diverged")


def _assert_matches_rebuild(domain, corpus, eager) -> None:
    """The eager deployment must equal from-scratch rebuilds, bit for bit."""
    eager_context, eager_results = eager
    rebuilt_context = SourceQualityModel(domain).assessment_context(corpus)
    rebuilt_results = SearchEngine(corpus, panel=AlexaLikeService()).search(
        FIRST_READ_QUERY, 20
    )
    if [a.source_id for a in eager_context.ranking] != [
        a.source_id for a in rebuilt_context.ranking
    ]:
        raise AssertionError("final state: eager ranking diverged from rebuild")
    if eager_context.normalized_vectors != rebuilt_context.normalized_vectors:
        raise AssertionError("final state: eager matrix diverged from rebuild")
    if eager_results != rebuilt_results:
        raise AssertionError("final state: eager results diverged from rebuild")


def run(
    output_path: Path,
    source_count: int,
    spare_count: int,
    events: int,
    burst: int,
) -> dict:
    """Run the burst stream and merge the section into the report."""
    print(
        f"building twin corpora ({source_count} sources + {spare_count} spare)...",
        flush=True,
    )
    domain = _domain()
    lazy_corpus, lazy_spares = _build_dataset(source_count, spare_count)
    eager_corpus, eager_spares = _build_dataset(source_count, spare_count)

    lazy_model = SourceQualityModel(domain)
    lazy_engine = SearchEngine(lazy_corpus, panel=AlexaLikeService())
    eager_model = SourceQualityModel(domain)
    eager_engine = SearchEngine(eager_corpus, panel=AlexaLikeService())

    scheduler = EagerRefreshScheduler(eager_corpus, RefreshMode.COALESCING)
    scheduler.register_search_engine(eager_engine, name="engine")
    scheduler.register_source_model(eager_model, name="model")

    # Warm both deployments so every later patch is incremental.
    _first_read(lazy_model, lazy_corpus, lazy_engine)
    _first_read(eager_model, eager_corpus, eager_engine)

    lazy_seconds: list[float] = []
    eager_seconds: list[float] = []
    patch_seconds: list[float] = []
    kinds: list[str] = []
    for event in range(events):
        burst_kinds = []
        for step in range(burst):
            index = event * burst + step
            kind = _mutate(lazy_corpus, lazy_spares, index)
            if _mutate(eager_corpus, eager_spares, index) != kind:
                raise AssertionError("twin corpora diverged in mutation kind")
            burst_kinds.append(kind)
        kinds.append("+".join(burst_kinds))

        # Eager: the coalesced background patch runs off the read path...
        patches_before = scheduler.counters.get("patches_applied")
        start = time.perf_counter()
        patched = scheduler.flush()
        patch_seconds.append(time.perf_counter() - start)
        if patched != 2 or scheduler.counters.get("patches_applied") != patches_before + 1:
            raise AssertionError(
                f"event {event}: burst of {burst} did not coalesce into one patch"
            )
        # ...so the first read finds clean flags.
        start = time.perf_counter()
        eager_read = _first_read(eager_model, eager_corpus, eager_engine)
        eager_seconds.append(time.perf_counter() - start)

        # Lazy: the first read absorbs the whole patch.
        start = time.perf_counter()
        lazy_read = _first_read(lazy_model, lazy_corpus, lazy_engine)
        lazy_seconds.append(time.perf_counter() - start)

        _assert_bit_identical(eager_read, lazy_read, f"event {event}")
        print(
            f"  event {event:2d} [{kinds[-1]:>24s}]"
            f"  eager first read {eager_seconds[-1]*1e3:8.3f} ms"
            f"  lazy first read {lazy_seconds[-1]*1e3:8.3f} ms"
            f"  (eager patch {patch_seconds[-1]*1e3:8.2f} ms off-path)",
            flush=True,
        )

    print("asserting final state against from-scratch rebuilds...", flush=True)
    _assert_matches_rebuild(
        domain, eager_corpus, _first_read(eager_model, eager_corpus, eager_engine)
    )
    scheduler.close()

    lazy_total = sum(lazy_seconds)
    eager_total = sum(eager_seconds)
    speedup = lazy_total / eager_total if eager_total > 0 else float("inf")
    section = {
        "sources": source_count,
        "events": events,
        "burst": burst,
        "event_kinds": kinds,
        "mode": "coalescing",
        "lazy_first_read_seconds": lazy_total,
        "eager_first_read_seconds": eager_total,
        "eager_patch_seconds": sum(patch_seconds),
        "mean_lazy_first_read_ms": lazy_total / events * 1e3,
        "mean_eager_first_read_ms": eager_total / events * 1e3,
        "speedup": speedup,
        "target_speedup": TARGET_FIRST_READ_SPEEDUP,
        "scheduler_counters": scheduler.counters.snapshot(),
        "model_counters": eager_model.counters.snapshot(),
    }
    merge_report_section(output_path, "eager_refresh", section)
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON report to merge into (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--sources", type=int, default=1000,
        help="corpus size served while mutations stream in (default: 1000)",
    )
    parser.add_argument(
        "--events", type=int, default=6,
        help="number of mutation bursts (default: 6)",
    )
    parser.add_argument(
        "--burst", type=int, default=4,
        help="mutations per burst, coalesced into one eager patch (default: 4)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when the speedup target is missed",
    )
    args = parser.parse_args(argv)
    spare_count = (args.events * args.burst + 3) // 4 + 1  # one spare per 'add'

    section = run(args.output, args.sources, spare_count, args.events, args.burst)
    status = (
        "[ok]"
        if section["speedup"] >= section["target_speedup"]
        else f"[BELOW {section['target_speedup']}x TARGET]"
    )
    print(
        f"eager_refresh   lazy first read {section['lazy_first_read_seconds']:8.3f}s  "
        f"eager first read {section['eager_first_read_seconds']:8.3f}s  "
        f"speedup {section['speedup']:7.1f}x  {status}"
    )
    print(f"wrote {args.output}")
    if args.strict and section["speedup"] < section["target_speedup"]:
        print("FATAL: eager-refresh first-read speedup target missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
