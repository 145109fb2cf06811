#!/usr/bin/env python
"""Incremental index maintenance vs full rebuild under a mutation stream.

Builds a large corpus (2000 sources by default — the scale of the paper's
Section 4.1 study), then drives a stream of corpus mutations (source adds,
removes, in-place growth, announced ``touch`` edits) through a live
:class:`~repro.search.engine.SearchEngine`.  After every event the harness
times two ways of bringing the index back in sync:

* **incremental** — ``engine.refresh()``: the epoch diff plus patching of
  postings lists, document frequencies, static scores and the static
  order for just the affected sources;
* **full rebuild** — constructing a brand-new ``SearchEngine`` over the
  mutated corpus, exactly what a caller had to do before the index became
  mutation-safe.

Before timing counts, every event asserts the incrementally maintained
engine is *bit-identical* to the rebuilt one: same static ranking, same
result ids, bit-equal combined/static/topical scores on a probe workload.
A speedup can therefore never come from computing the wrong thing.

Results are merged into ``BENCH_perf.json`` under the
``incremental_index`` key (the other sections are preserved).  Run with
``make perf`` or::

    PYTHONPATH=src python benchmarks/bench_incremental_index.py

``--strict`` exits non-zero when the ≥10x speedup target is missed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from _harness import finish, harness_parser, merge_report_section
from repro.search.engine import SearchEngine
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusGenerator, CorpusSpec
from repro.sources.models import Discussion, Post
from repro.sources.webstats import AlexaLikeService

#: Speedup target recorded in the JSON so future PRs see the goalposts.
TARGET_INCREMENTAL_SPEEDUP = 10.0

PROBE_QUERIES = (
    "travel flight resort",
    "food recipe dinner",
    "music concert festival",
    "technology gadget review",
    "sports match final",
)


def _build_dataset(source_count: int, spare_count: int) -> tuple[SourceCorpus, list]:
    """Generate ``source_count`` indexed sources plus a held-back add stream."""
    corpus = CorpusGenerator(
        CorpusSpec(
            source_count=source_count + spare_count,
            seed=17,
            discussion_budget=12,
            user_budget=12,
        )
    ).generate()
    spare_ids = corpus.source_ids()[source_count:]
    spares = [corpus.remove(source_id) for source_id in spare_ids]
    return corpus, spares


def _grow(source, tag: int) -> None:
    discussion = Discussion(
        discussion_id=f"stream-{tag}",
        category="travel",
        title="travel flight resort late breaking",
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"stream-post-{tag}",
            author_id="u1",
            day=2.0,
            text="travel flight resort beach hotel",
        )
    )
    source.add_discussion(discussion)


def _mutate(corpus: SourceCorpus, spares: list, event: int) -> str:
    """Apply one streaming mutation; rotate through the four mutation kinds."""
    kind = event % 4
    if kind == 0 and spares:
        corpus.add(spares.pop())
        return "add"
    if kind == 1:
        corpus.remove(corpus.source_ids()[event % len(corpus)])
        return "remove"
    if kind == 2:
        _grow(corpus.sources()[event % len(corpus)], event)
        return "grow"
    source = corpus.sources()[event % len(corpus)]
    post = next(iter(source.posts()), None)
    if post is not None:
        post.text = f"reworded travel content {event}"
    corpus.touch(source.source_id)
    return "touch"


def _assert_bit_identical(engine: SearchEngine, rebuilt: SearchEngine, label: str) -> None:
    if engine.static_rank() != rebuilt.static_rank():
        raise AssertionError(f"{label}: static ranking diverged from rebuild")
    for query in PROBE_QUERIES:
        left = engine.search(query, 20)
        right = rebuilt.search(query, 20)
        if [r.source_id for r in left] != [r.source_id for r in right]:
            raise AssertionError(f"{label}: result ids diverged for {query!r}")
        for a, b in zip(left, right):
            if (
                a.score != b.score
                or a.static_score != b.static_score
                or a.topical_score != b.topical_score
            ):
                raise AssertionError(f"{label}: scores diverged for {query!r}")


def run(output_path: Path, source_count: int, spare_count: int, events: int) -> dict:
    """Run the mutation stream and merge the section into the report."""
    print(
        f"building corpus ({source_count} sources + {spare_count} spare)...",
        flush=True,
    )
    corpus, spares = _build_dataset(source_count, spare_count)
    engine = SearchEngine(corpus, panel=AlexaLikeService())
    for query in PROBE_QUERIES:  # warm the result cache so epoch eviction is exercised
        engine.search(query, 20)

    incremental_seconds: list[float] = []
    rebuild_seconds: list[float] = []
    kinds: list[str] = []
    for event in range(events):
        kind = _mutate(corpus, spares, event)
        kinds.append(kind)

        start = time.perf_counter()
        updated = engine.refresh()
        incremental_seconds.append(time.perf_counter() - start)
        if not updated:
            raise AssertionError(f"event {event} ({kind}): refresh saw no change")

        start = time.perf_counter()
        rebuilt = SearchEngine(corpus, panel=AlexaLikeService())
        rebuild_seconds.append(time.perf_counter() - start)

        _assert_bit_identical(engine, rebuilt, f"event {event} ({kind})")
        print(
            f"  event {event:2d} {kind:6s}  incremental {incremental_seconds[-1]*1e3:8.2f} ms"
            f"  rebuild {rebuild_seconds[-1]:6.3f} s",
            flush=True,
        )

    incremental_total = sum(incremental_seconds)
    rebuild_total = sum(rebuild_seconds)
    speedup = rebuild_total / incremental_total if incremental_total > 0 else float("inf")
    section = {
        "sources": source_count,
        "events": events,
        "event_kinds": kinds,
        "incremental_seconds": incremental_total,
        "full_rebuild_seconds": rebuild_total,
        "mean_incremental_ms": incremental_total / events * 1e3,
        "mean_rebuild_seconds": rebuild_total / events,
        "speedup": speedup,
        "target_speedup": TARGET_INCREMENTAL_SPEEDUP,
        "equivalence_queries": len(PROBE_QUERIES),
        "engine_counters": engine.counters.snapshot(),
    }
    merge_report_section(output_path, "incremental_index", section)
    return section


def main(argv: list[str] | None = None) -> int:
    parser = harness_parser(__doc__)
    parser.add_argument(
        "--sources", type=int, default=2000,
        help="corpus size the engine serves while mutations stream in (default: 2000)",
    )
    parser.add_argument(
        "--events", type=int, default=12,
        help="number of streamed mutations (default: 12)",
    )
    args = parser.parse_args(argv)
    spare_count = (args.events + 3) // 4 + 1  # one spare per 'add' event

    section = run(args.output, args.sources, spare_count, args.events)
    return finish(
        args,
        section,
        f"incremental_index        rebuild {section['full_rebuild_seconds']:8.3f}s  "
        f"incremental {section['incremental_seconds']:8.3f}s  "
        f"speedup {section['speedup']:7.1f}x",
        "incremental-index speedup",
    )


if __name__ == "__main__":
    sys.exit(main())
