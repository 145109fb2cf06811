#!/usr/bin/env python
"""Incremental assessment-context patching vs full rebuild under mutations.

Builds a large corpus (10 000 sources by default — the tier the columnar
assessment core targets), warms a long-lived
:class:`~repro.core.source_quality.SourceQualityModel`, then drives a
stream of corpus mutations (source adds, removes, in-place growth,
announced ``touch`` edits).  After every event the harness times two ways
of bringing the assessments back in sync:

* **incremental** — ``model.assessment_context(corpus)``: the O(1) dirty
  flag fires, the corpus is fingerprint-diffed against the cached
  context, only the affected sources are re-crawled/re-measured, the
  normaliser is re-fitted only when the reference population changed, and
  the ranking is patched via ``np.searchsorted`` surgery on the columnar
  sort keys;
* **full rebuild** — a brand-new ``SourceQualityModel`` assessing the
  mutated corpus from scratch, exactly what a caller had to do before
  assessment contexts became incrementally maintainable.

Before timing counts, every event asserts the incrementally patched
context is *bit-identical* to the rebuilt one: same ranking, exact-equal
overall scores and raw/normalised matrices.  A speedup can therefore
never come from computing the wrong thing.

Results are merged into ``BENCH_perf.json`` under the
``incremental_assessment`` key (the other sections are preserved).  Run
with ``make perf`` or::

    PYTHONPATH=src python benchmarks/bench_incremental_assessment.py

``--strict`` exits non-zero when the ≥10x speedup target is missed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from _harness import merge_report_section
from repro.core.domain import DomainOfInterest, TimeInterval
from repro.core.source_quality import SourceQualityModel
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusGenerator, CorpusSpec
from repro.sources.models import Discussion, Post

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Speedup target recorded in the JSON so future PRs see the goalposts.
TARGET_INCREMENTAL_SPEEDUP = 10.0

#: Seed/content budgets of the mutation-stream corpus (reproducible tier).
CORPUS_SEED = 29
DISCUSSION_BUDGET = 10
USER_BUDGET = 10


def _domain() -> DomainOfInterest:
    return DomainOfInterest(
        categories=("travel", "food"),
        time_interval=TimeInterval(0.0, 365.0),
        locations=("Milan",),
        name="bench-incremental-assessment",
    )


def _build_dataset(source_count: int, spare_count: int) -> tuple[SourceCorpus, list]:
    """Generate ``source_count`` assessed sources plus a held-back add stream."""
    corpus = CorpusGenerator(
        CorpusSpec(
            source_count=source_count + spare_count,
            seed=CORPUS_SEED,
            discussion_budget=DISCUSSION_BUDGET,
            user_budget=USER_BUDGET,
        )
    ).generate()
    spare_ids = corpus.source_ids()[source_count:]
    spares = [corpus.remove(source_id) for source_id in spare_ids]
    return corpus, spares


def _grow(source, tag: int) -> None:
    discussion = Discussion(
        discussion_id=f"assess-stream-{tag}",
        category="travel",
        title="travel flight resort late breaking",
        opened_at=1.0,
    )
    discussion.posts.append(
        Post(
            post_id=f"assess-stream-post-{tag}",
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


def _assert_bit_identical(live_context, rebuilt_context, label: str) -> None:
    live_ids = [a.source_id for a in live_context.ranking]
    rebuilt_ids = [a.source_id for a in rebuilt_context.ranking]
    if live_ids != rebuilt_ids:
        raise AssertionError(f"{label}: ranking diverged from rebuild")
    for source_id, expected in rebuilt_context.assessments.items():
        actual = live_context.assessments[source_id]
        if actual.overall != expected.overall:
            raise AssertionError(f"{label}: overall diverged for {source_id!r}")
    if live_context.raw_vectors != rebuilt_context.raw_vectors:
        raise AssertionError(f"{label}: raw measure matrix diverged")
    if live_context.normalized_vectors != rebuilt_context.normalized_vectors:
        raise AssertionError(f"{label}: normalised matrix diverged")


def run(output_path: Path, source_count: int, spare_count: int, events: int) -> dict:
    """Run the mutation stream and merge the section into the report."""
    print(
        f"building corpus ({source_count} sources + {spare_count} spare)...",
        flush=True,
    )
    corpus, spares = _build_dataset(source_count, spare_count)
    domain = _domain()
    model = SourceQualityModel(domain)
    model.assessment_context(corpus)  # warm the incremental state

    incremental_seconds: list[float] = []
    rebuild_seconds: list[float] = []
    kinds: list[str] = []
    for event in range(events):
        kind = _mutate(corpus, spares, event)
        kinds.append(kind)

        patches_before = model.counters.get("context_patches")
        start = time.perf_counter()
        live_context = model.assessment_context(corpus)
        incremental_seconds.append(time.perf_counter() - start)
        if model.counters.get("context_patches") != patches_before + 1:
            raise AssertionError(f"event {event} ({kind}): context was not patched")

        start = time.perf_counter()
        rebuilt_context = SourceQualityModel(domain).assessment_context(corpus)
        rebuild_seconds.append(time.perf_counter() - start)

        _assert_bit_identical(live_context, rebuilt_context, f"event {event} ({kind})")
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
        "model_counters": model.counters.snapshot(),
    }
    tier = {
        "source_count": source_count,
        "seed": CORPUS_SEED,
        "discussion_budget": DISCUSSION_BUDGET,
        "user_budget": USER_BUDGET,
        "events": events,
    }
    merge_report_section(
        output_path,
        "incremental_assessment",
        section,
        meta={"incremental_assessment_tier": tier},
    )
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON report to merge into (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--sources", type=int, default=10_000,
        help="corpus size the model serves while mutations stream in (default: 10000)",
    )
    parser.add_argument(
        "--events", type=int, default=8,
        help="number of streamed mutations (default: 8)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when the speedup target is missed",
    )
    args = parser.parse_args(argv)
    spare_count = (args.events + 3) // 4 + 1  # one spare per 'add' event

    section = run(args.output, args.sources, spare_count, args.events)
    status = (
        "[ok]"
        if section["speedup"] >= section["target_speedup"]
        else f"[BELOW {section['target_speedup']}x TARGET]"
    )
    print(
        f"incremental_assessment   rebuild {section['full_rebuild_seconds']:8.3f}s  "
        f"incremental {section['incremental_seconds']:8.3f}s  "
        f"speedup {section['speedup']:7.1f}x  {status}"
    )
    print(f"wrote {args.output}")
    if args.strict and section["speedup"] < section["target_speedup"]:
        print("FATAL: incremental-assessment speedup target missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
