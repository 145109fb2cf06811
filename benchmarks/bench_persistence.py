#!/usr/bin/env python
"""Warm start from snapshot sections vs cold rebuild of the serving stack.

Builds a content-rich corpus (blog-scale sources: dozens of discussions
each), checkpoints it into a :class:`~repro.persistence.store.CorpusStore`
— corpus + binary-codec index section + source-model section — streams a
few journaled mutations and checkpoints again (``checkpoint_seconds`` is
the first, full capture; ``incremental_checkpoint_seconds`` the second,
which re-encodes only what the mutations changed), then streams as many
more so recovery has a tail to replay.  Two process restarts are then
timed from the same on-disk state.

Both restarts begin by materialising the corpus from the snapshot: its
typed ``RPCS`` corpus section, decoded straight to model objects
(:func:`~repro.persistence.codec.decode_corpus_section`).  That phase is
*identical in both paths by construction* — with or without this
persistence layer, a restart must load the corpus from disk
(``SourceCorpus.save``/``load`` predate it) — so it is reported
separately (``corpus_load_seconds``) and excluded from the compared
phase.  What the snapshot's *consumer
sections* exist to avoid is everything after:

* **cold rebuild** — replay the journal tail, tokenise and index every
  discussion of every source into a fresh
  :class:`~repro.search.engine.SearchEngine`, and run a full
  quality-model assessment pass (crawl + measure + score every source);
* **warm start** — ``store.recover_stack()``: decode the index section
  (binary codec), restore the engine and the assessment context from
  their sections, replay the tail through the incremental patch
  machinery, refresh.

Before timing counts, the harness asserts the two recovered stacks are
*bit-identical* — same static ranking, same result ids and bit-equal
scores on a probe workload, same assessment ranking with bit-equal
overall scores — and both identical to the live stack the checkpoint was
taken from.  A speedup can therefore never come from recovering the
wrong data.

Results are merged into ``BENCH_perf.json`` under the ``persistence``
key.  Run with ``make perf`` or::

    PYTHONPATH=src python benchmarks/bench_persistence.py

``--strict`` exits non-zero when the ≥20x warm-start target is missed.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

from _harness import finish, harness_parser, merge_report_section
from repro.core.domain import DomainOfInterest
from repro.core.source_quality import SourceQualityModel
from repro.persistence import CorpusStore
from repro.search.engine import SearchEngine
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusGenerator, CorpusSpec
from repro.sources.models import Discussion, Post

#: Speedup target recorded in the JSON so future PRs see the goalposts.
TARGET_WARM_START_SPEEDUP = 20.0

PROBE_QUERIES = (
    "travel flight resort",
    "food recipe dinner",
    "music concert festival",
    "technology gadget review",
    "sports match final",
)


def _build_corpus(source_count: int, discussion_budget: int) -> SourceCorpus:
    return CorpusGenerator(
        CorpusSpec(
            source_count=source_count,
            seed=17,
            discussion_budget=discussion_budget,
            user_budget=14,
        )
    ).generate()


def _mutate(corpus: SourceCorpus, event: int) -> str:
    """One journaled mutation; alternate in-place growth and touch edits."""
    source = corpus.sources()[event % len(corpus)]
    if event % 2 == 0:
        discussion = Discussion(
            discussion_id=f"stream-{event}",
            category="travel",
            title="travel flight resort late breaking",
            opened_at=1.0,
        )
        discussion.posts.append(
            Post(
                post_id=f"stream-post-{event}",
                author_id="u1",
                day=2.0,
                text="travel flight resort beach hotel",
            )
        )
        source.add_discussion(discussion)
        return "grow"
    post = next(iter(source.posts()), None)
    if post is not None:
        post.text = f"reworded travel content {event}"
    corpus.touch(source.source_id)
    return "touch"


def _probe(engine: SearchEngine) -> list:
    """The comparable output of an engine: static rank + probe results."""
    rank = list(engine.static_rank())
    results = [
        [
            (r.source_id, r.score, r.static_score, r.topical_score)
            for r in engine.search(query, 20)
        ]
        for query in PROBE_QUERIES
    ]
    return [rank, results]


def _assessment_state(context) -> list:
    """The comparable output of a quality model: ranking + overall scores."""
    return [(a.source_id, a.overall) for a in context.ranking]


def run(
    output_path: Path, source_count: int, events: int, discussion_budget: int
) -> dict:
    print(
        f"building corpus ({source_count} sources x {discussion_budget} discussions)...",
        flush=True,
    )
    corpus = _build_corpus(source_count, discussion_budget)
    domain = DomainOfInterest(categories=("travel", "food"), name="persistence-bench")
    directory = Path(tempfile.mkdtemp(prefix="bench-persistence-"))
    try:
        engine = SearchEngine(corpus)
        model = SourceQualityModel(domain)
        model.assessment_context(corpus)
        store = CorpusStore(directory, fsync=False)
        store.attach(corpus, engine=engine, source_model=model)
        print("checkpointing...", flush=True)
        start = time.perf_counter()
        store.checkpoint()
        checkpoint_seconds = time.perf_counter() - start
        for event in range(events):
            _mutate(corpus, event)
        # The second checkpoint splices the first one's encoded fragments,
        # re-encoding only what the journaled events changed.
        start = time.perf_counter()
        store.checkpoint()
        incremental_checkpoint_seconds = time.perf_counter() - start
        for event in range(events, 2 * events):
            _mutate(corpus, event)
        engine.refresh()
        expected_engine = _probe(engine)
        expected_model = _assessment_state(model.assessment_context(corpus))
        store.close()
        snapshot_bytes = store.snapshot_path.stat().st_size
        journal_bytes = store.journal_path.stat().st_size

        print("cold restart (corpus load + replay + rebuild index + assess)...", flush=True)
        with CorpusStore(directory, fsync=False) as cold_store:
            start = time.perf_counter()
            cold = cold_store.recover()
            corpus_load_cold = time.perf_counter() - start
            start = time.perf_counter()
            cold.replay()
            cold_engine = SearchEngine(cold.corpus)
            cold_engine.static_rank()
            cold_model = SourceQualityModel(domain)
            cold_context = cold_model.assessment_context(cold.corpus)
            cold_seconds = time.perf_counter() - start

        print("warm restart (corpus load + section restore + replay)...", flush=True)
        with CorpusStore(directory, fsync=False) as warm_store:
            start = time.perf_counter()
            warm = warm_store.recover()
            corpus_load_warm = time.perf_counter() - start
            start = time.perf_counter()
            stack = warm_store.recover_stack(domain=domain, attach=False, result=warm)
            stack.engine.refresh()
            stack.engine.static_rank()
            warm_context = stack.source_model.assessment_context(stack.corpus)
            warm_seconds = time.perf_counter() - start

        cold_probe = _probe(cold_engine)
        warm_probe = _probe(stack.engine)
        bit_identical = (
            cold_probe == warm_probe == expected_engine
            and _assessment_state(cold_context)
            == _assessment_state(warm_context)
            == expected_model
        )
        if not bit_identical:
            raise AssertionError(
                "recovered stacks diverged from the live stack "
                "(engine warm==cold: %s, cold==live: %s, model warm==cold: %s)"
                % (
                    warm_probe == cold_probe,
                    cold_probe == expected_engine,
                    _assessment_state(warm_context) == _assessment_state(cold_context),
                )
            )
        if stack.result.applied != events:
            raise AssertionError(
                f"expected {events} replayed events, got {stack.result.applied}"
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    section = {
        "sources": source_count,
        "discussion_budget": discussion_budget,
        "events_replayed": events,
        "checkpoint_seconds": checkpoint_seconds,
        "incremental_checkpoint_seconds": incremental_checkpoint_seconds,
        "snapshot_bytes": snapshot_bytes,
        "journal_bytes": journal_bytes,
        "corpus_load_seconds": corpus_load_warm,
        "corpus_load_cold_seconds": corpus_load_cold,
        "warm_start_seconds": warm_seconds,
        "cold_rebuild_seconds": cold_seconds,
        "speedup": speedup,
        "target_speedup": TARGET_WARM_START_SPEEDUP,
        "bit_identical": bit_identical,
        "equivalence_queries": len(PROBE_QUERIES),
    }
    merge_report_section(output_path, "persistence", section)
    return section


def main(argv: list[str] | None = None) -> int:
    parser = harness_parser(__doc__)
    parser.add_argument(
        "--sources", type=int, default=800,
        help="corpus size snapshotted and recovered (default: 800)",
    )
    parser.add_argument(
        "--discussion-budget", type=int, default=80,
        help="discussions per source — content volume drives the cold "
             "rebuild cost, as on real blog/forum sources (default: 80)",
    )
    parser.add_argument(
        "--events", type=int, default=8,
        help="journaled mutations between checkpoint and crash (default: 8)",
    )
    args = parser.parse_args(argv)

    section = run(args.output, args.sources, args.events, args.discussion_budget)
    return finish(
        args,
        section,
        f"persistence              cold {section['cold_rebuild_seconds']:8.3f}s  "
        f"warm {section['warm_start_seconds']:8.3f}s  "
        f"(+{section['corpus_load_seconds']:.3f}s shared corpus load)  "
        f"speedup {section['speedup']:7.1f}x",
        "warm-start speedup",
    )


if __name__ == "__main__":
    sys.exit(main())
