"""Seeded inputs of the end-to-end benchmark: corpus, query pool, op stream.

Everything the cluster receives is generated here from the workload seed,
outside every clock: the initial corpus, the Zipf-skewed query pool, and
the closed-loop operation stream with its new sources, grown discussions
and reworded post texts.  The stream is produced in chunks so a fast
program never runs out of inputs; a chunk is generated while the loop's
clock is paused.  The content every operation applies depends only on the
seed and the operation's position in the stream, never on timing, so two
runs with one seed drive the cluster through the same states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.core.domain import DomainOfInterest, TimeInterval
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusSpec, SourceGenerator, SourceSpec
from repro.sources.models import Discussion, Post, Source
from repro.sources.text import GENERIC_CATEGORIES, TextGenerator, default_vocabularies

MUTATION_KINDS = ("grow", "touch", "add", "remove")

SEARCH_LIMIT = 20
RANK_LIMIT = 10
#: Operations per deck of the mix (see ``OpStream._next_kind``).
DECK = 200
#: Distinct queries in the pool, more than the coordinator's 256-entry
#: per-version term-statistics cache holds, and the pool's Zipf exponent.
QUERY_POOL_SIZE = 400
ZIPF_EXPONENT = 0.8
#: The cluster: worker processes, fsynced stores, eager refresh, and the
#: default periodic checkpoint interval (journaled events per shard).
SHARD_COUNT = 2
FSYNC = True
EAGER = True
CHECKPOINT_EVERY = 256
#: Timed set-ups and restarts per run (``setup_s`` and ``restart_s`` are
#: their medians).
SETUPS = 3
RESTARTS = 2
#: Acknowledged mutations after the explicit checkpoint, before the restart.
TAIL_MUTATIONS = 32
#: Range of each latent factor of the generated sources (see ``generate_corpus``).
LATENT_BANDS = {
    "popularity": (0.35, 0.65),
    "engagement": (0.30, 0.50),
    "stickiness": (0.30, 0.70),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """What differs between workloads; ``to_dict`` adds the shared constants."""

    name: str
    why: str
    source_count: int
    discussion_budget: int
    user_budget: int
    #: Operation kind -> share of the closed loop's operations.
    mix: tuple[tuple[str, float], ...]
    #: Posts per grown discussion (opener plus comments).
    grow_posts: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "corpus": {
                "source_count": self.source_count,
                "discussion_budget": self.discussion_budget,
                "user_budget": self.user_budget,
            },
            "mix": dict(self.mix),
            "grow_posts": self.grow_posts,
            "query_pool_size": QUERY_POOL_SIZE,
            "zipf_exponent": ZIPF_EXPONENT,
            "shard_count": SHARD_COUNT,
            "fsync": FSYNC,
            "eager": EAGER,
            "checkpoint_every": CHECKPOINT_EVERY,
            "setups": SETUPS,
            "restarts": RESTARTS,
            "tail_mutations": TAIL_MUTATIONS,
            "loop": "closed, 1 client thread",
            "search_limit": SEARCH_LIMIT,
            "rank_limit": RANK_LIMIT,
        }


def kind_deck(mix: tuple[tuple[str, float], ...]) -> list[str]:
    """``DECK`` operation kinds in the mix's shares, each spread evenly.

    Smooth weighted round robin: the order is fixed, so every deck — in
    every run, for every seed — interleaves reads and mutations the same
    way.  That fixes how many ``rank_top`` calls refit after a mutation
    and how many reuse the cached fit, which a shuffled deck would leave
    to chance (a refit costs several times a cached ``rank_top``).
    """
    counts = {kind: round(share * DECK) for kind, share in mix}
    total = sum(counts.values())
    credit = dict.fromkeys(counts, 0)
    deck = []
    for _ in range(total):
        for kind, count in counts.items():
            credit[kind] += count
        kind = max(credit, key=credit.__getitem__)
        credit[kind] -= total
        deck.append(kind)
    return deck


def bench_domain() -> DomainOfInterest:
    return DomainOfInterest(
        categories=("travel", "food"),
        time_interval=TimeInterval(0.0, 365.0),
        locations=("Milan",),
        name="perfbench-domain",
    )


def generate_corpus(spec: WorkloadSpec, seed: int) -> SourceCorpus:
    """The initial corpus of a workload, with sources of similar size.

    The latent factors scale a generated source's volume multiplicatively
    (engagement alone spans a 15x range of comments per thread), so with
    :class:`~repro.sources.generators.CorpusGenerator`'s full ranges the
    cost of one mutation depends mostly on which source it hits, and a
    run's medians on which sources a seed made large.  Here each latent
    lies in a narrow band instead, drawn once per quantile stratum and
    shuffled across sources (Latin hypercube sampling): every seed yields
    a different corpus of the same shape.  Source ids do not depend on
    the seed, so neither does the shard each source lands on.
    """
    rng = random.Random(seed)
    count = spec.source_count
    defaults = CorpusSpec()

    def band(low: float, high: float) -> list[float]:
        order = list(range(count))
        rng.shuffle(order)
        return [low + (high - low) * (stratum + rng.random()) / count for stratum in order]

    popularity = band(*LATENT_BANDS["popularity"])
    engagement = band(*LATENT_BANDS["engagement"])
    stickiness = band(*LATENT_BANDS["stickiness"])
    low, high = defaults.off_topic_rate_range
    corpus = SourceCorpus()
    for index in range(count):
        source_spec = SourceSpec(
            source_id=f"source-{index:04d}",
            source_type=rng.choice(defaults.source_types),
            focus_categories=tuple(
                rng.sample(GENERIC_CATEGORIES, defaults.focus_category_count)
            ),
            latent_popularity=popularity[index],
            latent_engagement=engagement[index],
            latent_stickiness=stickiness[index],
            discussion_budget=spec.discussion_budget,
            user_budget=spec.user_budget,
            off_topic_rate=rng.uniform(low, high),
            created_at=rng.uniform(0.0, defaults.observation_day * 0.5),
        )
        corpus.add(SourceGenerator(source_spec, seed=rng.randrange(2**31)).generate())
    return corpus


def filler_source(seed: int) -> Source:
    """A one-thread source the pre-roll adds and removes again."""
    return SourceGenerator(
        SourceSpec(
            source_id="preroll-filler",
            focus_categories=tuple(GENERIC_CATEGORIES[:3]),
            discussion_budget=1,
            user_budget=1,
        ),
        seed=seed,
    ).generate()


def query_pool(seed: int) -> tuple[list[str], list[float]]:
    """``QUERY_POOL_SIZE`` distinct 1-3-term queries and their Zipf weights."""
    rng = random.Random(seed * 7919 + 11)
    vocabularies = default_vocabularies(GENERIC_CATEGORIES)
    categories = list(GENERIC_CATEGORIES)
    queries: list[str] = []
    seen: set[str] = set()
    while len(queries) < QUERY_POOL_SIZE:
        words = vocabularies[rng.choice(categories)].topic_words
        terms = rng.sample(words, rng.choice((1, 2, 2, 3)))
        if rng.random() < 0.2:  # occasionally mix in a second category
            terms[-1] = rng.choice(vocabularies[rng.choice(categories)].topic_words)
        query = " ".join(terms)
        if query not in seen:
            seen.add(query)
            queries.append(query)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(queries))]
    return queries, weights


@dataclass
class Op:
    """One closed-loop operation with its pre-generated payload."""

    kind: str
    query: Optional[str] = None
    source_id: Optional[str] = None
    discussion: Optional[Discussion] = None
    source: Optional[Source] = None
    #: For ``touch``: which post to reword (indices taken modulo the sizes
    #: found at execution time) and its new text.
    picks: tuple[int, int] = (0, 0)
    text: str = ""

    def apply(self, corpus: SourceCorpus) -> None:
        """Apply this mutation to the coordinator's authoritative corpus."""
        if self.kind == "grow":
            corpus.get(self.source_id).add_discussion(self.discussion)
        elif self.kind == "touch":
            source = corpus.get(self.source_id)
            discussion = source.discussions[self.picks[0] % len(source.discussions)]
            discussion.posts[self.picks[1] % len(discussion.posts)].text = self.text
            corpus.touch(self.source_id)
        elif self.kind == "add":
            corpus.add(self.source)
        elif self.kind == "remove":
            corpus.remove(self.source_id)
        else:
            raise ValueError(f"{self.kind!r} is not a mutation")


def source_users(sources: Iterable[Source]) -> dict[str, list[str]]:
    """Source id -> its registered user ids (the authors of grown threads)."""
    return {source.source_id: list(source.users) for source in sources}


class OpStream:
    """Seeded, chunked operation stream over a live-id model of the corpus.

    ``next_chunk`` materialises the next ``size`` operations, keeping the
    live source ids and their user ids in step with the adds and removes
    it emits, so every generated mutation targets a source that exists
    when the operation runs.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int,
        users: dict[str, list[str]],
        queries: list[str],
        weights: list[float],
        *,
        label: str = "loop",
    ) -> None:
        self._spec = spec
        self._rng = random.Random(f"{label}:{seed}")
        self._text = TextGenerator(self._rng, default_vocabularies(GENERIC_CATEGORIES))
        self._queries = queries
        self._weights = weights
        self._deck: list[str] = []
        self._label = label
        self._seed = seed
        self._users = dict(users)
        self._live = list(self._users)
        self._serial = 0

    def next_chunk(self, size: int, kinds: Optional[list[str]] = None) -> list[Op]:
        """The next ``size`` operations (of ``kinds`` only, when given)."""
        return [self._next_op(kinds) for _ in range(size)]

    def _next_kind(self) -> str:
        """Kinds come from repeated decks (see ``kind_deck``), so every
        stretch of ``DECK`` operations has the same kinds in the same order."""
        if not self._deck:
            self._deck = kind_deck(self._spec.mix)[::-1]
        return self._deck.pop()

    def _next_op(self, kinds: Optional[list[str]]) -> Op:
        rng = self._rng
        self._serial += 1
        kind = self._next_kind() if kinds is None else rng.choice(kinds)
        if kind == "search":
            return Op(kind, query=rng.choices(self._queries, self._weights)[0])
        if kind == "rank_top":
            return Op(kind)
        if kind == "add":
            source = self._new_source()
            self._users[source.source_id] = list(source.users)
            self._live.append(source.source_id)
            return Op(kind, source_id=source.source_id, source=source)
        if kind == "remove" and len(self._live) > self._spec.source_count // 2:
            source_id = self._live.pop(rng.randrange(len(self._live)))
            del self._users[source_id]
            return Op(kind, source_id=source_id)
        source_id = rng.choice(self._live)
        if kind == "touch":
            category = rng.choice(GENERIC_CATEGORIES)
            text = self._text.snippet(category, sentiment=rng.uniform(-1, 1))
            picks = (rng.randrange(1 << 30), rng.randrange(1 << 30))
            return Op(kind, source_id=source_id, picks=picks, text=text)
        return Op("grow", source_id=source_id, discussion=self._discussion(source_id))

    def _new_source(self) -> Source:
        spec = self._spec
        rng = self._rng
        return SourceGenerator(
            SourceSpec(
                source_id=f"{self._label}-{self._seed}-new-{self._serial:06d}",
                focus_categories=tuple(rng.sample(GENERIC_CATEGORIES, 3)),
                latent_popularity=rng.uniform(*LATENT_BANDS["popularity"]),
                latent_engagement=rng.uniform(*LATENT_BANDS["engagement"]),
                latent_stickiness=rng.uniform(*LATENT_BANDS["stickiness"]),
                discussion_budget=spec.discussion_budget,
                user_budget=spec.user_budget,
            ),
            seed=rng.randrange(2**31),
        ).generate()

    def _discussion(self, source_id: str) -> Discussion:
        """A new discussion thread written by the source's own users."""
        rng = self._rng
        text = self._text
        category = rng.choice(GENERIC_CATEGORIES)
        users = self._users[source_id]
        opened = rng.uniform(200.0, 360.0)
        sentiment = rng.uniform(-1.0, 1.0)
        discussion_id = f"{source_id}-{self._label}-{self._serial:06d}"
        discussion = Discussion(
            discussion_id=discussion_id,
            category=category,
            title=text.title(category),
            opened_at=opened,
            is_open=rng.random() >= 0.2,
        )
        for index in range(self._spec.grow_posts):
            discussion.posts.append(
                Post(
                    post_id=f"{discussion_id}-p{index:04d}",
                    author_id=rng.choice(users),
                    day=min(365.0, opened + rng.expovariate(0.5)),
                    text=text.snippet(category, sentiment=sentiment),
                    category=category,
                    tags=text.tags(category, 2),
                    read_count=rng.randrange(5, 80),
                    feedback_count=rng.randrange(0, 8),
                )
            )
        return discussion
