"""Crawler producing the snapshots consumed by the quality measures.

Most cells of Table 1 and Table 2 of the paper are sourced from "crawling":
counting discussions, comments, tags, users and interactions on the source
itself.  The :class:`Crawler` walks a :class:`~repro.sources.models.Source`
and produces two kinds of snapshots:

* :class:`CrawlSnapshot` — source-level aggregates (per-category discussion
  and comment counts, thread ages, tag richness, opening rates, ...);
* :class:`ContributorSnapshot` — per-user aggregates (posts and comments per
  category, interactions received/performed, replies, feedback, reads, ...).

The measure functions in :mod:`repro.core.source_measures` and
:mod:`repro.core.contributor_measures` are pure functions over these
snapshots (plus the panel observations and the Domain of Interest), which
keeps them independent from how content was obtained — crawled from a live
site in the paper, generated synthetically here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.errors import UnknownUserError
from repro.sources.diffing import (
    diff_fingerprint_maps,
    discussion_fingerprint,
    discussion_fingerprint_map,
)
from repro.sources.models import Discussion, Interaction, InteractionType, Source

__all__ = ["CrawlSnapshot", "ContributorSnapshot", "CommunityWalkCache", "Crawler"]


@dataclass
class CrawlSnapshot:
    """Source-level aggregates observable by crawling one source."""

    source_id: str
    observation_day: float
    window_days: float
    total_discussions: int
    open_discussions: int
    on_topic_open_discussions: int
    covered_categories: tuple[str, ...]
    discussions_per_category: dict[str, int]
    open_discussions_per_category: dict[str, int]
    comments_per_category: dict[str, int]
    total_comments: int
    total_posts: int
    contributor_count: int
    average_thread_age: float
    average_distinct_tags_per_post: float
    new_discussions_per_day: float
    average_comments_per_discussion: float
    average_comments_per_discussion_per_day: float
    comments_per_user: float

    # -- derived helpers -----------------------------------------------------------

    def discussions_in_categories(self, categories: Iterable[str]) -> int:
        """Total number of discussions filed under any of ``categories``."""
        return sum(self.discussions_per_category.get(name, 0) for name in categories)

    def open_discussions_in_categories(self, categories: Iterable[str]) -> int:
        """Open discussions filed under any of ``categories``."""
        return sum(
            self.open_discussions_per_category.get(name, 0) for name in categories
        )

    def comments_in_categories(self, categories: Iterable[str]) -> int:
        """Comments posted in discussions filed under any of ``categories``."""
        return sum(self.comments_per_category.get(name, 0) for name in categories)

    def covered(self, categories: Iterable[str]) -> set[str]:
        """Subset of ``categories`` actually covered by at least one discussion."""
        available = set(self.covered_categories)
        return {name for name in categories if name in available}

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "source_id": self.source_id,
            "observation_day": self.observation_day,
            "window_days": self.window_days,
            "total_discussions": self.total_discussions,
            "open_discussions": self.open_discussions,
            "on_topic_open_discussions": self.on_topic_open_discussions,
            "covered_categories": list(self.covered_categories),
            "discussions_per_category": dict(self.discussions_per_category),
            "open_discussions_per_category": dict(self.open_discussions_per_category),
            "comments_per_category": dict(self.comments_per_category),
            "total_comments": self.total_comments,
            "total_posts": self.total_posts,
            "contributor_count": self.contributor_count,
            "average_thread_age": self.average_thread_age,
            "average_distinct_tags_per_post": self.average_distinct_tags_per_post,
            "new_discussions_per_day": self.new_discussions_per_day,
            "average_comments_per_discussion": self.average_comments_per_discussion,
            "average_comments_per_discussion_per_day": self.average_comments_per_discussion_per_day,
            "comments_per_user": self.comments_per_user,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CrawlSnapshot":
        """Rebuild a snapshot serialised with :meth:`to_dict` (bit-exact floats).

        ``covered_categories`` comes back as a tuple so the restored
        dataclass compares equal to a freshly crawled one.
        """
        data = dict(payload)
        data["covered_categories"] = tuple(data.get("covered_categories", ()))
        return cls(**data)


@dataclass
class ContributorSnapshot:
    """Per-user aggregates observable by crawling a source or community."""

    user_id: str
    source_id: str
    observation_day: float
    account_age: float
    comments_per_category: dict[str, int]
    covered_categories: tuple[str, ...]
    open_discussions: int
    discussions_participated: int
    total_posts: int
    total_comments: int
    interactions_performed: int
    interactions_received: int
    replies_received: int
    feedback_received: int
    reads_received: int
    average_distinct_tags_per_post: float
    interactions_per_day: float
    interactions_per_counterpart: float
    comments_per_discussion: float
    interactions_per_discussion_per_day: float

    def comments_in_categories(self, categories: Iterable[str]) -> int:
        """Comments this user posted under any of ``categories``."""
        return sum(self.comments_per_category.get(name, 0) for name in categories)

    def covered(self, categories: Iterable[str]) -> set[str]:
        """Subset of ``categories`` this user has contributed to."""
        available = set(self.covered_categories)
        return {name for name in categories if name in available}

    @property
    def replies_per_comment(self) -> float:
        """Average number of replies received per authored post."""
        if self.total_posts == 0:
            return 0.0
        return self.replies_received / self.total_posts

    @property
    def feedback_per_comment(self) -> float:
        """Average number of feedback interactions received per authored post."""
        if self.total_posts == 0:
            return 0.0
        return self.feedback_received / self.total_posts

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "user_id": self.user_id,
            "source_id": self.source_id,
            "observation_day": self.observation_day,
            "account_age": self.account_age,
            "comments_per_category": dict(self.comments_per_category),
            "covered_categories": list(self.covered_categories),
            "open_discussions": self.open_discussions,
            "discussions_participated": self.discussions_participated,
            "total_posts": self.total_posts,
            "total_comments": self.total_comments,
            "interactions_performed": self.interactions_performed,
            "interactions_received": self.interactions_received,
            "replies_received": self.replies_received,
            "feedback_received": self.feedback_received,
            "reads_received": self.reads_received,
            "average_distinct_tags_per_post": self.average_distinct_tags_per_post,
            "interactions_per_day": self.interactions_per_day,
            "interactions_per_counterpart": self.interactions_per_counterpart,
            "comments_per_discussion": self.comments_per_discussion,
            "interactions_per_discussion_per_day": self.interactions_per_discussion_per_day,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ContributorSnapshot":
        """Rebuild a snapshot serialised with :meth:`to_dict` (bit-exact floats)."""
        data = dict(payload)
        data["covered_categories"] = tuple(data.get("covered_categories", ()))
        return cls(**data)


@dataclass
class _DiscussionFragment:
    """Per-discussion contributor aggregates, reusable across community walks.

    A fragment is a pure function of one discussion's content: what every
    participating user posted there (post/comment/read counts, per-category
    counts, tag counts in post order).  The batched community crawl merges
    fragments in discussion order, so recomputing only the *changed*
    discussions' fragments and reusing the rest produces snapshots that are
    bit-identical to a full walk.  The fragment stores the discussion
    object itself: its fingerprint embeds ``id(discussion)``, which must
    not be reused by a new object while the fragment lives.
    """

    discussion: Discussion
    fingerprint: tuple
    is_open: bool
    #: user -> (posts, comments, reads received, per-category post counts,
    #: distinct-tag counts in post order).
    contributions: dict[str, tuple[int, int, int, dict[str, int], tuple[int, ...]]]


@dataclass
class CommunityWalkCache:
    """Reusable state of one source's batched community walk (ROADMAP (e)).

    Owned by a :class:`~repro.core.contributor_quality.ContributorQualityModel`
    incremental entry and threaded into
    :meth:`Crawler.crawl_contributors_batched`: per-discussion fragments
    keyed by discussion identifier (diffed against the current discussion
    fingerprints so only touched threads are re-walked), the
    received/performed interaction tables (reused while the interaction
    count is unchanged), and the source's
    :attr:`~repro.sources.models.Source.touch_count` at the last walk — an
    explicit ``touch()`` cannot be localised to a discussion, so a moved
    count forces a full re-walk.  :attr:`last_stats` reports what the most
    recent walk actually did (consumed by the model's perf counters).
    """

    fragments: dict[str, _DiscussionFragment] = field(default_factory=dict)
    interactions_len: int = -1
    received: dict[str, list[Interaction]] = field(default_factory=dict)
    performed: dict[str, list[Interaction]] = field(default_factory=dict)
    touch_count: int = -1
    last_stats: dict[str, int] = field(default_factory=dict)


class Crawler:
    """Walk sources and produce the snapshots used by the quality measures."""

    #: Interaction types counted as "replies" received by a contributor.
    REPLY_TYPES = frozenset({InteractionType.REPLY, InteractionType.COMMENT,
                             InteractionType.MENTION})

    #: Interaction types counted as explicit "feedback".
    FEEDBACK_TYPES = frozenset({InteractionType.FEEDBACK, InteractionType.LIKE,
                                InteractionType.RETWEET, InteractionType.SHARE})

    def crawl_source(self, source: Source) -> CrawlSnapshot:
        """Produce the source-level snapshot for ``source``."""
        observation_day = source.observation_day
        window = source.observation_window()

        discussions = source.discussions
        open_discussions = [d for d in discussions if d.is_open]
        on_topic_open = [d for d in open_discussions if d.on_topic]

        discussions_per_category: dict[str, int] = defaultdict(int)
        open_per_category: dict[str, int] = defaultdict(int)
        comments_per_category: dict[str, int] = defaultdict(int)
        thread_ages: list[float] = []
        comments_per_discussion: list[float] = []
        comments_per_discussion_per_day: list[float] = []

        total_comments = 0
        total_posts = 0
        tag_counts: list[int] = []

        for discussion in discussions:
            discussions_per_category[discussion.category] += 1
            if discussion.is_open:
                open_per_category[discussion.category] += 1
            comments_per_category[discussion.category] += discussion.comment_count
            total_comments += discussion.comment_count
            total_posts += len(discussion.posts)
            thread_ages.append(discussion.age(observation_day))
            comments_per_discussion.append(float(discussion.comment_count))
            comments_per_discussion_per_day.append(
                discussion.comments_per_day(observation_day)
            )
            for post in discussion.posts:
                tag_counts.append(len(post.distinct_tags()))

        contributors = source.contributors()
        contributor_count = len(contributors)

        return CrawlSnapshot(
            source_id=source.source_id,
            observation_day=observation_day,
            window_days=window,
            total_discussions=len(discussions),
            open_discussions=len(open_discussions),
            on_topic_open_discussions=len(on_topic_open),
            covered_categories=tuple(sorted(discussions_per_category)),
            discussions_per_category=dict(discussions_per_category),
            open_discussions_per_category=dict(open_per_category),
            comments_per_category=dict(comments_per_category),
            total_comments=total_comments,
            total_posts=total_posts,
            contributor_count=contributor_count,
            average_thread_age=_mean(thread_ages),
            average_distinct_tags_per_post=_mean([float(c) for c in tag_counts]),
            new_discussions_per_day=len(discussions) / window,
            average_comments_per_discussion=_mean(comments_per_discussion),
            average_comments_per_discussion_per_day=_mean(comments_per_discussion_per_day),
            comments_per_user=(total_comments / contributor_count) if contributor_count else 0.0,
        )

    def crawl_corpus(self, sources: Iterable[Source]) -> dict[str, CrawlSnapshot]:
        """Crawl every source; return snapshots keyed by source identifier."""
        return {source.source_id: self.crawl_source(source) for source in sources}

    # -- contributors ---------------------------------------------------------------

    @staticmethod
    def _discussion_fragment(discussion: Discussion) -> _DiscussionFragment:
        """Compute one discussion's per-user contribution fragment.

        The aggregation mirrors the original single-pass loop exactly
        (per-user iteration in first-post order, tag counts in post order),
        so merging fragments reproduces the full walk bit for bit.
        """
        authored_here: dict[str, list] = {}
        for post in discussion.posts:
            authored_here.setdefault(post.author_id, []).append(post)
        comments_here: dict[str, int] = defaultdict(int)
        for post in discussion.comments:
            comments_here[post.author_id] += 1
        contributions: dict[str, tuple[int, int, int, dict[str, int], tuple[int, ...]]] = {}
        for user_id, posts in authored_here.items():
            post_count = 0
            reads = 0
            categories: dict[str, int] = {}
            tag_counts: list[int] = []
            for post in posts:
                post_count += 1
                if post.category:
                    categories[post.category] = categories.get(post.category, 0) + 1
                tag_counts.append(len(post.distinct_tags()))
                reads += post.read_count
            contributions[user_id] = (
                post_count,
                comments_here[user_id],
                reads,
                categories,
                tuple(tag_counts),
            )
        return _DiscussionFragment(
            discussion=discussion,
            fingerprint=discussion_fingerprint(discussion),
            is_open=discussion.is_open,
            contributions=contributions,
        )

    def crawl_contributors_batched(
        self,
        source: Source,
        user_ids: Optional[Iterable[str]] = None,
        walk: Optional[CommunityWalkCache] = None,
    ) -> dict[str, ContributorSnapshot]:
        """Crawl a set of contributors (every contributor when ``user_ids`` is None).

        Walks the discussions once and the interactions once, accumulating
        every contributor's aggregates simultaneously — O(D+P+I) instead of
        the O(U·(D+P+I)) of walking the source once per contributor.
        Per-user float accumulations (tag counts, comments per discussion)
        are appended in the same (discussion, post) order a per-user walk
        visits, so every snapshot is *identical* to that walk's, float for
        float (its oracle, ``crawl_contributors`` in
        ``tests/_reference.py``, pins this).

        ``walk`` is the source's :class:`CommunityWalkCache`; without one
        the call walks with a fresh cache, which walks everything.  A warm
        cache makes the walk *diff-restricted*: the current per-discussion
        fingerprints are diffed against the cached fragments'
        (:func:`~repro.sources.diffing.diff_fingerprint_maps` over
        :func:`~repro.sources.diffing.discussion_fingerprint` maps) and
        only added/changed discussions are re-walked at post granularity;
        unchanged fragments and the interaction tables (while the
        interaction count is unchanged) are reused, then merged in
        discussion order so the result stays bit-identical to an
        unrestricted walk.  Two cases force a full re-walk: a moved
        ``source.touch_count`` (an explicit ``touch()`` cannot be localised
        to a discussion) and duplicate discussion identifiers (the fragment
        map would alias).  The cache is updated in place and reports what
        the walk did in ``walk.last_stats``.
        """
        if walk is None:
            walk = CommunityWalkCache()
        observation_day = source.observation_day
        discussions = source.discussions
        discussion_ids = [discussion.discussion_id for discussion in discussions]
        unique_ids = len(set(discussion_ids)) == len(discussion_ids)
        full_walk = not unique_ids or walk.touch_count != source.touch_count

        reused = 0
        if full_walk:
            fragments = [self._discussion_fragment(d) for d in discussions]
            walked = len(fragments)
        else:
            previous_fps = {
                discussion_id: fragment.fingerprint
                for discussion_id, fragment in walk.fragments.items()
            }
            current_fps = discussion_fingerprint_map(source)
            stale = set(diff_fingerprint_maps(previous_fps, current_fps).touched)
            fragments = []
            for discussion in discussions:
                if discussion.discussion_id in stale:
                    fragments.append(self._discussion_fragment(discussion))
                else:
                    fragments.append(walk.fragments[discussion.discussion_id])
                    reused += 1
            walked = len(stale)

        per_user_posts: dict[str, int] = defaultdict(int)
        per_user_comments: dict[str, int] = defaultdict(int)
        per_user_participated: dict[str, int] = defaultdict(int)
        per_user_open: dict[str, int] = defaultdict(int)
        per_user_reads: dict[str, int] = defaultdict(int)
        per_user_categories: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        per_user_tag_counts: dict[str, list[int]] = defaultdict(list)
        per_user_comments_per_discussion: dict[str, list[float]] = defaultdict(list)

        for fragment in fragments:
            for user_id, (
                post_count,
                comments,
                reads,
                categories,
                tag_counts,
            ) in fragment.contributions.items():
                per_user_participated[user_id] += 1
                if fragment.is_open:
                    per_user_open[user_id] += 1
                per_user_comments[user_id] += comments
                per_user_comments_per_discussion[user_id].append(float(comments))
                merged_categories = per_user_categories[user_id]
                for name, count in categories.items():
                    merged_categories[name] += count
                per_user_tag_counts[user_id].extend(tag_counts)
                per_user_posts[user_id] += post_count
                per_user_reads[user_id] += reads

        if full_walk or len(source.interactions) != walk.interactions_len:
            received: dict[str, list[Interaction]] = defaultdict(list)
            performed: dict[str, list[Interaction]] = defaultdict(list)
            for interaction in source.interactions:
                received[interaction.target_user_id].append(interaction)
                performed[interaction.actor_id].append(interaction)
            interactions_rewalked = 1
        else:
            received = walk.received
            performed = walk.performed
            interactions_rewalked = 0

        walk.fragments = (
            {fragment.discussion.discussion_id: fragment for fragment in fragments}
            if unique_ids
            else {}
        )
        walk.interactions_len = len(source.interactions)
        walk.received = received
        walk.performed = performed
        walk.touch_count = source.touch_count
        walk.last_stats = {
            "discussions_walked": walked,
            "discussions_reused": reused,
            "full_walk": 1 if full_walk else 0,
            "interactions_rewalked": interactions_rewalked,
        }

        if user_ids is None:
            user_ids = sorted(per_user_posts)

        snapshots: dict[str, ContributorSnapshot] = {}
        for user_id in user_ids:
            profile = source.user(user_id)
            if profile is None and user_id not in per_user_posts:
                raise UnknownUserError(user_id)
            account_age = (
                profile.age(observation_day)
                if profile is not None
                else source.observation_window()
            )
            user_received = received.get(user_id, [])
            user_performed = performed.get(user_id, [])
            replies_received = sum(
                1 for item in user_received if item.interaction_type in self.REPLY_TYPES
            )
            feedback_received = sum(
                1
                for item in user_received
                if item.interaction_type in self.FEEDBACK_TYPES
            )
            counterparts = {item.actor_id for item in user_received} | {
                item.target_user_id for item in user_performed
            }
            counterparts.discard(user_id)
            total_interactions = len(user_received) + len(user_performed)
            window = max(1.0, account_age)
            discussions_participated = per_user_participated.get(user_id, 0)

            interactions_per_discussion_per_day = 0.0
            if discussions_participated:
                interactions_per_discussion_per_day = (
                    total_interactions / discussions_participated / window
                )

            categories = per_user_categories.get(user_id, {})
            snapshots[user_id] = ContributorSnapshot(
                user_id=user_id,
                source_id=source.source_id,
                observation_day=observation_day,
                account_age=account_age,
                comments_per_category=dict(categories),
                covered_categories=tuple(sorted(categories)),
                open_discussions=per_user_open.get(user_id, 0),
                discussions_participated=discussions_participated,
                total_posts=per_user_posts.get(user_id, 0),
                total_comments=per_user_comments.get(user_id, 0),
                interactions_performed=len(user_performed),
                interactions_received=len(user_received),
                replies_received=replies_received,
                feedback_received=feedback_received,
                reads_received=per_user_reads.get(user_id, 0),
                average_distinct_tags_per_post=_mean(
                    [float(count) for count in per_user_tag_counts.get(user_id, [])]
                ),
                interactions_per_day=total_interactions / window,
                interactions_per_counterpart=(
                    total_interactions / len(counterparts) if counterparts else 0.0
                ),
                comments_per_discussion=_mean(
                    per_user_comments_per_discussion.get(user_id, [])
                ),
                interactions_per_discussion_per_day=interactions_per_discussion_per_day,
            )
        return snapshots


def _mean(values: list[float]) -> float:
    """Arithmetic mean that returns 0.0 for an empty list."""
    if not values:
        return 0.0
    return sum(values) / len(values)
