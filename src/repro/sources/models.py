"""Entity model for Web 2.0 sources.

The quality model of the paper observes sources through what a crawler can
see: discussions (threads, blog posts with their comment streams, review
pages), the individual posts and comments inside them, the users who wrote
them, the tags attached to them, and the social interactions (likes, shares,
replies, retweets, mentions, explicit feedback) they triggered.

Timestamps are expressed as *simulation days*: floating point days elapsed
since the start of the simulated observation window (day ``0.0``).  Using a
plain float keeps every generator deterministic and every measure trivially
computable while still supporting the time-based measures of the paper
(age of a discussion thread, new discussions per day, interactions per day).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = [
    "SourceType",
    "AccountKind",
    "InteractionType",
    "UserProfile",
    "Interaction",
    "Post",
    "Discussion",
    "Source",
]


class SourceType(str, Enum):
    """Kind of Web 2.0 source.

    The paper's model is explicitly designed to apply to "any Web 2.0
    resource enabling user-based content creation"; the concrete types here
    cover the classes used in its evaluation (blogs and forums for the
    source study, microblogs and review sites for the mashup case study).
    """

    BLOG = "blog"
    FORUM = "forum"
    MICROBLOG = "microblog"
    REVIEW_SITE = "review_site"
    WIKI = "wiki"
    SOCIAL_NETWORK = "social_network"


class AccountKind(str, Enum):
    """Classification of a contributor account used in Table 4.

    The paper manually annotates the Twitaholic accounts as representing a
    person, a brand/company, or a news source.
    """

    PERSON = "person"
    BRAND = "brand"
    NEWS = "news"


class InteractionType(str, Enum):
    """Social interactions counted by the contributor quality model.

    The paper abstracts from any specific service and counts "any social
    tool available (e.g., the Facebook likes, or the Twitter retweets,
    mentions and shares)" as an interaction.
    """

    COMMENT = "comment"
    REPLY = "reply"
    LIKE = "like"
    SHARE = "share"
    RETWEET = "retweet"
    MENTION = "mention"
    FEEDBACK = "feedback"
    READ = "read"


@dataclass
class UserProfile:
    """A contributor registered on a source or community.

    Attributes
    ----------
    user_id:
        Unique identifier within the corpus / community.
    name:
        Display name.
    registered_at:
        Simulation day on which the account was created.  The contributor
        quality model uses ``age`` (observation day minus registration day)
        as the Time x Breadth measure of Table 2.
    location:
        Free-form location string (matched against the Domain of Interest
        locations, e.g. ``"London"`` or ``"Milan"``).
    account_kind:
        People / brand / news classification (Table 4).
    """

    user_id: str
    name: str
    registered_at: float = 0.0
    location: Optional[str] = None
    account_kind: AccountKind = AccountKind.PERSON

    def age(self, observation_day: float) -> float:
        """Return the account age in days at ``observation_day``."""
        return max(0.0, observation_day - self.registered_at)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "user_id": self.user_id,
            "name": self.name,
            "registered_at": self.registered_at,
            "location": self.location,
            "account_kind": self.account_kind.value,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "UserProfile":
        """Rebuild a profile serialised with :meth:`to_dict`."""
        return cls(
            user_id=payload["user_id"],
            name=payload["name"],
            registered_at=float(payload.get("registered_at", 0.0)),
            location=payload.get("location"),
            account_kind=AccountKind(payload.get("account_kind", "person")),
        )


@dataclass
class Interaction:
    """A single social interaction directed at a post.

    ``actor_id`` is the user performing the interaction; ``target_user_id``
    is the author of the content being interacted with (the user who
    *receives* the interaction, e.g. the mentioned account or the author of
    the retweeted message).
    """

    interaction_type: InteractionType
    actor_id: str
    target_user_id: str
    day: float
    post_id: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "interaction_type": self.interaction_type.value,
            "actor_id": self.actor_id,
            "target_user_id": self.target_user_id,
            "day": self.day,
            "post_id": self.post_id,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Interaction":
        """Rebuild an interaction serialised with :meth:`to_dict`."""
        return cls(
            interaction_type=InteractionType(payload["interaction_type"]),
            actor_id=payload["actor_id"],
            target_user_id=payload["target_user_id"],
            day=float(payload["day"]),
            post_id=payload.get("post_id"),
        )


@dataclass
class Post:
    """A single user contribution: a blog post, forum reply, tweet or review.

    The first post of a :class:`Discussion` is the discussion opener; the
    remaining posts are comments/replies.  ``on_topic`` records whether the
    content is coherent with the category of its discussion — the paper
    treats out-of-scope contributions as accuracy errors.
    """

    post_id: str
    author_id: str
    day: float
    text: str = ""
    category: Optional[str] = None
    tags: tuple[str, ...] = ()
    location: Optional[str] = None
    on_topic: bool = True
    read_count: int = 0
    feedback_count: int = 0
    reply_count: int = 0

    def distinct_tags(self) -> set[str]:
        """Return the set of distinct tags attached to the post."""
        return set(self.tags)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "post_id": self.post_id,
            "author_id": self.author_id,
            "day": self.day,
            "text": self.text,
            "category": self.category,
            "tags": list(self.tags),
            "location": self.location,
            "on_topic": self.on_topic,
            "read_count": self.read_count,
            "feedback_count": self.feedback_count,
            "reply_count": self.reply_count,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Post":
        """Rebuild a post serialised with :meth:`to_dict`."""
        return cls(
            post_id=payload["post_id"],
            author_id=payload["author_id"],
            day=float(payload["day"]),
            text=payload.get("text", ""),
            category=payload.get("category"),
            tags=tuple(payload.get("tags", ())),
            location=payload.get("location"),
            on_topic=bool(payload.get("on_topic", True)),
            read_count=int(payload.get("read_count", 0)),
            feedback_count=int(payload.get("feedback_count", 0)),
            reply_count=int(payload.get("reply_count", 0)),
        )


@dataclass
class Discussion:
    """A discussion thread: an opening post plus its stream of comments."""

    discussion_id: str
    category: str
    title: str
    opened_at: float
    posts: list[Post] = field(default_factory=list)
    is_open: bool = True
    on_topic: bool = True

    @property
    def opener(self) -> Optional[Post]:
        """Return the post that opened the discussion, if any."""
        return self.posts[0] if self.posts else None

    @property
    def comments(self) -> list[Post]:
        """Return the comments, i.e. every post after the opener."""
        return self.posts[1:]

    @property
    def comment_count(self) -> int:
        """Number of comments (excludes the opening post)."""
        return max(0, len(self.posts) - 1)

    def age(self, observation_day: float) -> float:
        """Age of the thread in days at ``observation_day``."""
        return max(0.0, observation_day - self.opened_at)

    def last_activity_day(self) -> float:
        """Day of the most recent post, or the opening day when empty."""
        if not self.posts:
            return self.opened_at
        return max(post.day for post in self.posts)

    def participants(self) -> set[str]:
        """Return the identifiers of every user who posted in the thread."""
        return {post.author_id for post in self.posts}

    def comments_per_day(self, observation_day: float) -> float:
        """Average number of comments per day since the thread was opened."""
        lifetime = max(1.0, self.age(observation_day))
        return self.comment_count / lifetime

    def distinct_tags(self) -> set[str]:
        """Union of the distinct tags across every post in the thread."""
        tags: set[str] = set()
        for post in self.posts:
            tags.update(post.tags)
        return tags

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "discussion_id": self.discussion_id,
            "category": self.category,
            "title": self.title,
            "opened_at": self.opened_at,
            "is_open": self.is_open,
            "on_topic": self.on_topic,
            "posts": [post.to_dict() for post in self.posts],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Discussion":
        """Rebuild a discussion serialised with :meth:`to_dict`."""
        return cls(
            discussion_id=payload["discussion_id"],
            category=payload["category"],
            title=payload["title"],
            opened_at=float(payload["opened_at"]),
            posts=[Post.from_dict(item) for item in payload.get("posts", ())],
            is_open=bool(payload.get("is_open", True)),
            on_topic=bool(payload.get("on_topic", True)),
        )


#: A mutation watcher (see :meth:`Source.watch_mutations`): called with the
#: source and the mutation's delta — ``(at, discussion)`` for
#: ``add_discussion``, ``None`` for every other mutation.
MutationWatcher = Callable[["Source", Optional[tuple[int, Discussion]]], None]


@dataclass
class Source:
    """A Web 2.0 source: a blog, forum, microblog channel or review site.

    Besides the crawlable surface (discussions, users, interactions), a
    source carries three *latent* scalars in ``[0, 1]``:
    ``latent_popularity`` (raw traffic and inbound links),
    ``latent_engagement`` (how much the community participates) and
    ``latent_stickiness`` (how long visitors stay / how rarely they bounce).
    They are not observable by the quality model; they drive the synthetic
    generators and the web-statistics panel simulators (Alexa-like traffic,
    Feedburner-like subscriptions) so that observable measures are
    realistically correlated, exactly as the real panels were correlated
    with real-world popularity, participation and visit depth.
    """

    source_id: str
    name: str
    url: str
    source_type: SourceType
    categories: tuple[str, ...] = ()
    discussions: list[Discussion] = field(default_factory=list)
    #: Profiles keyed by their ``user_id`` (a corpus rejects any other
    #: key); edit it in place through :meth:`add_user`.
    users: dict[str, UserProfile] = field(default_factory=dict)
    interactions: list[Interaction] = field(default_factory=list)
    created_at: float = 0.0
    observation_day: float = 365.0
    latent_popularity: float = 0.5
    latent_engagement: float = 0.5
    latent_stickiness: float = 0.5
    #: Monotonic in-place mutation counter.  Bumped by every mutation helper
    #: and by :meth:`touch`; consumed by the structural fingerprints/probes
    #: in :mod:`repro.perf.cache` so downstream caches (search index, panel
    #: observations, assessment contexts) can detect in-place growth.  It is
    #: transient crawl-time state, not content: excluded from equality and
    #: from serialisation.
    content_revision: int = field(default=0, compare=False)
    #: Monotonic count of *explicit* :meth:`touch` calls (helper growth does
    #: not bump it).  An explicit touch announces an edit the structural
    #: fingerprints cannot localise — "something changed, you cannot tell
    #: what" — so diff-restricted consumers (the contributor model's
    #: per-discussion community walk) fall back to a full re-walk whenever
    #: this counter moved, while structurally visible helper growth keeps
    #: the restricted path.  Transient crawl-time state like
    #: ``content_revision``: excluded from equality and serialisation.
    touch_count: int = field(default=0, compare=False)
    #: Weak references to mutation watchers (see :meth:`watch_mutations`).
    #: Transient wiring, not content: excluded from init, equality, repr and
    #: serialisation.
    _mutation_watchers: list = field(
        default_factory=list, init=False, compare=False, repr=False
    )

    # -- basic content accessors -------------------------------------------------

    def posts(self) -> Iterator[Post]:
        """Iterate over every post of every discussion."""
        for discussion in self.discussions:
            yield from discussion.posts

    def post_count(self) -> int:
        """Total number of posts (openers plus comments)."""
        return sum(len(discussion.posts) for discussion in self.discussions)

    def comment_count(self) -> int:
        """Total number of comments across all discussions."""
        return sum(discussion.comment_count for discussion in self.discussions)

    def open_discussions(self) -> list[Discussion]:
        """Return the discussions that are still open."""
        return [discussion for discussion in self.discussions if discussion.is_open]

    def discussions_in_category(self, category: str) -> list[Discussion]:
        """Return the discussions filed under ``category``."""
        return [
            discussion
            for discussion in self.discussions
            if discussion.category == category
        ]

    def covered_categories(self) -> set[str]:
        """Return the distinct categories actually covered by discussions."""
        return {discussion.category for discussion in self.discussions}

    def contributors(self) -> set[str]:
        """Return the identifiers of users who authored at least one post."""
        return {post.author_id for post in self.posts()}

    def user(self, user_id: str) -> Optional[UserProfile]:
        """Return the profile of ``user_id`` if it is registered here."""
        return self.users.get(user_id)

    # -- activity accessors --------------------------------------------------------

    def interactions_for_user(self, user_id: str) -> list[Interaction]:
        """Interactions *received* by ``user_id`` (they target the user)."""
        return [
            interaction
            for interaction in self.interactions
            if interaction.target_user_id == user_id
        ]

    def interactions_by_user(self, user_id: str) -> list[Interaction]:
        """Interactions *performed* by ``user_id``."""
        return [
            interaction
            for interaction in self.interactions
            if interaction.actor_id == user_id
        ]

    def posts_by_user(self, user_id: str) -> list[Post]:
        """Posts authored by ``user_id``."""
        return [post for post in self.posts() if post.author_id == user_id]

    def discussions_opened_between(self, start: float, end: float) -> list[Discussion]:
        """Discussions opened within ``[start, end]`` (inclusive)."""
        return [
            discussion
            for discussion in self.discussions
            if start <= discussion.opened_at <= end
        ]

    def observation_window(self) -> float:
        """Length of the observation window in days (at least one day)."""
        return max(1.0, self.observation_day - self.created_at)

    # -- mutation announcements ------------------------------------------------------

    def watch_mutations(self, callback: "MutationWatcher") -> None:
        """Register ``callback`` to be invoked after every announced mutation.

        Announced mutations are the mutation helpers below and
        :meth:`touch`; the callback receives the source itself and the
        mutation's *delta* — ``(at, discussion)`` for
        :meth:`add_discussion` (the thread now at index ``at``), ``None``
        for every other mutation, which carries no typed delta.  Bound
        methods are held through a ``WeakMethod`` — the watcher never keeps
        its owner (a corpus, a quality model) alive, and dead entries are
        pruned on the next announcement; plain callables (functions,
        lambdas, partials) are held strongly, so an anonymous watcher is
        never silently garbage-collected out of the list.
        :class:`~repro.sources.corpus.SourceCorpus` registers itself here
        on ``add()``, which is what turns in-place source growth into a
        corpus-level ``CorpusChange`` — the O(1) staleness tier every
        corpus-derived cache keys on.  Registering the same callback twice
        is a no-op.
        """
        entry: Any = (
            weakref.WeakMethod(callback) if hasattr(callback, "__self__") else callback
        )
        if entry not in self._mutation_watchers:
            self._mutation_watchers.append(entry)

    def unwatch_mutations(self, callback: "MutationWatcher") -> None:
        """Remove a previously registered mutation watcher (no-op when unknown)."""
        for entry in list(self._mutation_watchers):
            resolved = entry() if isinstance(entry, weakref.ref) else entry
            if resolved == callback or entry == callback:
                self._mutation_watchers.remove(entry)

    def _announce_mutation(self, delta: Optional[tuple[int, Discussion]] = None) -> None:
        dead: list[Any] = []
        for entry in tuple(self._mutation_watchers):
            if isinstance(entry, weakref.ref):
                watcher = entry()
                if watcher is None:
                    dead.append(entry)
                    continue
            else:
                watcher = entry
            watcher(self, delta)
        for entry in dead:
            if entry in self._mutation_watchers:
                self._mutation_watchers.remove(entry)

    # -- mutation helpers ----------------------------------------------------------

    def touch(self) -> int:
        """Mark the source as mutated in place and return the new revision.

        Use it after edits the mutation helpers cannot see — rewording an
        existing post, changing latent drivers, appending posts directly to
        a :class:`Discussion` — so fingerprint/probe-keyed caches (search
        index, panel observations, assessment contexts) re-derive their
        state from the current content.

        Because an explicit touch carries no information about *where* the
        edit happened, it also bumps :attr:`touch_count`, which tells
        diff-restricted consumers (e.g. the contributor model's
        per-discussion community walk) to fall back to a full re-walk
        instead of trusting their per-discussion fingerprints.
        """
        self.content_revision += 1
        self.touch_count += 1
        self._announce_mutation()
        return self.content_revision

    def add_discussion(self, discussion: Discussion) -> None:
        """Append a discussion thread to the source.

        The one helper that announces a typed delta: watchers receive
        ``(at, discussion)``, where ``at`` is the thread's index, so the
        journal and the sharding wire can carry the thread alone instead
        of the whole source.
        """
        at = len(self.discussions)
        self.discussions.append(discussion)
        self.content_revision += 1
        self._announce_mutation((at, discussion))

    def add_user(self, profile: UserProfile) -> None:
        """Register a user profile on the source."""
        self.users[profile.user_id] = profile
        self.content_revision += 1
        self._announce_mutation()

    def add_interaction(self, interaction: Interaction) -> None:
        """Record a social interaction."""
        self.interactions.append(interaction)
        self.content_revision += 1
        self._announce_mutation()

    def extend_interactions(self, interactions: Iterable[Interaction]) -> None:
        """Record a batch of social interactions."""
        self.interactions.extend(interactions)
        self.content_revision += 1
        self._announce_mutation()

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "source_id": self.source_id,
            "name": self.name,
            "url": self.url,
            "source_type": self.source_type.value,
            "categories": list(self.categories),
            "created_at": self.created_at,
            "observation_day": self.observation_day,
            "latent_popularity": self.latent_popularity,
            "latent_engagement": self.latent_engagement,
            "latent_stickiness": self.latent_stickiness,
            "discussions": [discussion.to_dict() for discussion in self.discussions],
            "users": [profile.to_dict() for profile in self.users.values()],
            "interactions": [interaction.to_dict() for interaction in self.interactions],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Source":
        """Rebuild a source serialised with :meth:`to_dict`."""
        source = cls(
            source_id=payload["source_id"],
            name=payload["name"],
            url=payload["url"],
            source_type=SourceType(payload["source_type"]),
            categories=tuple(payload.get("categories", ())),
            created_at=float(payload.get("created_at", 0.0)),
            observation_day=float(payload.get("observation_day", 365.0)),
            latent_popularity=float(payload.get("latent_popularity", 0.5)),
            latent_engagement=float(payload.get("latent_engagement", 0.5)),
            latent_stickiness=float(payload.get("latent_stickiness", 0.5)),
        )
        source.discussions = [
            Discussion.from_dict(item) for item in payload.get("discussions", ())
        ]
        for item in payload.get("users", ()):
            source.add_user(UserProfile.from_dict(item))
        source.interactions = [
            Interaction.from_dict(item) for item in payload.get("interactions", ())
        ]
        return source
