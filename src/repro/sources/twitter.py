"""Microblog (Twitter-like) community substrate.

The contributor-quality validation of the paper (Section 4.2, Table 4) runs
on 813 influential London Twitter accounts collected through Twitaholic and
manually labelled as *people*, *brand* or *news*.  Neither Twitaholic nor
the 2011 Twitter API is reachable offline, so this module provides:

* an account/tweet data model rich enough for every Table 2 measure;
* a seeded generator (:class:`MicroblogGenerator`) producing communities
  whose class-conditional statistics follow the behaviour documented by the
  paper and by Cha et al. (ICWSM 2010): news sources dominate retweet
  volume, people dominate mention volume, brands generate fewer
  interactions, volumes span roughly four orders of magnitude, and relative
  (per-tweet) measures are far noisier than absolute ones;
* :class:`TwitaholicLikeService`, which ranks accounts the way the
  Twitaholic leaderboard did (by audience and activity) and returns the top
  *N* for a location;
* a converter from a community to a generic
  :class:`~repro.sources.models.Source` so the same quality machinery and
  mashup data services can consume microblog content.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.errors import ConfigurationError, UnknownUserError
from repro.sources.text import TextGenerator, default_vocabularies
from repro.sources.models import (
    AccountKind,
    Discussion,
    Interaction,
    InteractionType,
    Post,
    Source,
    SourceType,
    UserProfile,
)

__all__ = [
    "MicroblogAccount",
    "Tweet",
    "MicroblogCommunity",
    "ClassProfile",
    "MicroblogSpec",
    "MicroblogGenerator",
    "TwitaholicLikeService",
    "AccountActivity",
]


@dataclass
class MicroblogAccount:
    """A microblog account (one row of the Twitaholic-style dataset)."""

    account_id: str
    handle: str
    kind: AccountKind
    location: str = "London"
    registered_at: float = 0.0
    followers: int = 0
    following: int = 0

    def to_profile(self) -> UserProfile:
        """Convert to the generic :class:`UserProfile` used by sources."""
        return UserProfile(
            user_id=self.account_id,
            name=self.handle,
            registered_at=self.registered_at,
            location=self.location,
            account_kind=self.kind,
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "account_id": self.account_id,
            "handle": self.handle,
            "kind": self.kind.value,
            "location": self.location,
            "registered_at": self.registered_at,
            "followers": self.followers,
            "following": self.following,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MicroblogAccount":
        """Rebuild an account serialised with :meth:`to_dict`."""
        return cls(
            account_id=payload["account_id"],
            handle=payload["handle"],
            kind=AccountKind(payload["kind"]),
            location=payload.get("location", "London"),
            registered_at=float(payload.get("registered_at", 0.0)),
            followers=int(payload.get("followers", 0)),
            following=int(payload.get("following", 0)),
        )


@dataclass
class Tweet:
    """A single microblog message."""

    tweet_id: str
    author_id: str
    day: float
    text: str = ""
    category: Optional[str] = None
    tags: tuple[str, ...] = ()
    mentions: tuple[str, ...] = ()
    retweet_of: Optional[str] = None
    location: Optional[str] = None
    read_count: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "tweet_id": self.tweet_id,
            "author_id": self.author_id,
            "day": self.day,
            "text": self.text,
            "category": self.category,
            "tags": list(self.tags),
            "mentions": list(self.mentions),
            "retweet_of": self.retweet_of,
            "location": self.location,
            "read_count": self.read_count,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Tweet":
        """Rebuild a tweet serialised with :meth:`to_dict`."""
        return cls(
            tweet_id=payload["tweet_id"],
            author_id=payload["author_id"],
            day=float(payload["day"]),
            text=payload.get("text", ""),
            category=payload.get("category"),
            tags=tuple(payload.get("tags", ())),
            mentions=tuple(payload.get("mentions", ())),
            retweet_of=payload.get("retweet_of"),
            location=payload.get("location"),
            read_count=int(payload.get("read_count", 0)),
        )


@dataclass(frozen=True)
class AccountActivity:
    """The five observables Table 4 compares across account classes.

    ``interactions`` is the number of generated tweets (including retweets),
    which is how the paper instantiates the activity attribute on Twitter;
    absolute mentions/retweets are the interactions *received*; relative
    values are averaged per authored tweet.
    """

    account_id: str
    kind: AccountKind
    interactions: int
    mentions_received: int
    retweets_received: int

    @property
    def relative_mentions(self) -> float:
        """Average number of mentions (replies) received per authored tweet."""
        if self.interactions == 0:
            return 0.0
        return self.mentions_received / self.interactions

    @property
    def relative_retweets(self) -> float:
        """Average number of retweets (feedback) received per authored tweet."""
        if self.interactions == 0:
            return 0.0
        return self.retweets_received / self.interactions

    def measure(self, name: str) -> float:
        """Return one of the five observables by name.

        Valid names: ``interactions``, ``mentions``, ``retweets``,
        ``relative_mentions``, ``relative_retweets``.
        """
        if name == "interactions":
            return float(self.interactions)
        if name == "mentions":
            return float(self.mentions_received)
        if name == "retweets":
            return float(self.retweets_received)
        if name == "relative_mentions":
            return self.relative_mentions
        if name == "relative_retweets":
            return self.relative_retweets
        raise KeyError(f"unknown activity measure: {name!r}")


class MicroblogCommunity:
    """A set of accounts plus the tweets and interactions among them."""

    def __init__(self, name: str = "microblog", observation_day: float = 365.0) -> None:
        self.name = name
        self.observation_day = observation_day
        self._accounts: dict[str, MicroblogAccount] = {}
        self._tweets: list[Tweet] = []
        self._tweets_by_author: dict[str, list[Tweet]] = {}
        self._mentions_received: dict[str, int] = {}
        self._retweets_received: dict[str, int] = {}

    # -- accessors ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._accounts)

    def __iter__(self) -> Iterator[MicroblogAccount]:
        return iter(self._accounts.values())

    def accounts(self) -> list[MicroblogAccount]:
        """Return every account in insertion order."""
        return list(self._accounts.values())

    def account(self, account_id: str) -> MicroblogAccount:
        """Return the account with the given identifier."""
        try:
            return self._accounts[account_id]
        except KeyError as exc:
            raise UnknownUserError(account_id) from exc

    def tweets(self) -> list[Tweet]:
        """Return every tweet."""
        return list(self._tweets)

    def tweets_by(self, account_id: str) -> list[Tweet]:
        """Return the tweets authored by ``account_id``."""
        return list(self._tweets_by_author.get(account_id, ()))

    def mentions_received(self, account_id: str) -> int:
        """Number of mentions/replies received by ``account_id``."""
        return self._mentions_received.get(account_id, 0)

    def retweets_received(self, account_id: str) -> int:
        """Number of retweets received by ``account_id``."""
        return self._retweets_received.get(account_id, 0)

    # -- mutation ------------------------------------------------------------------

    def add_account(self, account: MicroblogAccount) -> None:
        """Register an account (overwrites an existing one with the same id)."""
        self._accounts[account.account_id] = account

    def add_tweet(self, tweet: Tweet) -> None:
        """Record a tweet and update the received-interaction counters."""
        if tweet.author_id not in self._accounts:
            raise UnknownUserError(tweet.author_id)
        self._tweets.append(tweet)
        self._tweets_by_author.setdefault(tweet.author_id, []).append(tweet)
        for mentioned in tweet.mentions:
            if mentioned != tweet.author_id:
                self._mentions_received[mentioned] = (
                    self._mentions_received.get(mentioned, 0) + 1
                )
        if tweet.retweet_of is not None and tweet.retweet_of != tweet.author_id:
            self._retweets_received[tweet.retweet_of] = (
                self._retweets_received.get(tweet.retweet_of, 0) + 1
            )

    def record_received(
        self, account_id: str, mentions: int = 0, retweets: int = 0
    ) -> None:
        """Record interactions received from outside the modelled community.

        The Twitaholic dataset counts mentions/retweets coming from the whole
        of Twitter, not only from the 813 accounts; generators use this hook
        to add that externally-originated volume without materialising
        millions of tweets.
        """
        if account_id not in self._accounts:
            raise UnknownUserError(account_id)
        if mentions:
            self._mentions_received[account_id] = (
                self._mentions_received.get(account_id, 0) + int(mentions)
            )
        if retweets:
            self._retweets_received[account_id] = (
                self._retweets_received.get(account_id, 0) + int(retweets)
            )

    # -- analysis ------------------------------------------------------------------

    def activity(self, account_id: str) -> AccountActivity:
        """Return the Table 4 observables for one account."""
        account = self.account(account_id)
        return AccountActivity(
            account_id=account_id,
            kind=account.kind,
            interactions=len(self._tweets_by_author.get(account_id, ())),
            mentions_received=self.mentions_received(account_id),
            retweets_received=self.retweets_received(account_id),
        )

    def activities(self) -> list[AccountActivity]:
        """Return the Table 4 observables for every account."""
        return [self.activity(account.account_id) for account in self]

    # -- conversion -----------------------------------------------------------------

    def to_source(self, source_id: Optional[str] = None) -> Source:
        """Expose the community as a generic :class:`Source`.

        Each account's timeline becomes a discussion whose opener is the
        account's first tweet; mentions and retweets become interactions, so
        the generic contributor measures (Table 2) and the mashup data
        services can run unchanged on microblog content.
        """
        source = Source(
            source_id=source_id or f"{self.name}",
            name=self.name,
            url=f"https://{self.name}.example.org",
            source_type=SourceType.MICROBLOG,
            observation_day=self.observation_day,
        )
        for account in self:
            source.add_user(account.to_profile())

        for account in self:
            timeline = self.tweets_by(account.account_id)
            if not timeline:
                continue
            timeline = sorted(timeline, key=lambda tweet: tweet.day)
            discussion = Discussion(
                discussion_id=f"{source.source_id}-{account.account_id}-timeline",
                category=timeline[0].category or "timeline",
                title=f"Timeline of {account.handle}",
                opened_at=timeline[0].day,
            )
            for tweet in timeline:
                discussion.posts.append(
                    Post(
                        post_id=tweet.tweet_id,
                        author_id=tweet.author_id,
                        day=tweet.day,
                        text=tweet.text,
                        category=tweet.category,
                        tags=tweet.tags,
                        location=tweet.location,
                        read_count=tweet.read_count,
                    )
                )
            source.add_discussion(discussion)

        for tweet in self._tweets:
            for mentioned in tweet.mentions:
                if mentioned == tweet.author_id:
                    continue
                source.add_interaction(
                    Interaction(
                        interaction_type=InteractionType.MENTION,
                        actor_id=tweet.author_id,
                        target_user_id=mentioned,
                        day=tweet.day,
                        post_id=tweet.tweet_id,
                    )
                )
            if tweet.retweet_of is not None and tweet.retweet_of != tweet.author_id:
                source.add_interaction(
                    Interaction(
                        interaction_type=InteractionType.RETWEET,
                        actor_id=tweet.author_id,
                        target_user_id=tweet.retweet_of,
                        day=tweet.day,
                        post_id=tweet.tweet_id,
                    )
                )
        return source

    # -- serialisation ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "name": self.name,
            "observation_day": self.observation_day,
            "accounts": [account.to_dict() for account in self],
            "tweets": [tweet.to_dict() for tweet in self._tweets],
            "external_mentions": dict(self._mentions_received),
            "external_retweets": dict(self._retweets_received),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MicroblogCommunity":
        """Rebuild a community serialised with :meth:`to_dict`.

        Received-interaction counters are restored verbatim (they already
        include the contribution of the serialised tweets).
        """
        community = cls(
            name=payload.get("name", "microblog"),
            observation_day=float(payload.get("observation_day", 365.0)),
        )
        for item in payload.get("accounts", ()):
            community.add_account(MicroblogAccount.from_dict(item))
        for item in payload.get("tweets", ()):
            tweet = Tweet.from_dict(item)
            community._tweets.append(tweet)
            community._tweets_by_author.setdefault(tweet.author_id, []).append(tweet)
        community._mentions_received = {
            key: int(value) for key, value in payload.get("external_mentions", {}).items()
        }
        community._retweets_received = {
            key: int(value) for key, value in payload.get("external_retweets", {}).items()
        }
        return community


@dataclass(frozen=True)
class ClassProfile:
    """Behavioural profile of one account class (people / brand / news).

    The means are the medians of log-normal distributions; ``sigma`` values
    control the spread (a sigma of ~1.0 already spans about two orders of
    magnitude between the 2.5th and 97.5th percentile, so the three classes
    together cover the roughly four orders of magnitude reported by the
    paper).
    """

    kind: AccountKind
    share: float
    tweet_volume: float
    mention_volume: float
    retweet_volume: float
    follower_volume: float = 50_000.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` when the profile is invalid."""
        if not 0.0 < self.share <= 1.0:
            raise ConfigurationError("class share must be in (0, 1]")
        for name in ("tweet_volume", "mention_volume", "retweet_volume", "follower_volume"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


#: Default class profiles, tuned so the generated data reproduces the shape
#: of Table 4: people and news tweet comparably and far more than brands,
#: people receive the most mentions, news receive by far the most retweets.
DEFAULT_CLASS_PROFILES: tuple[ClassProfile, ...] = (
    ClassProfile(
        kind=AccountKind.PERSON,
        share=0.45,
        tweet_volume=420.0,
        mention_volume=950.0,
        retweet_volume=420.0,
        follower_volume=80_000.0,
    ),
    ClassProfile(
        kind=AccountKind.NEWS,
        share=0.25,
        tweet_volume=400.0,
        mention_volume=380.0,
        retweet_volume=2100.0,
        follower_volume=150_000.0,
    ),
    ClassProfile(
        kind=AccountKind.BRAND,
        share=0.30,
        tweet_volume=130.0,
        mention_volume=300.0,
        retweet_volume=380.0,
        follower_volume=60_000.0,
    ),
)


@dataclass(frozen=True)
class MicroblogSpec:
    """Configuration for the microblog community generator."""

    account_count: int = 813
    seed: int = 23
    location: str = "London"
    observation_day: float = 365.0
    class_profiles: tuple[ClassProfile, ...] = DEFAULT_CLASS_PROFILES
    volume_sigma: float = 0.95
    reaction_sigma: float = 1.35
    visibility_sigma: float = 1.05
    categories: tuple[str, ...] = ("news", "lifestyle", "sports", "music", "travel")
    sample_tweet_count: int = 12

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the spec is inconsistent."""
        if self.account_count < 3:
            raise ConfigurationError("account_count must be >= 3")
        if not self.class_profiles:
            raise ConfigurationError("class_profiles must not be empty")
        total_share = sum(profile.share for profile in self.class_profiles)
        if not math.isclose(total_share, 1.0, rel_tol=0.05):
            raise ConfigurationError("class shares must sum to ~1.0")
        for profile in self.class_profiles:
            profile.validate()
        for name in ("volume_sigma", "reaction_sigma", "visibility_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.sample_tweet_count < 1:
            raise ConfigurationError("sample_tweet_count must be >= 1")


class MicroblogGenerator:
    """Generate a :class:`MicroblogCommunity` from a :class:`MicroblogSpec`.

    Interaction volumes are generated per account: the number of authored
    tweets and the mention/retweet counts received are drawn from class-
    conditional log-normal distributions modulated by a per-account
    *visibility* factor shared by mentions and retweets.  A small sample of
    concrete tweets is materialised per account (enough for content-based
    components); the remaining volume is recorded through the community's
    external-interaction counters, mirroring the fact that Twitaholic counts
    reactions coming from the whole of Twitter.
    """

    def __init__(self, spec: MicroblogSpec = MicroblogSpec()) -> None:
        spec.validate()
        self._spec = spec
        self._rng = random.Random(spec.seed)
        self._text = TextGenerator(
            self._rng, default_vocabularies(sorted(set(spec.categories)))
        )

    @property
    def spec(self) -> MicroblogSpec:
        """Return the spec this generator was built from."""
        return self._spec

    def _lognormal(self, median: float, sigma: float) -> float:
        """Draw a log-normal value with the given median."""
        if median <= 0:
            return 0.0
        return self._rng.lognormvariate(math.log(median), sigma)

    def _assign_kinds(self) -> list[ClassProfile]:
        """Assign a class profile to every account index."""
        spec = self._spec
        assignments: list[ClassProfile] = []
        for profile in spec.class_profiles:
            count = int(round(profile.share * spec.account_count))
            assignments.extend([profile] * count)
        # Fix rounding drift by padding / trimming with the first profile.
        while len(assignments) < spec.account_count:
            assignments.append(spec.class_profiles[0])
        del assignments[spec.account_count:]
        self._rng.shuffle(assignments)
        return assignments

    def generate(self) -> MicroblogCommunity:
        """Generate the community."""
        spec = self._spec
        community = MicroblogCommunity(
            name=f"microblog-{spec.location.lower()}",
            observation_day=spec.observation_day,
        )
        assignments = self._assign_kinds()

        for index, profile in enumerate(assignments):
            account = MicroblogAccount(
                account_id=f"acct-{index:04d}",
                handle=f"@{profile.kind.value}_{index:04d}",
                kind=profile.kind,
                location=spec.location,
                registered_at=self._rng.uniform(0.0, spec.observation_day * 0.8),
                followers=int(self._lognormal(profile.follower_volume, 1.0)),
                following=int(self._lognormal(900.0, 0.8)),
            )
            community.add_account(account)
            self._populate_account(community, account, profile)
        return community

    def _populate_account(
        self,
        community: MicroblogCommunity,
        account: MicroblogAccount,
        profile: ClassProfile,
    ) -> None:
        spec = self._spec
        visibility = self._lognormal(1.0, spec.visibility_sigma)

        tweet_total = max(1, int(round(self._lognormal(profile.tweet_volume, spec.volume_sigma))))
        mentions_total = int(round(
            visibility * self._lognormal(profile.mention_volume, spec.reaction_sigma)
        ))
        retweets_total = int(round(
            visibility * self._lognormal(profile.retweet_volume, spec.reaction_sigma)
        ))

        # Materialise a small sample of concrete tweets for content analysis.
        # Each account has a latent stance so its opinionated tweets lean
        # consistently positive or negative.
        stance = self._rng.uniform(-0.8, 0.8)
        sample_count = min(spec.sample_tweet_count, tweet_total)
        active_span = max(1.0, spec.observation_day - account.registered_at)
        for index in range(sample_count):
            day = account.registered_at + self._rng.uniform(0.0, active_span)
            category = self._rng.choice(list(spec.categories))
            sentiment = max(-1.0, min(1.0, stance + self._rng.uniform(-0.4, 0.4)))
            community.add_tweet(
                Tweet(
                    tweet_id=f"{account.account_id}-t{index:05d}",
                    author_id=account.account_id,
                    day=day,
                    text=self._text.sentence(category, sentiment=sentiment, length=14),
                    category=category,
                    tags=self._text.tags(category, 2),
                    location=spec.location,
                    read_count=int(self._lognormal(200.0, 1.0)),
                )
            )
        # The remaining authored volume and the externally-originated
        # reactions are recorded as counters (they would otherwise require
        # materialising millions of tweets).
        remaining_tweets = tweet_total - sample_count
        if remaining_tweets > 0:
            self._record_bulk_tweets(community, account, remaining_tweets)
        community.record_received(
            account.account_id, mentions=mentions_total, retweets=retweets_total
        )

    def _record_bulk_tweets(
        self, community: MicroblogCommunity, account: MicroblogAccount, count: int
    ) -> None:
        """Record ``count`` additional authored tweets as lightweight entries."""
        spec = self._spec
        timeline = community._tweets_by_author.setdefault(account.account_id, [])
        base_index = len(timeline)
        active_span = max(1.0, spec.observation_day - account.registered_at)
        for offset in range(count):
            day = account.registered_at + (offset + 0.5) * active_span / max(1, count)
            tweet = Tweet(
                tweet_id=f"{account.account_id}-b{base_index + offset:06d}",
                author_id=account.account_id,
                day=day,
                text="",
                category=None,
                location=spec.location,
            )
            community._tweets.append(tweet)
            timeline.append(tweet)


class TwitaholicLikeService:
    """Rank accounts the way the Twitaholic leaderboard did.

    Twitaholic ranked accounts per location by a blend of audience size and
    activity.  The service exposes the top-*N* accounts for a location,
    which is how the paper obtained its 813-account London dataset.
    """

    def __init__(self, community: MicroblogCommunity) -> None:
        self._community = community

    def score(self, account: MicroblogAccount) -> float:
        """Leaderboard score: audience-dominated, activity-adjusted."""
        activity = self._community.activity(account.account_id)
        return (
            math.log1p(account.followers) * 3.0
            + math.log1p(activity.interactions)
            + math.log1p(activity.mentions_received + activity.retweets_received)
        )

    def top_accounts(
        self, count: int, location: Optional[str] = None
    ) -> list[MicroblogAccount]:
        """Return the ``count`` best-ranked accounts, optionally per location."""
        candidates = [
            account
            for account in self._community
            if location is None or account.location == location
        ]
        candidates.sort(key=self.score, reverse=True)
        return candidates[: max(0, count)]
