"""Simulators of third-party web-statistics panels.

Table 1 of the paper sources several measures from public measurement
services: Alexa (traffic rank, daily visitors, daily page views, average
time spent on site, bounce rate, number of inbound links) and Feedburner
(number of feed subscriptions).  Neither service is available offline —
Alexa was shut down in 2022 and Feedburner no longer exposes subscription
counts — so this module provides drop-in simulators.

Each simulator derives its per-site statistics from the source's latent
popularity and engagement (see :mod:`repro.sources.generators`) plus
deterministic per-site measurement noise, mimicking the way the real panels
estimated per-site figures from a browsing panel: noisy, but strongly
correlated with actual popularity.
"""

from __future__ import annotations

import hashlib
import random
import weakref
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.perf.cache import source_fingerprint
from repro.sources.models import Source

__all__ = [
    "PanelObservation",
    "WebStatsPanel",
    "AlexaLikeService",
    "FeedburnerLikeService",
]


@dataclass(frozen=True)
class PanelObservation:
    """A single panel reading for one source.

    ``traffic_rank`` follows the Alexa convention: **lower is better** (rank
    1 is the most visited site in the panel's universe).
    """

    source_id: str
    traffic_rank: int
    daily_visitors: float
    daily_page_views: float
    average_time_on_site: float
    bounce_rate: float
    inbound_links: int
    feed_subscriptions: int

    @property
    def page_views_per_visitor(self) -> float:
        """Daily page views per daily visitor (Table 1, Authority x Liveliness)."""
        if self.daily_visitors <= 0:
            return 0.0
        return self.daily_page_views / self.daily_visitors

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "source_id": self.source_id,
            "traffic_rank": self.traffic_rank,
            "daily_visitors": self.daily_visitors,
            "daily_page_views": self.daily_page_views,
            "average_time_on_site": self.average_time_on_site,
            "bounce_rate": self.bounce_rate,
            "inbound_links": self.inbound_links,
            "feed_subscriptions": self.feed_subscriptions,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PanelObservation":
        """Rebuild an observation serialised with :meth:`to_dict` (bit-exact floats)."""
        return cls(**payload)


def _stable_rng(seed: int, source_id: str) -> random.Random:
    """Build a random generator that is stable per ``(seed, source_id)``."""
    digest = hashlib.sha256(f"{seed}:{source_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class WebStatsPanel:
    """Base class for panel simulators.

    Sub-classes implement :meth:`_measure`; the base class offers caching
    and batch observation so experiments can treat the panel as an oracle
    that always returns the same figures for the same *content state* of a
    site.  Cached observations are keyed by source identifier but
    revalidated against the source's identity and structural fingerprint,
    so replacing a source object or growing it in place (a new discussion,
    post or interaction, or an announced ``touch()``) re-measures instead
    of serving a stale :class:`PanelObservation`.  Entries hold only a
    *weak* reference to the observed source: a dead or different object
    always re-measures, which makes the ``id()`` component of the
    fingerprint sound without keeping corpora alive.  The panel holds no
    corpus subscription: a consumer that stops observing a source drops
    its entry with :meth:`invalidate` (the search engine does when it
    unindexes one).
    """

    def __init__(self, seed: int = 0, noise: float = 0.15) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self._seed = seed
        self._noise = noise
        #: source_id -> (weakref to source, fingerprint at measure time, observation)
        self._cache: dict[str, tuple[Any, tuple, PanelObservation]] = {}

    @property
    def noise(self) -> float:
        """Relative measurement noise applied to panel figures."""
        return self._noise

    def observe(self, source: Source) -> PanelObservation:
        """Return the panel observation for ``source`` (cached per epoch).

        The cache hit path costs one identity check plus one fingerprint
        computation; a mismatch (the source was replaced, grew, or was
        touched since the last observation) triggers a fresh measurement.
        """
        fingerprint = source_fingerprint(source)
        entry = self._cache.get(source.source_id)
        if entry is not None and entry[0]() is source and entry[1] == fingerprint:
            return entry[2]
        observation = self._measure(source)
        self._cache[source.source_id] = (weakref.ref(source), fingerprint, observation)
        return observation

    def observe_many(self, sources: Iterable[Source]) -> dict[str, PanelObservation]:
        """Observe a batch of sources; return a mapping keyed by source id."""
        return {source.source_id: self.observe(source) for source in sources}

    def invalidate(self, source_id: Optional[str] = None) -> None:
        """Drop cached observations (all of them when ``source_id`` is None)."""
        if source_id is None:
            self._cache.clear()
        else:
            self._cache.pop(source_id, None)

    # -- to be provided by subclasses -----------------------------------------------

    def _measure(self, source: Source) -> PanelObservation:
        raise NotImplementedError

    def _jitter(self, rng: random.Random, value: float) -> float:
        """Apply multiplicative measurement noise to ``value``."""
        if value <= 0:
            return 0.0
        return value * (1.0 + rng.uniform(-self._noise, self._noise))


class AlexaLikeService(WebStatsPanel):
    """Simulator of an Alexa-style traffic panel.

    The mapping from latent popularity to traffic follows a convex curve so
    that the resulting visitor counts span several orders of magnitude, as
    real panel data does.  Engagement drives pages per visit, while the
    stickiness latent drives time on site and (inversely) bounce rate — the
    three families of panel figures therefore load on three distinct
    underlying factors, which is what the Table 3 componentisation needs.
    """

    #: Size of the virtual web the panel ranks sites against.
    UNIVERSE_SIZE = 5_000_000

    def _measure(self, source: Source) -> PanelObservation:
        rng = _stable_rng(self._seed, source.source_id)
        popularity = max(0.0, min(1.0, source.latent_popularity))
        engagement = max(0.0, min(1.0, source.latent_engagement))
        stickiness = max(0.0, min(1.0, source.latent_stickiness))

        daily_visitors = self._jitter(rng, 30.0 + 250_000.0 * popularity**3)
        pages_per_visit = self._jitter(rng, 1.4 + 6.0 * engagement)
        daily_page_views = daily_visitors * pages_per_visit
        average_time_on_site = self._jitter(rng, 45.0 + 540.0 * stickiness)
        bounce_rate = min(
            0.98, max(0.02, 0.92 - 0.55 * stickiness + rng.uniform(-0.05, 0.05))
        )
        inbound_links = int(round(self._jitter(rng, 5.0 + 20_000.0 * popularity**2)))
        traffic_rank = max(
            1, int(round(self.UNIVERSE_SIZE / (1.0 + daily_visitors)))
        )

        return PanelObservation(
            source_id=source.source_id,
            traffic_rank=traffic_rank,
            daily_visitors=daily_visitors,
            daily_page_views=daily_page_views,
            average_time_on_site=average_time_on_site,
            bounce_rate=bounce_rate,
            inbound_links=inbound_links,
            feed_subscriptions=0,
        )


class FeedburnerLikeService(WebStatsPanel):
    """Simulator of a Feedburner-style feed-subscription counter.

    Subscription counts blend popularity (reach) and engagement (willingness
    of readers to subscribe), so a highly trafficked but shallow site gets
    fewer subscribers than an equally trafficked site with a loyal
    community.
    """

    def _measure(self, source: Source) -> PanelObservation:
        rng = _stable_rng(self._seed + 1, source.source_id)
        popularity = max(0.0, min(1.0, source.latent_popularity))
        engagement = max(0.0, min(1.0, source.latent_engagement))
        loyalty = 0.4 * popularity + 0.6 * engagement
        subscriptions = int(round(self._jitter(rng, 2.0 + 50_000.0 * loyalty**3)))
        return PanelObservation(
            source_id=source.source_id,
            traffic_rank=0,
            daily_visitors=0.0,
            daily_page_views=0.0,
            average_time_on_site=0.0,
            bounce_rate=0.0,
            inbound_links=0,
            feed_subscriptions=subscriptions,
        )

    def subscriptions(self, source: Source) -> int:
        """Return only the subscription count for ``source``."""
        return self.observe(source).feed_subscriptions
