"""Seeded synthetic text generation for user-generated content.

The quality measures of the paper consume *structure* (counts, timestamps,
tags), but the mashup case study also performs content-based analysis
(sentiment extraction, buzz-word identification).  This module provides a
small topical text generator: each content category owns a vocabulary of
topic words, and generated snippets mix topic words with opinionated words
drawn from positive/negative/neutral pools, so the sentiment analyser has
realistic material to score.

The generator is deterministic given a :class:`random.Random` instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = [
    "CategoryVocabulary",
    "TextGenerator",
    "TOURISM_CATEGORIES",
    "GENERIC_CATEGORIES",
    "default_vocabularies",
    "POSITIVE_WORDS",
    "NEGATIVE_WORDS",
    "NEUTRAL_WORDS",
]


#: Opinion words with positive polarity used across every category.
POSITIVE_WORDS: tuple[str, ...] = (
    "amazing", "wonderful", "excellent", "lovely", "great", "fantastic",
    "charming", "delicious", "friendly", "beautiful", "impressive", "superb",
    "pleasant", "memorable", "stunning", "outstanding", "perfect", "enjoyable",
    "helpful", "clean", "comfortable", "inspiring", "vibrant", "welcoming",
)

#: Opinion words with negative polarity used across every category.
NEGATIVE_WORDS: tuple[str, ...] = (
    "terrible", "awful", "disappointing", "dirty", "rude", "overpriced",
    "crowded", "noisy", "boring", "horrible", "mediocre", "slow", "unpleasant",
    "confusing", "expensive", "unsafe", "shabby", "frustrating", "poor",
    "unreliable", "chaotic", "dull", "uncomfortable", "broken",
)

#: Filler words with no polarity.
NEUTRAL_WORDS: tuple[str, ...] = (
    "the", "a", "we", "visited", "yesterday", "today", "around", "near",
    "place", "people", "time", "city", "trip", "day", "very", "quite",
    "really", "just", "also", "again", "there", "here", "with", "during",
)

#: Anholt-style tourism categories used by the Milan case study (Section 6).
TOURISM_CATEGORIES: tuple[str, ...] = (
    "attractions",
    "accommodation",
    "food_and_drink",
    "transport",
    "events",
    "shopping",
)

#: Generic categories used by the blog/forum corpus of the Section 4.1 study.
GENERIC_CATEGORIES: tuple[str, ...] = (
    "travel",
    "technology",
    "food",
    "sports",
    "politics",
    "culture",
    "finance",
    "health",
    "fashion",
    "music",
)

#: Topic words per category.  Kept deliberately small; the generators combine
#: them with opinion and filler words to build varied snippets.
_CATEGORY_TOPICS: dict[str, tuple[str, ...]] = {
    "attractions": ("duomo", "museum", "gallery", "castle", "cathedral", "tour",
                    "exhibition", "monument", "skyline", "navigli"),
    "accommodation": ("hotel", "hostel", "room", "suite", "reception", "check-in",
                      "bed", "apartment", "booking", "lobby"),
    "food_and_drink": ("risotto", "pizza", "espresso", "restaurant", "aperitivo",
                       "gelato", "trattoria", "wine", "menu", "chef"),
    "transport": ("metro", "tram", "taxi", "airport", "station", "ticket",
                  "bus", "train", "traffic", "bike"),
    "events": ("concert", "festival", "fashion-week", "expo", "match", "opera",
               "exhibition", "parade", "fair", "show"),
    "shopping": ("boutique", "outlet", "market", "designer", "souvenir", "mall",
                 "brand", "sale", "leather", "jewelry"),
    "travel": ("flight", "itinerary", "luggage", "passport", "destination",
               "guide", "resort", "beach", "mountain", "cruise"),
    "technology": ("smartphone", "laptop", "software", "startup", "gadget",
                   "battery", "camera", "app", "network", "cloud"),
    "food": ("recipe", "kitchen", "dinner", "breakfast", "dessert", "bakery",
             "cheese", "sauce", "grill", "vegetarian"),
    "sports": ("match", "team", "league", "stadium", "coach", "goal",
               "tournament", "race", "training", "transfer"),
    "politics": ("election", "policy", "parliament", "minister", "campaign",
                 "debate", "reform", "vote", "budget", "council"),
    "culture": ("book", "cinema", "theatre", "painting", "novel", "festival",
                "sculpture", "poetry", "heritage", "library"),
    "finance": ("market", "stock", "interest", "bank", "investment", "fund",
                "inflation", "currency", "trading", "bond"),
    "health": ("fitness", "diet", "hospital", "doctor", "wellness", "yoga",
               "vaccine", "therapy", "nutrition", "sleep"),
    "fashion": ("runway", "collection", "designer", "fabric", "trend", "model",
                "accessory", "couture", "vintage", "style"),
    "music": ("album", "concert", "band", "vinyl", "playlist", "festival",
              "guitar", "singer", "studio", "tour"),
}


@dataclass
class CategoryVocabulary:
    """Vocabulary used to generate text for a single content category."""

    category: str
    topic_words: tuple[str, ...]
    positive_words: tuple[str, ...] = POSITIVE_WORDS
    negative_words: tuple[str, ...] = NEGATIVE_WORDS
    neutral_words: tuple[str, ...] = NEUTRAL_WORDS


def default_vocabularies(categories: Optional[Iterable[str]] = None) -> dict[str, CategoryVocabulary]:
    """Build the default per-category vocabularies.

    Unknown categories receive a generic vocabulary derived from their name so
    the generator never fails on custom domains of interest.
    """
    wanted = list(categories) if categories is not None else list(_CATEGORY_TOPICS)
    vocabularies: dict[str, CategoryVocabulary] = {}
    for category in wanted:
        topics = _CATEGORY_TOPICS.get(category)
        if topics is None:
            topics = tuple(f"{category}-topic-{index}" for index in range(8))
        vocabularies[category] = CategoryVocabulary(category=category, topic_words=topics)
    return vocabularies


class TextGenerator:
    """Generate topical, optionally opinionated snippets of text.

    Parameters
    ----------
    rng:
        Random generator that makes the output deterministic.
    vocabularies:
        Mapping from category name to :class:`CategoryVocabulary`.  Missing
        categories are materialised on demand with a generic vocabulary.
    """

    def __init__(
        self,
        rng: random.Random,
        vocabularies: Optional[dict[str, CategoryVocabulary]] = None,
    ) -> None:
        self._rng = rng
        self._vocabularies = dict(vocabularies) if vocabularies else default_vocabularies()

    def vocabulary(self, category: str) -> CategoryVocabulary:
        """Return (creating if needed) the vocabulary for ``category``."""
        if category not in self._vocabularies:
            self._vocabularies[category] = default_vocabularies([category])[category]
        return self._vocabularies[category]

    def sentence(
        self,
        category: str,
        sentiment: float = 0.0,
        length: int = 12,
    ) -> str:
        """Generate a single sentence about ``category``.

        ``sentiment`` in ``[-1, 1]`` controls the ratio of positive to
        negative opinion words; ``0`` produces mostly neutral text.
        """
        vocabulary = self.vocabulary(category)
        words: list[str] = []
        for _ in range(max(3, length)):
            roll = self._rng.random()
            if roll < 0.35:
                words.append(self._rng.choice(vocabulary.topic_words))
            elif roll < 0.35 + 0.25 * abs(sentiment):
                pool = (
                    vocabulary.positive_words
                    if sentiment >= 0
                    else vocabulary.negative_words
                )
                words.append(self._rng.choice(pool))
            else:
                words.append(self._rng.choice(vocabulary.neutral_words))
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    def snippet(
        self,
        category: str,
        sentiment: float = 0.0,
        sentences: int = 2,
        length: int = 12,
    ) -> str:
        """Generate a multi-sentence snippet about ``category``."""
        return " ".join(
            self.sentence(category, sentiment=sentiment, length=length)
            for _ in range(max(1, sentences))
        )

    def tags(self, category: str, count: int = 3) -> tuple[str, ...]:
        """Generate up to ``count`` distinct tags for ``category``."""
        vocabulary = self.vocabulary(category)
        population = list(vocabulary.topic_words)
        self._rng.shuffle(population)
        chosen = population[: max(0, min(count, len(population)))]
        return tuple(sorted(chosen))

    def title(self, category: str) -> str:
        """Generate a short discussion title for ``category``."""
        vocabulary = self.vocabulary(category)
        first = self._rng.choice(vocabulary.topic_words)
        second = self._rng.choice(vocabulary.topic_words)
        return f"{first.capitalize()} and {second} in {category.replace('_', ' ')}"

    def off_topic_sentence(self, excluded_category: str, length: int = 10) -> str:
        """Generate a sentence about a category other than ``excluded_category``.

        Used to inject out-of-scope discussions, which the paper's accuracy
        dimension treats as errors.
        """
        candidates = [name for name in self._vocabularies if name != excluded_category]
        if not candidates:
            candidates = [name for name in _CATEGORY_TOPICS if name != excluded_category]
        other = self._rng.choice(sorted(candidates))
        return self.sentence(other, sentiment=0.0, length=length)
