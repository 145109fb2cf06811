"""Weighted aggregation of normalised measures into quality scores.

The overall quality of a source (or contributor) is "a weighted average of
the different measures".  A :class:`WeightingScheme` assigns a weight to
every measure — either directly, or derived from per-dimension or
per-attribute weights — and a :class:`QualityScore` keeps the full
breakdown: raw values, normalised values, per-dimension and per-attribute
scores, and the overall weighted average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.columnar import freeze
from repro.core.dimensions import QualityAttribute, QualityDimension
from repro.core.measures import MeasureRegistry
from repro.errors import AssessmentError, ConfigurationError

__all__ = [
    "WeightingScheme",
    "uniform_scheme",
    "dimension_weighted_scheme",
    "attribute_weighted_scheme",
    "QualityScore",
    "build_quality_score_columns",
    "scores_from_columns",
]


@dataclass(frozen=True)
class WeightingScheme:
    """Per-measure weights used by the weighted average.

    Weights do not need to sum to one; they are renormalised over the
    measures actually present in an assessment, so sources missing a panel
    observation (and therefore some measures) can still be scored.
    """

    name: str
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigurationError("a weighting scheme needs at least one weight")
        for measure_name, weight in self.weights.items():
            # ``NaN < 0`` is False: without the finiteness check a NaN or
            # infinite weight would pass and poison every overall score.
            if not math.isfinite(weight):
                raise ConfigurationError(
                    f"weight of measure {measure_name!r} must be finite, got {weight!r}"
                )
            if weight < 0:
                raise ConfigurationError(
                    f"weight of measure {measure_name!r} must be non-negative"
                )

    def weight(self, measure_name: str) -> float:
        """Weight of ``measure_name`` (0.0 when the measure is not covered)."""
        return float(self.weights.get(measure_name, 0.0))


def uniform_scheme(registry: MeasureRegistry, name: str = "uniform") -> WeightingScheme:
    """Equal weight for every measure in ``registry``."""
    return WeightingScheme(
        name=name, weights={measure.name: 1.0 for measure in registry}
    )


def dimension_weighted_scheme(
    registry: MeasureRegistry,
    dimension_weights: Mapping[QualityDimension, float],
    name: str = "dimension-weighted",
) -> WeightingScheme:
    """Spread per-dimension weights evenly across the measures of each dimension."""
    weights: dict[str, float] = {}
    for dimension, dimension_weight in dimension_weights.items():
        if dimension_weight < 0:
            raise ConfigurationError("dimension weights must be non-negative")
        members = registry.for_dimension(dimension)
        if not members:
            continue
        share = dimension_weight / len(members)
        for measure in members:
            weights[measure.name] = weights.get(measure.name, 0.0) + share
    if not weights:
        raise ConfigurationError("dimension weights cover no registered measure")
    return WeightingScheme(name=name, weights=weights)


def attribute_weighted_scheme(
    registry: MeasureRegistry,
    attribute_weights: Mapping[QualityAttribute, float],
    name: str = "attribute-weighted",
) -> WeightingScheme:
    """Spread per-attribute weights evenly across the measures of each attribute."""
    weights: dict[str, float] = {}
    for attribute, attribute_weight in attribute_weights.items():
        if attribute_weight < 0:
            raise ConfigurationError("attribute weights must be non-negative")
        members = registry.for_attribute(attribute)
        if not members:
            continue
        share = attribute_weight / len(members)
        for measure in members:
            weights[measure.name] = weights.get(measure.name, 0.0) + share
    if not weights:
        raise ConfigurationError("attribute weights cover no registered measure")
    return WeightingScheme(name=name, weights=weights)


@dataclass
class QualityScore:
    """Full breakdown of a quality assessment."""

    subject_id: str
    raw_values: dict[str, float]
    normalized_values: dict[str, float]
    dimension_scores: dict[QualityDimension, float]
    attribute_scores: dict[QualityAttribute, float]
    overall: float
    scheme_name: str = "uniform"

    def measure(self, name: str) -> float:
        """Raw value of ``name`` (KeyError when not assessed)."""
        return self.raw_values[name]

    def normalized(self, name: str) -> float:
        """Normalised value of ``name`` (KeyError when not assessed)."""
        return self.normalized_values[name]

    def dimension(self, dimension: QualityDimension) -> float:
        """Average normalised score of one dimension (0.0 when absent)."""
        return self.dimension_scores.get(dimension, 0.0)

    def attribute(self, attribute: QualityAttribute) -> float:
        """Average normalised score of one attribute (0.0 when absent)."""
        return self.attribute_scores.get(attribute, 0.0)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "subject_id": self.subject_id,
            "raw_values": dict(self.raw_values),
            "normalized_values": dict(self.normalized_values),
            "dimension_scores": {
                dimension.value: value
                for dimension, value in self.dimension_scores.items()
            },
            "attribute_scores": {
                attribute.value: value
                for attribute, value in self.attribute_scores.items()
            },
            "overall": self.overall,
            "scheme_name": self.scheme_name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QualityScore":
        """Rebuild a score serialised with :meth:`to_dict` (bit-exact floats)."""
        return cls(
            subject_id=payload["subject_id"],
            raw_values=dict(payload["raw_values"]),
            normalized_values=dict(payload["normalized_values"]),
            dimension_scores={
                QualityDimension(name): value
                for name, value in payload["dimension_scores"].items()
            },
            attribute_scores={
                QualityAttribute(name): value
                for name, value in payload["attribute_scores"].items()
            },
            overall=payload["overall"],
            scheme_name=payload.get("scheme_name", "uniform"),
        )


def build_quality_score_columns(
    subject_ids: Sequence[str],
    measures: Sequence[str],
    normalized: Mapping[str, np.ndarray],
    registry: MeasureRegistry,
    scheme: WeightingScheme,
) -> tuple[
    np.ndarray,
    "dict[QualityDimension, np.ndarray]",
    "dict[QualityAttribute, np.ndarray]",
]:
    """Columnar score kernel: overall/dimension/attribute score arrays.

    The overall score is the weighted average of each subject's
    normalised measures, renormalised over the weights of ``measures``;
    dimension and attribute scores are the plain means of their member
    measures.  Bit-identical to composing each subject alone, which
    requires reproducing the per-subject *accumulation order*, not just
    its arithmetic: cross-measure reductions accumulate column by column
    in measure order (``acc += weight * column``) so every element sees
    exactly the float-op sequence of a sequential per-subject loop — a
    ``np.sum``-style pairwise reduction would round differently.
    Dimension/attribute bins likewise accumulate members in measure
    order before one division by the member count.
    """
    count = len(subject_ids)
    if count and not measures:
        raise AssessmentError(f"no measures computed for {subject_ids[0]!r}")

    total_weight = 0.0
    accumulator = np.zeros(count)
    dimension_bins: "dict[QualityDimension, list[np.ndarray]]" = {}
    attribute_bins: "dict[QualityAttribute, list[np.ndarray]]" = {}
    for name in measures:
        definition = registry.get(name)
        weight = scheme.weight(name)
        column = normalized[name]
        dimension_bins.setdefault(definition.dimension, []).append(column)
        attribute_bins.setdefault(definition.attribute, []).append(column)
        total_weight += weight
        accumulator += weight * column
    if count and measures and total_weight == 0:
        raise AssessmentError(
            "no measure in the assessment has a positive weight under "
            f"scheme {scheme.name!r}"
        )

    def _bin_mean(columns: "list[np.ndarray]") -> np.ndarray:
        mean = np.zeros(count)
        for column in columns:
            mean += column
        return freeze(mean / len(columns))

    overall = freeze(accumulator / total_weight if total_weight else accumulator)
    return (
        overall,
        {dimension: _bin_mean(columns) for dimension, columns in dimension_bins.items()},
        {attribute: _bin_mean(columns) for attribute, columns in attribute_bins.items()},
    )


def scores_from_columns(
    subject_ids: Sequence[str],
    measures: Sequence[str],
    raw: Mapping[str, np.ndarray],
    normalized: Mapping[str, np.ndarray],
    overall: np.ndarray,
    dimension_scores: "Mapping[QualityDimension, np.ndarray]",
    attribute_scores: "Mapping[QualityAttribute, np.ndarray]",
    scheme_name: str,
) -> dict[str, QualityScore]:
    """Materialise per-subject :class:`QualityScore` views of columnar state.

    ``tolist()`` round-trips float64 bit-exactly, so the materialised
    scores carry exactly the column floats.  Used by the lazy
    dict-shaped surface of the columnar assessment context, by the
    contributor model and by snapshot restore.
    """
    names = list(measures)
    raw_lists = [raw[name].tolist() for name in names]
    normalized_lists = [normalized[name].tolist() for name in names]
    dimension_keys = list(dimension_scores)
    attribute_keys = list(attribute_scores)
    overall_list = overall.tolist()
    # Transpose once and build each subject's dicts via dict(zip(...)):
    # the per-subject dict comprehensions with indexed lookups were the
    # hot loop of every full-ranking materialisation.
    empty_rows = [()] * len(subject_ids)
    raw_rows = list(zip(*raw_lists)) or empty_rows
    normalized_rows = list(zip(*normalized_lists)) or empty_rows
    dimension_rows = (
        list(zip(*(dimension_scores[key].tolist() for key in dimension_keys)))
        or empty_rows
    )
    attribute_rows = (
        list(zip(*(attribute_scores[key].tolist() for key in attribute_keys)))
        or empty_rows
    )
    scores: dict[str, QualityScore] = {}
    for i, subject_id in enumerate(subject_ids):
        scores[subject_id] = QualityScore(
            subject_id=subject_id,
            raw_values=dict(zip(names, raw_rows[i])),
            normalized_values=dict(zip(names, normalized_rows[i])),
            dimension_scores=dict(zip(dimension_keys, dimension_rows[i])),
            attribute_scores=dict(zip(attribute_keys, attribute_rows[i])),
            overall=overall_list[i],
            scheme_name=scheme_name,
        )
    return scores
