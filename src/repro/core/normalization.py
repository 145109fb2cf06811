"""Normalisation of raw measure values.

The paper computes the overall source quality as "a weighted average of the
different measures that are normalized by considering benchmarks derived
from the assessment of well-known, highly-ranked sources".  The default
:class:`BenchmarkNormalizer` implements exactly that strategy; two common
alternatives (min-max and z-score) are provided for the ablation study
described in DESIGN.md.

All normalizers map raw values into ``[0, 1]`` where 1 is best, taking the
``higher_is_better`` flag of each measure into account (e.g. traffic rank
and bounce rate improve as they decrease).  Every strategy is one pair of
column kernels (fit, normalise); the per-value :meth:`Normalizer.fit` /
:meth:`Normalizer.normalize` forms are thin wrappers over them.  The
quality models use them whole: whenever their raw columns or reference
population change they fit once and normalise every column, so no
consumer needs to know which measures a refit moved.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.columnar import freeze
from repro.core.measures import MeasureDefinition, MeasureRegistry
from repro.errors import NormalizationError

__all__ = [
    "Normalizer",
    "BenchmarkNormalizer",
    "MinMaxNormalizer",
    "ZScoreNormalizer",
]


def _log1p_column(column: np.ndarray) -> np.ndarray:
    """``math.log1p(max(0.0, v))`` per value, as an array.

    numpy's vectorized ``log1p`` dispatches to SIMD implementations whose
    results differ from ``math.log1p`` by an ulp on some platforms (they
    do on this one), which would break the bit-identity contract with the
    per-value reference arithmetic — so the transcendental stays a
    per-value ``math`` call.
    """
    return np.asarray(
        [math.log1p(value) if value > 0.0 else 0.0 for value in column.tolist()],
        dtype=np.float64,
    )


class Normalizer(ABC):
    """Base class for measure normalisation strategies.

    A normalizer is *fitted* on the raw measure values of a reference set of
    sources (or contributors) and then used to normalise the values of any
    individual.  Fitting is per measure name.
    """

    def __init__(self, registry: MeasureRegistry) -> None:
        self._registry = registry
        self._fitted = False
        self._fit_count = 0

    @property
    def fit_count(self) -> int:
        """Monotonic count of :meth:`fit` calls.

        A source model ranked against a fixed benchmark corpus records
        the count its benchmark fit left; a mismatch means the normalizer
        was re-fitted in between — possibly by *another* model sharing
        this instance, or by code calling :meth:`fit` directly — and the
        benchmark fit must be re-established before the instance is
        reused.
        """
        return self._fit_count

    def fit(self, reference_values: Mapping[str, Sequence[float]]) -> "Normalizer":
        """Fit the normalizer on per-measure reference values.

        A wrapper over :meth:`fit_columns`: each value list becomes one
        float64 column.
        """
        return self.fit_columns(
            {
                name: np.asarray(values, dtype=np.float64)
                for name, values in reference_values.items()
            }
        )

    def fit_state(self) -> Optional[dict]:
        """JSON-serialisable snapshot of the fitted state, or None.

        A non-None state round-trips through :meth:`load_fit_state` into a
        normalizer that scores every value bit-identically to this one:
        the floats travel verbatim (JSON's ``repr`` round-trip is exact
        for float64), and the loaded instance runs exactly the same
        :meth:`_normalize_column` arithmetic.  This is how a coordinator
        fits once and broadcasts the fit to shard workers.  The base
        implementation returns None ("not transportable"); the built-in
        strategies all override it.
        """
        return None

    def load_fit_state(self, state: Mapping[str, Any]) -> "Normalizer":
        """Adopt a fit produced by another instance's :meth:`fit_state`.

        Counts as one fit for :attr:`fit_count` purposes, exactly like
        :meth:`fit` — incremental consumers must notice the swap.
        """
        raise NormalizationError(
            f"{type(self).__name__} does not support transportable fit state"
        )

    def _adopt_fit(self) -> "Normalizer":
        """Mark the instance fitted after a :meth:`load_fit_state`."""
        self._fitted = True
        self._fit_count += 1
        return self

    def normalize(self, name: str, value: float) -> float:
        """Normalise ``value`` of measure ``name`` into ``[0, 1]`` (1 = best).

        A one-row wrapper over :meth:`normalize_column`.
        """
        column = np.asarray([value], dtype=np.float64)
        return float(self.normalize_column(name, column)[0])

    # -- columnar kernels ---------------------------------------------------------

    def fit_columns(
        self, reference_columns: Mapping[str, np.ndarray]
    ) -> "Normalizer":
        """Fit the normalizer on per-measure float64 reference columns.

        Delegates to the strategy's :meth:`_fit_measure_column` hook per
        measure.  Counts as one fit for :attr:`fit_count` purposes.
        """
        if not reference_columns:
            raise NormalizationError("reference values must not be empty")
        for name, column in reference_columns.items():
            if len(column) == 0:
                raise NormalizationError(f"measure {name!r} has no reference values")
            self._fit_measure_column(
                name, np.asarray(column, dtype=np.float64)
            )
        self._fitted = True
        self._fit_count += 1
        return self

    def normalize_column(self, name: str, column: np.ndarray) -> np.ndarray:
        """Normalise one measure column into ``[0, 1]`` (1 = best).

        The measure definition is resolved before the strategy kernel
        runs, so an unregistered measure raises
        :class:`~repro.errors.UnknownMeasureError` under every strategy.

        The clamp adds ``+ 0.0`` after ``np.maximum``: the per-value
        ``max(0.0, score)`` never yields ``-0.0`` (it returns its first
        argument on ties) while ``np.maximum`` preserves the sign of zero,
        and ``-0.0 + 0.0 == +0.0`` restores that bit pattern without
        touching any other value.
        """
        if not self._fitted:
            raise NormalizationError("normalizer must be fitted before use")
        definition = self._registry.get(name)
        column = np.asarray(column, dtype=np.float64)
        scores = self._normalize_column(name, column)
        scores = np.minimum(1.0, np.maximum(scores, 0.0) + 0.0)
        if not definition.higher_is_better:
            scores = 1.0 - scores
        return freeze(scores)

    def normalize_columns(
        self, columns: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Normalise a full set of measure columns (batch of
        :meth:`normalize_column`)."""
        if not self._fitted:
            raise NormalizationError("normalizer must be fitted before use")
        return {
            name: self.normalize_column(name, column)
            for name, column in columns.items()
        }

    # -- strategy-specific hooks --------------------------------------------------

    @abstractmethod
    def _fit_measure_column(self, name: str, column: np.ndarray) -> None:
        """Record whatever statistics the strategy needs for one measure."""

    @abstractmethod
    def _normalize_column(self, name: str, column: np.ndarray) -> np.ndarray:
        """Map a raw column into [0, 1] *before* clamp and direction correction."""

    def _definition(self, name: str) -> MeasureDefinition:
        return self._registry.get(name)


class BenchmarkNormalizer(Normalizer):
    """Normalise against a benchmark derived from highly-ranked sources.

    For each measure the benchmark is a high quantile (by default the 90th
    percentile) of the reference values; a value equal to or above the
    benchmark scores 1.0 and smaller values scale linearly.  This mirrors
    the paper's "benchmarks derived from the assessment of well-known,
    highly-ranked sources".

    Panel measures such as daily visitors or inbound links span several
    orders of magnitude; comparing them to a high-quantile benchmark on a
    linear scale would squash almost every source to ~0 and erase the
    distinctions among mid-sized sources.  When a measure's benchmark is
    more than ``log_scale_threshold`` times its median, the ratio is
    therefore computed on a ``log1p`` scale.

    The fit reads ``np.sort(values)`` only, so it depends on the sorted
    multiset, never the input order: fitting on per-shard columns
    concatenated in any order reproduces the corpus-order fit exactly.
    Both sharded rank protocols rest on that (see
    :meth:`~repro.core.source_quality.SourceQualityModel.rank_from_columns`).
    """

    def __init__(
        self,
        registry: MeasureRegistry,
        quantile: float = 0.9,
        log_scale_threshold: float = 20.0,
    ) -> None:
        super().__init__(registry)
        if not 0.0 < quantile <= 1.0:
            raise NormalizationError("quantile must be in (0, 1]")
        if log_scale_threshold <= 1.0:
            raise NormalizationError("log_scale_threshold must be > 1")
        self._quantile = quantile
        self._log_scale_threshold = log_scale_threshold
        self._benchmarks: dict[str, float] = {}
        self._floors: dict[str, float] = {}
        self._log_scaled: set[str] = set()

    @property
    def benchmarks(self) -> dict[str, float]:
        """Per-measure benchmark values (after fitting)."""
        return dict(self._benchmarks)

    def fit_state(self) -> dict:
        """Transportable ``{benchmarks, floors, log_scaled}`` fit snapshot."""
        return {
            "strategy": "benchmark",
            "benchmarks": dict(self._benchmarks),
            "floors": dict(self._floors),
            "log_scaled": sorted(self._log_scaled),
        }

    def load_fit_state(self, state: Mapping[str, Any]) -> "Normalizer":
        if state.get("strategy") != "benchmark":
            raise NormalizationError(
                f"fit state strategy {state.get('strategy')!r} is not 'benchmark'"
            )
        self._benchmarks = {name: float(v) for name, v in state["benchmarks"].items()}
        self._floors = {name: float(v) for name, v in state["floors"].items()}
        self._log_scaled = set(state["log_scaled"])
        return self._adopt_fit()

    def _fit_measure_column(self, name: str, column: np.ndarray) -> None:
        # ``np.sort`` + element picks are exact: the fit reads the sorted
        # multiset only.
        ordered = np.sort(column)
        index = min(len(ordered) - 1, int(round(self._quantile * (len(ordered) - 1))))
        low_index = max(0, int(round((1.0 - self._quantile) * (len(ordered) - 1))))
        definition = self._definition(name)
        median = float(ordered[len(ordered) // 2])
        # Membership in the log-scaled set is recomputed (not just added)
        # per fit: a re-fit must normalise exactly like a fresh instance
        # fitted on the same values, or long-lived incremental models
        # would diverge from from-scratch rebuilds once a measure's
        # spread crosses the threshold downward.
        if definition.higher_is_better:
            self._benchmarks[name] = float(ordered[index])
            self._floors[name] = float(ordered[0])
            log_scaled = (
                median > 0
                and self._benchmarks[name] / median > self._log_scale_threshold
            )
        else:
            # For lower-is-better measures the "benchmark" is the low quantile.
            self._benchmarks[name] = float(ordered[-1])
            self._floors[name] = float(ordered[low_index])
            log_scaled = (
                self._floors[name] > 0
                and self._benchmarks[name] / self._floors[name]
                > self._log_scale_threshold
            )
        if log_scaled:
            self._log_scaled.add(name)
        else:
            self._log_scaled.discard(name)

    def _normalize_column(self, name: str, column: np.ndarray) -> np.ndarray:
        definition = self._definition(name)
        log_scaled = name in self._log_scaled
        if definition.higher_is_better:
            benchmark = self._benchmarks[name]
            if log_scaled:
                scaled_benchmark = math.log1p(max(0.0, benchmark))
                if scaled_benchmark <= 0:
                    return np.where(column >= benchmark, 1.0, 0.0)
                return _log1p_column(column) / scaled_benchmark
            if benchmark <= 0:
                return np.where(column >= benchmark, 1.0, 0.0)
            return column / benchmark
        # Lower-is-better: map [floor, worst] linearly onto [0, 1] where the
        # floor (best observed region) maps to 0 so that the direction flip in
        # :meth:`normalize_column` turns it into 1.
        floor = self._floors[name]
        worst = self._benchmarks[name]
        values = column
        if log_scaled:
            floor = math.log1p(max(0.0, floor))
            worst = math.log1p(max(0.0, worst))
            values = _log1p_column(column)
        span = worst - floor
        if span <= 0:
            return np.where(values <= floor, 0.0, 1.0)
        return (values - floor) / span


class MinMaxNormalizer(Normalizer):
    """Classic min-max normalisation over the reference values."""

    def __init__(self, registry: MeasureRegistry) -> None:
        super().__init__(registry)
        self._minima: dict[str, float] = {}
        self._maxima: dict[str, float] = {}

    def fit_state(self) -> dict:
        """Transportable ``{minima, maxima}`` fit snapshot."""
        return {
            "strategy": "min_max",
            "minima": dict(self._minima),
            "maxima": dict(self._maxima),
        }

    def load_fit_state(self, state: Mapping[str, Any]) -> "Normalizer":
        if state.get("strategy") != "min_max":
            raise NormalizationError(
                f"fit state strategy {state.get('strategy')!r} is not 'min_max'"
            )
        self._minima = {name: float(v) for name, v in state["minima"].items()}
        self._maxima = {name: float(v) for name, v in state["maxima"].items()}
        return self._adopt_fit()

    def _fit_measure_column(self, name: str, column: np.ndarray) -> None:
        self._minima[name] = float(column.min())
        self._maxima[name] = float(column.max())

    def _normalize_column(self, name: str, column: np.ndarray) -> np.ndarray:
        low = self._minima[name]
        span = self._maxima[name] - low
        if span <= 0:
            return np.full(len(column), 0.5)
        return (column - low) / span


class ZScoreNormalizer(Normalizer):
    """Z-score normalisation squashed into [0, 1] with a logistic function."""

    def __init__(self, registry: MeasureRegistry, scale: float = 1.0) -> None:
        super().__init__(registry)
        if scale <= 0:
            raise NormalizationError("scale must be positive")
        self._scale = scale
        self._means: dict[str, float] = {}
        self._stds: dict[str, float] = {}

    def fit_state(self) -> dict:
        """Transportable ``{means, stds}`` fit snapshot.

        The *fit* is order-dependent (its sequential ``sum`` rounds
        differently under reordering, so it cannot be rebuilt from sorted
        columns) — but an already-computed fit is just two float maps and
        transports exactly.
        """
        return {
            "strategy": "z_score",
            "means": dict(self._means),
            "stds": dict(self._stds),
        }

    def load_fit_state(self, state: Mapping[str, Any]) -> "Normalizer":
        if state.get("strategy") != "z_score":
            raise NormalizationError(
                f"fit state strategy {state.get('strategy')!r} is not 'z_score'"
            )
        self._means = {name: float(v) for name, v in state["means"].items()}
        self._stds = {name: float(v) for name, v in state["stds"].items()}
        return self._adopt_fit()

    def _fit_measure_column(self, name: str, column: np.ndarray) -> None:
        # Sequential ``sum`` on purpose: numpy's pairwise reduction rounds
        # differently, and the fit is pinned to the sequential order.
        values = column.tolist()
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        self._means[name] = mean
        self._stds[name] = math.sqrt(variance)

    def _normalize_column(self, name: str, column: np.ndarray) -> np.ndarray:
        # The logistic's ``exp`` stays a per-value ``math`` call (SIMD ulp
        # drift, same reason as ``_log1p_column``); only the z-score
        # arithmetic and its clamp vectorize.  The clamp keeps the
        # logistic from overflowing for values lying extremely far
        # outside the reference distribution.
        std = self._stds[name]
        if std == 0:
            return np.full(len(column), 0.5)
        z = np.maximum(-50.0, np.minimum(50.0, (column - self._means[name]) / std))
        return np.asarray(
            [1.0 / (1.0 + math.exp(-value / self._scale)) for value in z.tolist()],
            dtype=np.float64,
        )
