"""Columnar (vectorized) assessment state and kernels.

The measure → normalize → score → rank pipeline of both quality models
runs on one columnar layout — one parallel float64 array per measure,
row-aligned with the subject ids — and the kernels in this module and
in :mod:`repro.core.normalization` / :mod:`repro.core.scoring` operate
on whole columns at once.  There is no second, per-value pipeline in
production: the per-value arithmetic survives only as the test oracle
(``tests/_reference.py``).

Bit-identity is the design constraint, not an afterthought.  Every
kernel reproduces that per-value reference (per-subject normalisation,
per-subject score composition, the ``sorted((-overall, source_id))``
ranking) **exactly**, to the last bit, because the
incremental/eager/concurrent equivalence suites pin warm results
against cold rebuilds with plain float equality.  The rules that make
that possible:

* element-wise array ops (divide, subtract, ``np.minimum``/``np.maximum``
  clamps, the ``1.0 - x`` direction flip) are IEEE-754 operations applied
  per element — identical to the scalar code path by construction;
* **reductions are never delegated to numpy**: ``np.sum``/``np.mean``
  use pairwise summation, which rounds differently from the scalar
  code's sequential accumulation.  Cross-measure reductions therefore
  accumulate column by column in measure order (``acc += w * col``),
  which performs, per element, exactly the float-op sequence of the
  per-subject scalar loops;
* transcendentals (``log1p``, ``exp``) are **not** vectorized: numpy may
  dispatch them to SIMD implementations whose results differ from the
  scalar ``math`` calls by an ulp.  The affected kernels call ``math``
  per value (see :mod:`repro.core.normalization`);
* ``np.sort``/``np.lexsort`` and element picks are exact, so normalizer
  fits and the ranking sort (:func:`rank_order`) vectorize freely.

Published column arrays are frozen (``writeable=False``): a context is
an immutable snapshot, derived whole from the raw measure columns, so
snapshot-swap publication is one pointer swap for the rwlock readers
instead of a per-consumer deep copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from repro.errors import AssessmentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dimensions import QualityAttribute, QualityDimension

__all__ = [
    "AssessmentColumns",
    "rank_order",
    "columns_from_vectors",
    "vectors_from_columns",
    "freeze",
    "ensure_finite_columns",
]


def freeze(column: np.ndarray) -> np.ndarray:
    """Mark ``column`` immutable and return it (published-snapshot contract)."""
    column.flags.writeable = False
    return column


def ensure_finite_columns(columns: Mapping[str, np.ndarray]) -> None:
    """Reject NaN/inf raw measures before they can corrupt a fit.

    A non-finite measure would otherwise propagate silently into the
    normalizer state and every later score; the columnar build refuses
    it up front with a diagnosable error instead.
    """
    for name, column in columns.items():
        if column.size and not np.isfinite(column).all():
            raise AssessmentError(
                f"measure {name!r} produced non-finite raw values"
            )


def columns_from_vectors(
    vectors: Mapping[str, Mapping[str, float]],
    names: Optional[Sequence[str]] = None,
    *,
    validate: bool = True,
) -> tuple[tuple[str, ...], tuple[str, ...], dict[str, np.ndarray]]:
    """Pivot per-subject measure vectors into per-measure float64 columns.

    Returns ``(subject_ids, measure_names, columns)`` where row *i* of
    every column belongs to the *i*-th subject.  All vectors must cover
    the same measure set (the batched pipeline guarantees it: every
    vector comes from the same registry); a ragged matrix raises
    :class:`~repro.errors.AssessmentError` rather than producing columns
    that silently disagree with the per-subject vectors.
    """
    subject_ids = tuple(vectors)
    if names is None:
        first = next(iter(vectors.values()), None)
        names = tuple(first) if first is not None else ()
    else:
        names = tuple(names)
    name_set = set(names)
    columns: dict[str, list[float]] = {name: [] for name in names}
    for subject_id, vector in vectors.items():
        if len(vector) != len(names) or (validate and name_set.difference(vector)):
            raise AssessmentError(
                f"subject {subject_id!r} does not cover the measure set"
            )
        for name in names:
            columns[name].append(vector[name])
    return (
        subject_ids,
        names,
        {
            name: freeze(np.asarray(values, dtype=np.float64))
            for name, values in columns.items()
        },
    )


def vectors_from_columns(
    subject_ids: Sequence[str],
    names: Sequence[str],
    columns: Mapping[str, np.ndarray],
) -> dict[str, dict[str, float]]:
    """Materialise the per-subject dict-of-dicts view of a column set.

    The inverse of :func:`columns_from_vectors`; used to serve the
    wide dict-shaped consumer surface (exports, experiments, tests)
    lazily from the columnar state.  ``float()`` round-trips the stored
    float64 values bit-exactly.
    """
    lists = [columns[name].tolist() for name in names]
    return {
        subject_id: {
            name: lists[j][i] for j, name in enumerate(names)
        }
        for i, subject_id in enumerate(subject_ids)
    }


def rank_order(
    scores: "np.ndarray | Sequence[float]", subject_ids: Sequence[str]
) -> tuple[str, ...]:
    """Subject ids by decreasing score, ties by ascending id: one ``np.lexsort``.

    Equal to ``sorted(subject_ids, key=lambda s: (-score[s], s))`` for
    unique ids, including ``-0.0``/``0.0`` ties, which compare equal in
    both.  The one ranking sort of the assessment contexts, the sharded
    rank phases and the search engine's static rank.
    """
    if not len(subject_ids):
        return ()
    order = np.lexsort(
        (np.asarray(subject_ids), np.negative(np.asarray(scores, dtype=np.float64)))
    )
    return tuple(subject_ids[i] for i in order.tolist())


@dataclass
class AssessmentColumns:
    """The columnar core of one assessment context.

    Row *i* of every array belongs to ``subject_ids[i]``; ``order`` is
    the ranking (:func:`rank_order` over ``overall``).  All arrays are
    float64 and frozen once published.
    """

    subject_ids: tuple[str, ...]
    measures: tuple[str, ...]
    raw: dict[str, np.ndarray]
    normalized: dict[str, np.ndarray]
    overall: np.ndarray
    dimension_scores: "dict[QualityDimension, np.ndarray]"
    attribute_scores: "dict[QualityAttribute, np.ndarray]"
    order: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.subject_ids)

    def ranking_ids(self) -> tuple[str, ...]:
        """Subject ids by decreasing overall score (ties by id)."""
        return self.order
