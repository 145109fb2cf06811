"""Factor analysis based on principal components.

Section 4.1 of the paper runs a factor analysis "based on the principal
component technique" that reduces the domain-independent quality measures
to three component indicators — traffic, participation and time — each
aggregating a subset of the original measures (Table 3).

This module implements the same pipeline: standardise the measure columns,
extract principal components from the correlation matrix, optionally apply
a varimax rotation to sharpen the loadings, and assign every measure to the
component on which it loads most strongly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import InsufficientDataError, StatisticsError

__all__ = ["FactorAnalysisResult", "factor_analysis", "varimax_rotation"]


@dataclass(frozen=True)
class FactorAnalysisResult:
    """Result of a principal-component factor analysis."""

    measure_names: tuple[str, ...]
    component_count: int
    loadings: tuple[tuple[float, ...], ...]
    explained_variance_ratio: tuple[float, ...]
    assignments: dict[str, int]
    component_scores: tuple[tuple[float, ...], ...]

    def loading(self, measure: str, component: int) -> float:
        """Loading of ``measure`` on ``component`` (0-based)."""
        try:
            row = self.measure_names.index(measure)
        except ValueError as exc:
            raise StatisticsError(f"unknown measure: {measure!r}") from exc
        return self.loadings[row][component]

    def component_score_column(self, component: int) -> list[float]:
        """Per-observation scores of ``component``."""
        return [row[component] for row in self.component_scores]

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "measures": list(self.measure_names),
            "component_count": self.component_count,
            "loadings": [list(row) for row in self.loadings],
            "explained_variance_ratio": list(self.explained_variance_ratio),
            "assignments": dict(self.assignments),
        }


def varimax_rotation(
    loadings: np.ndarray, max_iterations: int = 100, tolerance: float = 1e-6
) -> np.ndarray:
    """Varimax rotation of a loading matrix (rows: variables, cols: factors)."""
    if loadings.ndim != 2:
        raise StatisticsError("loadings must be a 2-D matrix")
    n_rows, n_cols = loadings.shape
    if n_cols < 2:
        return loadings.copy()
    rotation = np.eye(n_cols)
    variance = 0.0
    for _ in range(max_iterations):
        rotated = loadings @ rotation
        transformed = loadings.T @ (
            rotated**3 - (rotated * (rotated**2).sum(axis=0)) / n_rows
        )
        u, singular_values, vt = np.linalg.svd(transformed)
        rotation = u @ vt
        new_variance = singular_values.sum()
        if variance != 0 and new_variance < variance * (1 + tolerance):
            break
        variance = new_variance
    return loadings @ rotation


def factor_analysis(
    columns: Mapping[str, Sequence[float]],
    component_count: int = 3,
    rotate: bool = True,
) -> FactorAnalysisResult:
    """Run a principal-component factor analysis over named measure columns.

    Parameters
    ----------
    columns:
        Mapping from measure name to its per-observation values.  All
        columns must have the same length.
    component_count:
        Number of components to retain (the paper retains three).
    rotate:
        Apply a varimax rotation before assigning measures to components.
    """
    names = tuple(columns)
    if len(names) < 2:
        raise StatisticsError("factor analysis needs at least two measures")
    lengths = {len(columns[name]) for name in names}
    if len(lengths) != 1:
        raise StatisticsError("all measure columns must have the same length")
    n_observations = lengths.pop()
    if n_observations < len(names) + 1:
        raise InsufficientDataError(
            "factor analysis needs more observations than measures"
        )
    if not 1 <= component_count <= len(names):
        raise StatisticsError(
            "component_count must be between 1 and the number of measures"
        )

    matrix = np.column_stack(
        [np.asarray(list(columns[name]), dtype=float) for name in names]
    )
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)
    stds[stds == 0] = 1.0
    standardized = (matrix - means) / stds

    correlation = np.corrcoef(standardized, rowvar=False)
    correlation = np.nan_to_num(correlation, nan=0.0)
    np.fill_diagonal(correlation, 1.0)

    eigenvalues, eigenvectors = np.linalg.eigh(correlation)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], a_min=0.0, a_max=None)
    eigenvectors = eigenvectors[:, order]

    retained_values = eigenvalues[:component_count]
    retained_vectors = eigenvectors[:, :component_count]
    loadings = retained_vectors * np.sqrt(retained_values)

    if rotate:
        loadings = varimax_rotation(loadings)

    total_variance = eigenvalues.sum()
    explained = (
        tuple(float(value / total_variance) for value in retained_values)
        if total_variance > 0
        else tuple(0.0 for _ in retained_values)
    )

    assignments = {
        name: int(np.argmax(np.abs(loadings[row_index])))
        for row_index, name in enumerate(names)
    }

    # Component scores: project standardised observations on the loadings.
    scores = standardized @ loadings
    component_scores = tuple(tuple(float(value) for value in row) for row in scores)

    return FactorAnalysisResult(
        measure_names=names,
        component_count=component_count,
        loadings=tuple(tuple(float(value) for value in row) for row in loadings),
        explained_variance_ratio=explained,
        assignments=assignments,
        component_scores=component_scores,
    )
