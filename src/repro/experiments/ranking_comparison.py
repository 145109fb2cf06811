"""Experiment E3 — Section 4.1: quality ranking vs. search-engine ranking.

For every query of the workload the search engine returns its top-20 blogs
and forums; the same 20 sites are re-ranked with the quality model (using a
Domain of Interest centred on the query's category) and the two orderings
are compared.  The experiment reports the statistics of Section 4.1:

* the Kendall tau between each single Table 1 measure and the search rank
  (pooled over every query/site observation);
* the average and variance of the per-site rank displacement;
* the fraction of sites displaced by more than 5 and more than 10
  positions, and the fraction of coincident positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.domain import DomainOfInterest
from repro.core.measures import source_measure_registry
from repro.core.source_quality import SourceQualityModel
from repro.datasets.google_study import GoogleStudyDataset, GoogleStudySpec, build_google_study
from repro.errors import InsufficientDataError
from repro.experiments.reporting import format_markdown_table
from repro.sources.corpus import SourceCorpus
from repro.stats.ranking import (
    displacement_statistics,
    kendall_tau,
    rank_displacements,
)

__all__ = ["RankingStudySpec", "QueryOutcome", "RankingStudyResult", "run_ranking_comparison"]


@dataclass(frozen=True)
class RankingStudySpec:
    """Configuration of the ranking-comparison experiment."""

    study: GoogleStudySpec = GoogleStudySpec()
    domain_independent_only: bool = False
    minimum_results_per_query: int = 5

    @classmethod
    def paper_scale(cls) -> "RankingStudySpec":
        """Spec matching the paper's reported scale."""
        return cls(study=GoogleStudySpec.paper_scale())


@dataclass(frozen=True)
class QueryOutcome:
    """Per-query outcome: the two rankings and the per-site displacements."""

    query_id: str
    query_text: str
    category: str
    search_ranking: tuple[str, ...]
    quality_ranking: tuple[str, ...]
    displacements: tuple[int, ...]


@dataclass
class RankingStudyResult:
    """Aggregated result of the ranking-comparison experiment."""

    query_count: int
    evaluated_queries: int
    total_result_slots: int
    average_displacement: float
    displacement_variance: float
    fraction_displaced_over_5: float
    fraction_displaced_over_10: float
    fraction_coincident: float
    per_measure_tau: dict[str, float] = field(default_factory=dict)
    outcomes: list[QueryOutcome] = field(default_factory=list)

    def to_markdown(self) -> str:
        """Render the Section 4.1 statistics plus the per-measure taus."""
        summary = format_markdown_table(
            ("Statistic", "Value"),
            [
                ("queries evaluated", self.evaluated_queries),
                ("result slots analysed", self.total_result_slots),
                ("average rank displacement", self.average_displacement),
                ("displacement variance", self.displacement_variance),
                ("fraction displaced > 5", self.fraction_displaced_over_5),
                ("fraction displaced > 10", self.fraction_displaced_over_10),
                ("fraction coincident", self.fraction_coincident),
            ],
        )
        taus = format_markdown_table(
            ("Measure", "Kendall tau vs search rank"),
            sorted(self.per_measure_tau.items()),
        )
        return summary + "\n\n" + taus

    def to_dict(self) -> dict[str, Any]:
        """Serialise the aggregate statistics (per-query outcomes excluded)."""
        return {
            "query_count": self.query_count,
            "evaluated_queries": self.evaluated_queries,
            "total_result_slots": self.total_result_slots,
            "average_displacement": self.average_displacement,
            "displacement_variance": self.displacement_variance,
            "fraction_displaced_over_5": self.fraction_displaced_over_5,
            "fraction_displaced_over_10": self.fraction_displaced_over_10,
            "fraction_coincident": self.fraction_coincident,
            "per_measure_tau": dict(self.per_measure_tau),
        }


def run_ranking_comparison(
    spec: Optional[RankingStudySpec] = None,
    dataset: Optional[GoogleStudyDataset] = None,
) -> RankingStudyResult:
    """Run the Section 4.1 experiment.

    ``dataset`` can be supplied to reuse an already-built corpus (the
    benchmarks do this to keep dataset construction out of the timed
    region); otherwise it is built from ``spec.study``.
    """
    spec = spec or RankingStudySpec()
    dataset = dataset or build_google_study(spec.study)

    registry = source_measure_registry()
    measure_names = [
        definition.name
        for definition in (
            registry.domain_independent()
            if spec.domain_independent_only
            else list(registry)
        )
    ]

    all_displacements: list[int] = []
    outcomes: list[QueryOutcome] = []
    measure_observations: dict[str, list[float]] = {name: [] for name in measure_names}
    search_positions: list[float] = []
    evaluated = 0

    for query in dataset.workload:
        results = dataset.engine.search(
            query.text, limit=dataset.spec.results_per_query
        )
        if len(results) < spec.minimum_results_per_query:
            continue
        evaluated += 1
        search_ids = [result.source_id for result in results]
        sub_corpus = SourceCorpus(dataset.corpus.get(source_id) for source_id in search_ids)

        domain = DomainOfInterest(categories=(query.category,), name=f"query-{query.query_id}")
        model = SourceQualityModel(
            domain,
            alexa=dataset.alexa,
            feedburner=dataset.feedburner,
            domain_independent_only=spec.domain_independent_only,
        )
        quality_ids = model.ranking_ids(sub_corpus)

        displacements = rank_displacements(search_ids, quality_ids)
        per_site = [displacements[source_id] for source_id in search_ids]
        all_displacements.extend(per_site)
        outcomes.append(
            QueryOutcome(
                query_id=query.query_id,
                query_text=query.text,
                category=query.category,
                search_ranking=tuple(search_ids),
                quality_ranking=tuple(quality_ids),
                displacements=tuple(per_site),
            )
        )

        # Pooled per-measure observations against the search position.
        raw_vectors = model.raw_measures(sub_corpus)
        for position, source_id in enumerate(search_ids, start=1):
            vector = raw_vectors[source_id]
            search_positions.append(float(position))
            for name in measure_names:
                measure_observations[name].append(vector.get(name, 0.0))

    if not all_displacements:
        raise InsufficientDataError(
            "no query returned enough results; enlarge the corpus or the workload"
        )

    stats = displacement_statistics(all_displacements)
    per_measure_tau = {}
    for name, values in measure_observations.items():
        if len(values) >= 2:
            # Positive tau = the measure improves with a better (smaller)
            # search position; we flip the sign of the position so that the
            # sign convention matches "correlation with rank goodness".
            per_measure_tau[name] = kendall_tau(
                values, [-position for position in search_positions]
            )

    return RankingStudyResult(
        query_count=len(dataset.workload),
        evaluated_queries=evaluated,
        total_result_slots=stats.item_count,
        average_displacement=stats.average_displacement,
        displacement_variance=stats.displacement_variance,
        fraction_displaced_over_5=stats.fraction_displaced_over_5,
        fraction_displaced_over_10=stats.fraction_displaced_over_10,
        fraction_coincident=stats.fraction_coincident,
        per_measure_tau=per_measure_tau,
        outcomes=outcomes,
    )
