"""Interaction graphs over Web 2.0 communities.

The contributor quality model of the paper measures how users "trigger
relevant discussions, influence and spread ideas" (Section 3, citing the
opinion-leader literature).  Beyond the per-user counters of Table 2, a
natural extension — called out as future work in DESIGN.md — is to look at
the *structure* of who interacts with whom.  This module builds a directed
interaction graph from a source or a microblog community and computes the
standard structural influence indicators (in-degree, PageRank, betweenness)
that can be blended with the Table 2 scores.

The graph is a :class:`networkx.DiGraph` whose edges point from the actor
to the user receiving the interaction, weighted by the number of
interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from repro.errors import ReproError
from repro.sources.models import Source
from repro.sources.twitter import MicroblogCommunity

# networkx is imported where a graph is built or measured: ``repro.sources``
# imports this module, and a module-level import would make every process
# touching the package — each shard worker spawn included — pay for it.
if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = ["InteractionGraph", "GraphInfluence", "build_source_graph", "build_community_graph"]


@dataclass(frozen=True)
class GraphInfluence:
    """Structural influence indicators of one user."""

    user_id: str
    in_degree: float
    out_degree: float
    pagerank: float
    betweenness: float

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "user_id": self.user_id,
            "in_degree": self.in_degree,
            "out_degree": self.out_degree,
            "pagerank": self.pagerank,
            "betweenness": self.betweenness,
        }


class InteractionGraph:
    """A weighted, directed user-to-user interaction graph."""

    def __init__(self, graph: Optional[nx.DiGraph] = None) -> None:
        import networkx as nx

        self._graph = graph if graph is not None else nx.DiGraph()

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying networkx graph."""
        return self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def add_interaction(self, actor_id: str, target_id: str, weight: float = 1.0) -> None:
        """Record one (or ``weight``) interactions from ``actor_id`` to ``target_id``."""
        if actor_id == target_id:
            return
        if self._graph.has_edge(actor_id, target_id):
            self._graph[actor_id][target_id]["weight"] += weight
        else:
            self._graph.add_edge(actor_id, target_id, weight=weight)

    def add_user(self, user_id: str) -> None:
        """Ensure a user node exists even when it has no interactions."""
        self._graph.add_node(user_id)

    # -- metrics ---------------------------------------------------------------------

    def user_ids(self) -> list[str]:
        """Every user appearing in the graph."""
        return list(self._graph.nodes)

    def edge_count(self) -> int:
        """Number of distinct interacting pairs."""
        return self._graph.number_of_edges()

    def interaction_volume(self) -> float:
        """Total interaction weight across all edges."""
        return float(
            sum(data.get("weight", 1.0) for _, _, data in self._graph.edges(data=True))
        )

    def influence(self, max_betweenness_nodes: int = 500) -> dict[str, GraphInfluence]:
        """Compute the structural influence indicators for every user.

        Betweenness centrality is exact up to ``max_betweenness_nodes``
        nodes and sampled beyond that (betweenness is cubic-ish and the
        indicator is only used for ranking).
        """
        if len(self) == 0:
            raise ReproError("the interaction graph is empty")
        import networkx as nx

        graph = self._graph
        node_count = graph.number_of_nodes()

        in_degree = dict(graph.in_degree(weight="weight"))
        out_degree = dict(graph.out_degree(weight="weight"))
        pagerank = nx.pagerank(graph, weight="weight") if graph.number_of_edges() else {
            node: 1.0 / node_count for node in graph.nodes
        }
        k = min(node_count, max_betweenness_nodes)
        betweenness = nx.betweenness_centrality(
            graph, k=k if k < node_count else None, weight="weight", seed=7
        )

        return {
            node: GraphInfluence(
                user_id=node,
                in_degree=float(in_degree.get(node, 0.0)),
                out_degree=float(out_degree.get(node, 0.0)),
                pagerank=float(pagerank.get(node, 0.0)),
                betweenness=float(betweenness.get(node, 0.0)),
            )
            for node in graph.nodes
        }

    def top_by_pagerank(self, count: int) -> list[str]:
        """Identifiers of the ``count`` users with the highest PageRank."""
        influence = self.influence()
        ranked = sorted(
            influence.values(), key=lambda item: (-item.pagerank, item.user_id)
        )
        return [item.user_id for item in ranked[: max(0, count)]]

    def reciprocity(self) -> float:
        """Fraction of interacting pairs that interact in both directions."""
        if self._graph.number_of_edges() == 0:
            return 0.0
        import networkx as nx

        return float(nx.reciprocity(self._graph) or 0.0)


def build_source_graph(source: Source) -> InteractionGraph:
    """Build the interaction graph of a generic source.

    Edges come from the recorded interactions (comments, likes, shares,
    mentions, retweets); every registered user and every post author is
    added as a node so isolated users are still ranked.
    """
    graph = InteractionGraph()
    for user_id in source.users:
        graph.add_user(user_id)
    for user_id in source.contributors():
        graph.add_user(user_id)
    for interaction in source.interactions:
        graph.add_interaction(interaction.actor_id, interaction.target_user_id)
    return graph


def build_community_graph(community: MicroblogCommunity) -> InteractionGraph:
    """Build the interaction graph of a microblog community.

    Mentions and retweets materialised as tweets become directed edges; the
    externally-recorded interaction counters have no named counterpart and
    therefore do not contribute edges.
    """
    graph = InteractionGraph()
    for account in community:
        graph.add_user(account.account_id)
    for tweet in community.tweets():
        for mentioned in tweet.mentions:
            graph.add_interaction(tweet.author_id, mentioned)
        if tweet.retweet_of is not None:
            graph.add_interaction(tweet.author_id, tweet.retweet_of)
    return graph
