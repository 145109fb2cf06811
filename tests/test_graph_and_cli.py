"""Tests for the interaction-graph extension and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.sources.graph import (
    InteractionGraph,
    build_community_graph,
    build_source_graph,
)


class TestInteractionGraph:
    def make_graph(self) -> InteractionGraph:
        graph = InteractionGraph()
        graph.add_user("isolated")
        graph.add_interaction("a", "hub")
        graph.add_interaction("b", "hub")
        graph.add_interaction("c", "hub")
        graph.add_interaction("hub", "a")
        graph.add_interaction("a", "hub")  # repeated edge accumulates weight
        return graph

    def test_nodes_edges_and_volume(self):
        graph = self.make_graph()
        assert len(graph) == 5
        assert graph.edge_count() == 4
        assert graph.interaction_volume() == pytest.approx(5.0)

    def test_self_interactions_ignored(self):
        graph = InteractionGraph()
        graph.add_interaction("a", "a")
        assert graph.edge_count() == 0

    def test_influence_indicators(self):
        graph = self.make_graph()
        influence = graph.influence()
        assert set(influence) == {"a", "b", "c", "hub", "isolated"}
        hub = influence["hub"]
        assert hub.in_degree == pytest.approx(4.0)
        assert hub.pagerank == max(item.pagerank for item in influence.values())
        assert influence["isolated"].in_degree == 0.0

    def test_top_by_pagerank(self):
        graph = self.make_graph()
        assert graph.top_by_pagerank(1) == ["hub"]
        assert len(graph.top_by_pagerank(3)) == 3

    def test_reciprocity(self):
        graph = self.make_graph()
        assert 0.0 < graph.reciprocity() <= 1.0
        assert InteractionGraph().reciprocity() == 0.0

    def test_empty_graph_influence_rejected(self):
        with pytest.raises(ReproError):
            InteractionGraph().influence()

    def test_build_source_graph(self, single_source):
        graph = build_source_graph(single_source)
        assert set(single_source.users) <= set(graph.user_ids())
        assert graph.edge_count() > 0
        influence = graph.influence()
        assert all(item.pagerank >= 0 for item in influence.values())

    def test_build_community_graph(self, small_community):
        graph = build_community_graph(small_community)
        assert len(graph) == len(small_community)


class TestCli:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_rank_command(self, capsys, small_corpus, tmp_path):
        path = tmp_path / "corpus.json"
        small_corpus.save(path)
        exit_code = main(["rank", "--corpus", str(path), "--top", "3",
                          "--categories", "travel", "food"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "rank" in captured
        assert len(captured.strip().splitlines()) == 4  # header + 3 rows

    def test_rank_command_with_generated_corpus(self, capsys):
        exit_code = main(["rank", "--sources", "6", "--seed", "3", "--top", "2"])
        assert exit_code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_influencers_command(self, capsys):
        exit_code = main(["influencers", "--accounts", "60", "--seed", "5", "--top", "4"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "influence" in captured

    def test_experiment_table1_command(self, capsys):
        exit_code = main(["experiment", "table1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "open_discussion_category_coverage" in captured

    def test_experiment_invalid_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "not-an-experiment"])

    def test_journal_command_lists_records_encodings_and_a_torn_tail(self, capsys, tmp_path):
        from repro.persistence import CorpusStore
        from repro.sources.generators import CorpusGenerator, CorpusSpec

        corpus = CorpusGenerator(
            CorpusSpec(source_count=3, seed=5, discussion_budget=3, user_budget=4)
        ).generate()
        store = CorpusStore(tmp_path, fsync=False)
        store.attach(corpus)
        base = corpus.version
        touched, removed = corpus.source_ids()[:2]
        corpus.touch(touched)  # a whole source: typed
        corpus.remove(removed)  # a partial record: JSON
        store.close()
        with open(store.journal_path, "ab") as handle:
            handle.write(b"\x07\x00\x00")  # a torn tail
        assert main(["journal", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"  base version {base}"
        rows = [line.split() for line in lines[3:5]]
        assert [row[:4] for row in rows] == [
            [str(base + 1), "touch", touched, "typed"],
            [str(base + 2), "remove", removed, "json"],
        ]
        assert lines[5].startswith("  tail: torn at byte ")

    def test_journal_command_prints_one_block_per_shard(self, capsys, tmp_path):
        from repro.persistence import ClusterStore, CorpusStore
        from repro.sources.corpus import SourceCorpus

        cluster = ClusterStore(tmp_path, shard_count=2, fsync=False)
        with CorpusStore(cluster.shard_directory(0), fsync=False, shard=(0, 2)) as store:
            store.attach(SourceCorpus())
        assert main(["journal", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("shard 0:") == out.count("shard 1:") == 1
        assert "tail: clean" in out and "(none)" in out
