"""Command-line interface.

Exposes the main workflows of the library without writing any code:

``python -m repro.cli rank``
    Generate (or load) a corpus and print its quality ranking.

``python -m repro.cli influencers``
    Build the London microblog community and print the top influencers.

``python -m repro.cli experiment <id>``
    Run one of the paper's experiments (``table1``, ``table2``, ``table3``,
    ``table4``, ``ranking``, ``figure1``) and print the reproduced table.

``python -m repro.cli dashboard``
    Build and execute the Figure 1 sentiment dashboard and print its summary.

``python -m repro.cli checkpoint``
    Generate (or load) a corpus and write a durable snapshot + journal
    checkpoint into a store directory.

``python -m repro.cli recover``
    Recover a corpus (and warm consumers) from a store directory, print
    what the recovery ladder did, and show the recovered ranking.

``python -m repro.cli journal``
    List the records of a store's write-ahead journal (one block per
    shard for a cluster directory): version, op, source, encoding and
    size of each, and whether the tail is torn.  Whole-source records are
    typed blocks, not readable JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from repro.core.contributor_quality import ContributorQualityModel
from repro.core.domain import DomainOfInterest
from repro.core.filtering import InfluencerDetector
from repro.core.source_quality import SourceQualityModel
from repro.datasets.london_twitter import LondonTwitterSpec, build_london_twitter
from repro.experiments.figure1_mashup import run_figure1
from repro.experiments.ranking_comparison import RankingStudySpec, run_ranking_comparison
from repro.experiments.table1_source_model import run_table1
from repro.experiments.table2_contributor_model import run_table2
from repro.experiments.table3_factor_analysis import Table3Spec, run_table3
from repro.experiments.table4_contributor_anova import run_table4
from repro.datasets.google_study import GoogleStudySpec
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import CorpusGenerator, CorpusSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quality-driven filtering and composition of Web 2.0 sources",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    rank = subparsers.add_parser("rank", help="rank a corpus of sources by quality")
    rank.add_argument("--sources", type=int, default=20, help="number of synthetic sources")
    rank.add_argument("--seed", type=int, default=7, help="generator seed")
    rank.add_argument("--corpus", type=str, default=None,
                      help="path to a corpus JSON file (overrides --sources/--seed)")
    rank.add_argument("--categories", nargs="+", default=["travel", "food"],
                      help="Domain of Interest categories")
    rank.add_argument("--top", type=int, default=10, help="how many sources to print")

    influencers = subparsers.add_parser(
        "influencers", help="detect influencers in the London microblog community"
    )
    influencers.add_argument("--accounts", type=int, default=300)
    influencers.add_argument("--seed", type=int, default=23)
    influencers.add_argument("--top", type=int, default=10)

    experiment = subparsers.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument(
        "experiment_id",
        choices=["table1", "table2", "table3", "table4", "ranking", "figure1"],
    )
    experiment.add_argument("--paper-scale", action="store_true",
                            help="use the paper-scale dataset sizes (slower)")

    subparsers.add_parser("dashboard", help="run the Figure 1 sentiment dashboard")

    checkpoint = subparsers.add_parser(
        "checkpoint", help="write a durable snapshot + journal checkpoint"
    )
    checkpoint.add_argument("store", type=str, help="store directory to checkpoint into")
    checkpoint.add_argument("--sources", type=int, default=20,
                            help="number of synthetic sources")
    checkpoint.add_argument("--seed", type=int, default=7, help="generator seed")
    checkpoint.add_argument("--corpus", type=str, default=None,
                            help="path to a corpus JSON file (overrides --sources/--seed)")
    checkpoint.add_argument("--categories", nargs="+", default=["travel", "food"],
                            help="Domain of Interest categories")
    checkpoint.add_argument("--no-consumers", action="store_true",
                            help="snapshot the corpus only (no index/model sections)")

    recover = subparsers.add_parser(
        "recover", help="recover a corpus from a snapshot + journal store"
    )
    recover.add_argument("store", type=str, help="store directory to recover from")
    recover.add_argument("--categories", nargs="+", default=["travel", "food"],
                         help="Domain of Interest categories for the warmed models")
    recover.add_argument("--top", type=int, default=10,
                         help="how many recovered sources to print")

    journal = subparsers.add_parser(
        "journal", help="list the records of a store's write-ahead journal"
    )
    journal.add_argument("store", type=str, help="store or cluster directory to read")
    return parser


def _command_rank(args: argparse.Namespace) -> int:
    if args.corpus:
        corpus = SourceCorpus.load(args.corpus)
    else:
        corpus = CorpusGenerator(
            CorpusSpec(source_count=args.sources, seed=args.seed)
        ).generate()
    domain = DomainOfInterest(categories=tuple(args.categories), name="cli")
    model = SourceQualityModel(domain)
    print(f"{'rank':>4}  {'source':<22} {'overall':>8}")
    for position, assessment in enumerate(model.rank(corpus)[: args.top], start=1):
        print(f"{position:>4}  {assessment.source_id:<22} {assessment.overall:8.3f}")
    return 0


def _command_influencers(args: argparse.Namespace) -> int:
    dataset = build_london_twitter(
        LondonTwitterSpec(account_count=args.accounts, seed=args.seed)
    )
    source = dataset.community.to_source("london-microblog")
    domain = DomainOfInterest(
        categories=("news", "lifestyle", "sports", "music", "travel"), name="london"
    )
    detector = InfluencerDetector(ContributorQualityModel(domain))
    print(f"{'user':<22} {'kind':<8} {'influence':>9}")
    for assessment in detector.detect(source, top=args.top):
        account = dataset.community.account(assessment.user_id)
        print(
            f"{assessment.user_id:<22} {account.kind.value:<8} "
            f"{detector.score(assessment):9.3f}"
        )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    experiment_id = args.experiment_id
    if experiment_id == "table1":
        print(run_table1().to_markdown())
    elif experiment_id == "table2":
        print(run_table2().to_markdown())
    elif experiment_id == "table3":
        study = GoogleStudySpec.paper_scale() if args.paper_scale else GoogleStudySpec()
        print(run_table3(Table3Spec(study=study)).to_markdown())
    elif experiment_id == "table4":
        print(run_table4().to_markdown())
    elif experiment_id == "ranking":
        spec = (
            RankingStudySpec.paper_scale() if args.paper_scale else RankingStudySpec()
        )
        print(run_ranking_comparison(spec).to_markdown())
    elif experiment_id == "figure1":
        print(run_figure1().to_markdown())
    else:  # pragma: no cover - argparse already restricts the choices
        raise ValueError(experiment_id)
    return 0


def _command_dashboard(args: argparse.Namespace) -> int:
    result = run_figure1()
    print(result.to_markdown())
    return 0


def _command_checkpoint(args: argparse.Namespace) -> int:
    from repro.persistence import CorpusStore
    from repro.search.engine import SearchEngine

    if args.corpus:
        corpus = SourceCorpus.load(args.corpus)
    else:
        corpus = CorpusGenerator(
            CorpusSpec(source_count=args.sources, seed=args.seed)
        ).generate()
    engine = None
    source_model = None
    if not args.no_consumers and len(corpus):
        domain = DomainOfInterest(categories=tuple(args.categories), name="cli")
        engine = SearchEngine(corpus)
        source_model = SourceQualityModel(domain)
    with CorpusStore(args.store) as store:
        store.attach(corpus, engine=engine, source_model=source_model)
        version = store.checkpoint()
    sections = "corpus only" if args.no_consumers else "corpus + index + source model"
    print(f"checkpointed {len(corpus)} sources at corpus version {version}")
    print(f"  store:    {store.directory}")
    print(f"  sections: {sections}")
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import MissingShardSnapshotError
    from repro.persistence import ClusterStore, CorpusStore

    domain = DomainOfInterest(categories=tuple(args.categories), name="cli")
    if (Path(args.store) / ClusterStore.MANIFEST_NAME).exists():
        # A sharded deployment's store: recover every shard and merge.
        try:
            stack = ClusterStore(args.store).recover_stack(domain=domain)
        except MissingShardSnapshotError as exc:
            print(f"error: {exc}")
            print("  restore that shard's directory (or a backup of it) and retry;")
            print("  recovering without it would silently drop its sources.")
            return 1
    else:
        with CorpusStore(args.store) as store:
            stack = store.recover_stack(domain=domain, attach=False)
    result = stack.result
    used = result.snapshot_used or "no snapshot (journal-only start)"
    print(f"recovered {len(stack.corpus)} sources at corpus version {stack.corpus.version}")
    print(f"  snapshot: {used}")
    print(f"  journal:  {result.applied} events replayed, {result.skipped} skipped")
    for note in result.notes:
        print(f"  note:     {note}")
    if stack.source_model is not None and len(stack.corpus):
        ranking = stack.source_model.rank(stack.corpus)
        print(f"{'rank':>4}  {'source':<22} {'overall':>8}")
        for position, assessment in enumerate(ranking[: args.top], start=1):
            print(f"{position:>4}  {assessment.source_id:<22} {assessment.overall:8.3f}")
    return 0


def _print_journal(path) -> bool:
    """Print one journal's records; False when its header is unusable."""
    from repro.errors import PersistenceError
    from repro.persistence import read_journal

    if not path.exists():
        print(f"journal: {path} (none)")
        return True
    try:
        reader = read_journal(path)
    except PersistenceError as exc:
        print(f"journal: {path} unusable: {exc}")
        return False
    print(f"journal: {path}")
    print(f"  base version {reader.base_version}")
    print(f"  {'version':>8}  {'op':<20} {'source':<24} {'encoding':<8} {'bytes':>9}")
    for record, size in zip(reader.records, reader.sizes):
        encoding = "typed" if "blocks" in record else "json"
        print(
            f"  {record.get('version', '?')!s:>8}  {record.get('op', '?')!s:<20} "
            f"{record.get('source_id', '?')!s:<24} {encoding:<8} {size:>9}"
        )
    size = path.stat().st_size
    if reader.torn:
        print(
            f"  tail: torn at byte {reader.valid_length} "
            f"({size - reader.valid_length} bytes a recovery truncates)"
        )
    else:
        print("  tail: clean")
    return True


def _command_journal(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.persistence import ClusterStore, CorpusStore

    directory = Path(args.store)
    stores = {None: directory}
    if (directory / ClusterStore.MANIFEST_NAME).exists():
        cluster = ClusterStore(directory)
        stores = {
            f"shard {index}": cluster.shard_directory(index)
            for index in range(cluster.shard_count)
        }
    usable = True
    for label, store in stores.items():
        if label is not None:
            print(f"{label}:")
        usable = _print_journal(store / CorpusStore.JOURNAL_NAME) and usable
    return 0 if usable else 1


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "rank": _command_rank,
    "influencers": _command_influencers,
    "experiment": _command_experiment,
    "dashboard": _command_dashboard,
    "checkpoint": _command_checkpoint,
    "recover": _command_recover,
    "journal": _command_journal,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the command-line interface."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
