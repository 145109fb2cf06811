#!/usr/bin/env python3
"""End-to-end benchmark of the durable 2-shard serving cluster.

Drives the production topology — ``ShardCoordinator`` with 2 worker
processes, fsynced per-shard stores, eager refresh — from one client
process running a closed loop on one thread, the way an observer's
dashboard waits on each reply.  See :mod:`cluster_run` for the run's
phases and :mod:`shard_twin` for the traced run.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` gates the ``ingest`` and ``churn`` workloads.  The
read-heavy ``observe`` workload runs the same way but is not gated: its
short, scatter-gather reads make it several times more sensitive to how
fast a shared 2-CPU host happens to run than the write-heavy workloads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it (``report ...``) holds the workload spec, provenance,
sample counts, the measured metrics ``BENCHMARK.json`` does not gate
(``ungated``), tail percentiles, the failed-operation share and, for a
traced run, the attribution summary.  The program under test is the
checkout's ``src/`` tree; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: The keys of ``workloads()``, which needs the program importable first.
WORKLOAD_NAMES = ("observe", "ingest", "churn")


def workloads() -> dict:
    from seeded_inputs import WorkloadSpec

    return {
        "observe": WorkloadSpec(
            name="observe",
            why="read-heavy observer traffic over many small sources: scatter-gather "
            "search, scoring and rank pre-merge do the work; the write path does little",
            source_count=400,
            discussion_budget=10,
            user_budget=10,
            # 8 mutations per 20 rank_tops: 40% of rank_tops refit, so
            # their median stays in the cached-fit mode.
            mix=(("search", 0.86), ("rank_top", 0.10), ("grow", 0.02), ("touch", 0.02)),
            grow_posts=4,
        ),
        "ingest": WorkloadSpec(
            name="ingest",
            why="write-heavy crawler traffic on content-rich sources: journal fsync, "
            "replication, replay, eager patches and checkpoints do the work",
            source_count=120,
            discussion_budget=40,
            user_budget=30,
            mix=(
                ("search", 0.10),
                ("rank_top", 0.10),
                ("grow", 0.50),
                ("touch", 0.24),
                ("add", 0.03),
                ("remove", 0.03),
            ),
            grow_posts=8,
        ),
        "churn": WorkloadSpec(
            name="churn",
            why="crawler discovering and retiring content-rich sources: whole-source "
            "adds and removes through journal, replay, index and model patches",
            source_count=120,
            discussion_budget=40,
            user_budget=30,
            mix=(("search", 0.10), ("rank_top", 0.10), ("add", 0.40), ("remove", 0.40)),
            grow_posts=8,
        ),
    }


def _provenance() -> dict:
    from repro.perf.buildinfo import git_build_stamp

    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **git_build_stamp(),
    }


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _metric_block(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def use_source_tree() -> bool:
    """Put the checkout's ``src/`` first on the path; False when it is missing."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SOURCE))
    return True


def measure(spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the report."""
    from cluster_run import ClusterRun, Divergence

    work = WORK / f"{spec.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    correct = True
    try:
        run = ClusterRun(spec, seed, seconds, trace, work)
        run.run()
    except Divergence as exc:
        correct = False
        print(f"error: correctness gate failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    report = {
        "workload": spec.name,
        "why": spec.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "spec": spec.to_dict(),
        "provenance": _provenance(),
        "samples": run.samples(),
        "tails": run.tails(),
        "loop_periodic_checkpoints": run.periodic_checkpoints(),
        "checkpoint_stall_ms": run.checkpoint_stalls,
        "failed_op_share": run.failed / max(1, run.attempted),
        "errors": run.errors,
    }
    metrics = {}
    if correct:
        if trace:
            measured = run.tracer.metrics(run.restart, run.snapshot_bytes)
            report["top_layers"] = [
                {"layer": layer, "share": share}
                for layer, share in run.tracer.top_layers()
            ]
        else:
            measured = run.end_to_end()
        # The result line carries the metrics BENCHMARK.json declares for
        # this mode; the report keeps the others.
        declared = {entry["name"] for entry in _config()["per_layer" if trace else "end_to_end"]}
        metrics = _metric_block({k: v for k, v in measured.items() if k in declared})
        report["ungated"] = _metric_block(
            {k: v for k, v in measured.items() if k not in declared}
        )
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, report


def print_results(result: dict, report: dict) -> None:
    """The readable table, the report line, then the result line (last)."""
    name = report["workload"]
    for metric, entry in sorted({**result["metrics"], **report.get("ungated", {})}.items()):
        print(f"{name:8s} {metric:44s} {entry['value']:16.6f} {entry['unit']}")
    for metric, entry in report["tails"].items():
        print(f"{name:8s} {metric:44s} {entry['value']:16.6f} ms "
              f"({entry['samples']} samples)")
    print(f"{name:8s} {'failed_op_share':44s} {report['failed_op_share']:16.6f} share")
    if "top_layers" in report:
        named = ", ".join(
            f"{entry['layer']} {entry['share']:.1%}" for entry in report["top_layers"]
        )
        print(f"{name:8s} largest layers by share of wall time: {named}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not use_source_tree():
        print(f"error: the program under test is missing ({SOURCE / 'repro'})",
              file=sys.stderr)
        return 2
    spec = workloads()[args.workload]
    result, report = measure(spec, args.seed, args.seconds, bool(args.trace))
    print_results(result, report)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
