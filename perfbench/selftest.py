#!/usr/bin/env python3
"""Smoke-scale self-test of the end-to-end benchmark.

Runs every workload briefly — a small corpus and a short loop — untraced
and traced, through the same measurement path ``run.py`` uses, and checks
three things per run:

* every metric ``BENCHMARK.json`` names for that mode is measured, with
  the unit it declares, and so is every end-to-end metric the report
  carries ungated;
* the correctness gate passed (after the loop and after every restart);
* no operation failed at the seed (``failed_op_share`` is 0).

It also checks that every shard ran a periodic checkpoint inside the
loop, where its stall counts toward the loop's figures.

It prints each run's metrics, so one command shows every metric of every
workload.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run as bench

#: Smoke-scale corpus size per workload (the full sizes are in ``run.py``).
SMOKE_SOURCES = {"observe": 60, "ingest": 30, "churn": 30}
SMOKE_SECONDS = 3.0
SEED = 7


def _ungated(spec) -> dict[str, str]:
    """End-to-end metrics an untraced run reports outside the gated set."""
    names = [f"{kind}_p50_ms" for kind, _ in spec.mix] + ["mutation_p50_ms"]
    return {name: "ms" for name in names}


def _declared(mode: str) -> dict[str, str]:
    config = json.loads((bench.ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {entry["name"]: entry["unit"] for entry in config[mode]}


def check(
    result: dict, report: dict, declared: dict[str, str], ungated: dict[str, str]
) -> list[str]:
    """The self-test's findings for one run (empty when it passed)."""
    problems = []
    reported = {**report.get("ungated", {}), **result["metrics"]}
    for name, unit in {**declared, **ungated}.items():
        entry = reported.get(name)
        if entry is None:
            problems.append(f"metric {name} missing")
        elif entry.get("unit") != unit:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}, not {unit!r}")
    if not result["correct"]:
        problems.append("correctness gate failed")
    if result["failed"]:
        problems.append(f"{result['failed']} operations failed: {report['errors']}")
    if 0 in report["loop_periodic_checkpoints"]:
        problems.append(
            f"periodic checkpoints per shard in the loop: {report['loop_periodic_checkpoints']}"
        )
    return problems


def main() -> int:
    if not bench.use_source_tree():
        print("error: the program under test is missing", file=sys.stderr)
        return 2
    failures = 0
    for name, spec in bench.workloads().items():
        smoke = dataclasses.replace(spec, source_count=SMOKE_SOURCES[name])
        for trace, mode in ((False, "end_to_end"), (True, "per_layer")):
            result, report = bench.measure(smoke, SEED, SMOKE_SECONDS, trace)
            bench.print_results(result, report)
            problems = check(
                result, report, _declared(mode), {} if trace else _ungated(smoke)
            )
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"selftest {name} trace={int(trace)}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
