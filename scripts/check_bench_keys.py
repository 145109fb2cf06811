#!/usr/bin/env python
"""CI smoke check: assert BENCH_perf.json contains every expected section.

Exits non-zero with a readable message when a perf harness silently failed
to record its section or a required per-section field is missing.  Usage::

    python scripts/check_bench_keys.py BENCH_perf.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: section -> fields every harness run must record.
EXPECTED = {
    "corpus_assessment": (
        "baseline_seconds",
        "optimized_seconds",
        "speedup",
        "target_speedup",
        "sources",
    ),
    "repeated_rank": ("baseline_seconds", "optimized_seconds", "speedup"),
    "search_throughput": ("baseline_qps", "optimized_qps", "speedup"),
    "sentiment_aggregation": ("baseline_seconds", "optimized_seconds", "speedup"),
    "incremental_index": (
        "incremental_seconds",
        "full_rebuild_seconds",
        "speedup",
        "target_speedup",
    ),
    "incremental_assessment": (
        "incremental_seconds",
        "full_rebuild_seconds",
        "speedup",
        "target_speedup",
    ),
    "eager_refresh": (
        "lazy_first_read_seconds",
        "eager_first_read_seconds",
        "speedup",
        "target_speedup",
    ),
    "concurrent_serving": (
        "baseline_read_qps",
        "concurrent_read_qps",
        "speedup",
        "target_speedup",
        "bit_identical_at_quiesce",
    ),
    "persistence": (
        "checkpoint_seconds",
        "incremental_checkpoint_seconds",
        "corpus_load_seconds",
        "snapshot_bytes",
        "warm_start_seconds",
        "cold_rebuild_seconds",
        "speedup",
        "target_speedup",
        "bit_identical",
        "events_replayed",
    ),
    "sharded_serving": (
        "read_qps_1worker",
        "read_qps_4workers",
        "read_qps_8workers",
        "capacity_qps_1worker",
        "capacity_qps_4workers",
        "capacity_qps_8workers",
        "coordinator_cpu_seconds_1worker",
        "coordinator_cpu_seconds_4workers",
        "coordinator_cpu_seconds_8workers",
        "coordinator_cpu_per_read_8workers",
        "wire_bytes_per_read_1worker",
        "wire_bytes_per_read_8workers",
        "speedup",
        "target_speedup",
        "bit_identical_at_quiesce",
        "host_cpus",
    ),
}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} BENCH_perf.json", file=sys.stderr)
        return 2
    path = Path(argv[1])
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"FATAL: cannot read {path}: {exc}", file=sys.stderr)
        return 1

    problems: list[str] = []
    for section, fields in EXPECTED.items():
        entry = report.get(section)
        if not isinstance(entry, dict):
            problems.append(f"missing section: {section}")
            continue
        for field in fields:
            if field not in entry:
                problems.append(f"missing field: {section}.{field}")
    meta = report.get("meta")
    if not isinstance(meta, dict):
        problems.append("missing section: meta")
    else:
        for field in ("git_describe", "git_commit"):
            if field not in meta:
                problems.append(f"missing field: meta.{field}")

    if problems:
        for problem in problems:
            print(f"FATAL: {problem}", file=sys.stderr)
        return 1
    print(f"{path}: all {len(EXPECTED)} perf sections present")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
