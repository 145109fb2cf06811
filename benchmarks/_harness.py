"""Report writer shared by the perf harnesses that merge into ``BENCH_perf.json``.

Each harness owns one top-level section of the report.  Merging reads
the existing report (an unreadable or malformed file starts a fresh
one), stamps the ``meta`` block with the interpreter, platform and git
build, sets the harness's section and writes the file atomically.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.perf.buildinfo import git_build_stamp
from repro.persistence.format import atomic_write_json

__all__ = ["merge_report_section"]


def merge_report_section(
    output_path: Path,
    key: str,
    section: Mapping[str, Any],
    meta: Optional[Mapping[str, Any]] = None,
) -> None:
    """Merge ``section`` into the JSON report at ``output_path`` under ``key``.

    ``meta`` entries, when given, are added to the report's ``meta``
    block after the build stamp.  Exits the process with status 1 when
    the report cannot be written.
    """
    report: dict = {}
    if output_path.exists():
        try:
            report = json.loads(output_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
    report.setdefault(
        "meta",
        {"python": platform.python_version(), "platform": platform.platform()},
    )
    report["meta"].update(git_build_stamp())
    if meta:
        report["meta"].update(meta)
    report[key] = section
    try:
        atomic_write_json(output_path, report)
    except OSError as exc:
        print(f"FATAL: could not write {output_path}: {exc}", file=sys.stderr)
        sys.exit(1)
