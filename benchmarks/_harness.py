"""Shared preamble and report writer of the perf harnesses behind ``BENCH_perf.json``.

Every harness takes ``--output`` (the report, by default
``BENCH_perf.json`` in the repository root) and ``--strict`` (exit
non-zero when a speedup target is missed); :func:`harness_parser`
declares both.  Each harness owns one top-level section of the report.
Merging reads the existing report (an unreadable or malformed file
starts a fresh one), stamps the ``meta`` block with the interpreter,
platform and git build, sets the harness's section and writes the file
atomically.  :func:`finish` prints a section's status and ``wrote``
lines and turns a missed target into the ``--strict`` exit status.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.perf.buildinfo import git_build_stamp
from repro.persistence.format import atomic_write_json

__all__ = ["finish", "harness_parser", "merge_report_section"]

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def harness_parser(doc: str) -> argparse.ArgumentParser:
    """An argument parser with the ``--output`` and ``--strict`` flags.

    ``doc`` is the harness's module docstring; its first line becomes the
    parser description.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON report to write (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when a speedup target is missed",
    )
    return parser


def finish(
    args: argparse.Namespace, section: Mapping[str, Any], line: str, target: str
) -> int:
    """Print ``line`` with the section's target status, then the ``wrote`` line.

    Returns the harness's exit status: 1 under ``--strict`` when the
    section's ``speedup`` misses its ``target_speedup`` (``target`` names
    the missed target in the error), else 0.
    """
    met = section["speedup"] >= section["target_speedup"]
    status = "[ok]" if met else f"[BELOW {section['target_speedup']}x TARGET]"
    print(f"{line}  {status}")
    print(f"wrote {args.output}")
    if args.strict and not met:
        print(f"FATAL: {target} target missed", file=sys.stderr)
        return 1
    return 0


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
