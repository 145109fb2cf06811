#!/usr/bin/env python
"""CI docs check: validate the links in the markdown documentation.

For every markdown file given on the command line, every inline link and
image (``[text](target)`` / ``![alt](target)``) is checked:

* **relative targets** must resolve to an existing file or directory
  (relative to the markdown file's own location; a ``#fragment`` suffix is
  stripped first);
* **same-file anchors** (``#section-title``) must match a heading in the
  file, using GitHub's slug rules (lowercase, punctuation dropped, spaces
  to dashes);
* **external targets** (``http(s)://``, ``mailto:``) are only checked for
  basic well-formedness — CI runs offline, so they are never fetched.

Every backticked dotted name under the package (`` `repro.core.columnar` ``,
`` `repro.perf.collector_paused()` ``) must also resolve: the longest
importable prefix is imported and the rest read as attributes, so a doc
that names a deleted module, class or function fails.

Exits non-zero with one readable line per problem.  Usage::

    python scripts/check_docs.py README.md docs/*.md
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Inline links/images.  Deliberately simple: the docs use plain
#: one-line ``[text](target)`` links, not reference-style definitions.
_LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: A code span holding one dotted name under the package, maybe called.
_NAME_PATTERN = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return re.sub(r"\s+", "-", text)


def _heading_slugs(markdown: str) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for match in _HEADING_PATTERN.finditer(markdown):
        slug = _slugify(match.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def _resolves(dotted: str) -> bool:
    """True when ``dotted`` is a module, or attributes under the longest one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_file(path: Path) -> list[str]:
    """Return one problem string per broken link in ``path``."""
    problems: list[str] = []
    try:
        markdown = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{path}: cannot read: {exc}"]
    slugs = _heading_slugs(markdown)

    for match in _LINK_PATTERN.finditer(markdown):
        target = match.group(1)
        line = markdown.count("\n", 0, match.start()) + 1
        if target.startswith(_EXTERNAL_PREFIXES):
            if not re.match(r"^(https?://|mailto:)[^\s]+\.[^\s]+", target):
                problems.append(f"{path}:{line}: malformed external link {target!r}")
            continue
        if target.startswith("#"):
            if target[1:] not in slugs:
                problems.append(f"{path}:{line}: broken anchor {target!r}")
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            problems.append(
                f"{path}:{line}: broken link {target!r} ({resolved} does not exist)"
            )
    for match in _NAME_PATTERN.finditer(markdown):
        if not _resolves(match.group(1)):
            line = markdown.count("\n", 0, match.start()) + 1
            problems.append(f"{path}:{line}: {match.group(1)!r} does not resolve")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(f"usage: {argv[0]} FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    problems: list[str] = []
    checked = 0
    for name in argv[1:]:
        path = Path(name)
        if not path.exists():
            problems.append(f"{path}: file does not exist")
            continue
        checked += 1
        problems.extend(check_file(path))
    if problems:
        for problem in problems:
            print(f"FATAL: {problem}", file=sys.stderr)
        return 1
    print(f"{checked} markdown file(s): all links and package names resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
