"""The prose docs point only at files, tests and helpers that exist.

Every backticked repository path in the top-level docs and ``docs/``
must exist (globs must match something), and every
``tests/<file>::<Name>`` reference must name a ``def`` or ``class``
present in that file.
"""

import glob
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCS = sorted(
    [ROOT / name for name in
     ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")]
    + list((ROOT / "docs").glob("*.md"))
)

_PREFIXES = ("tests/", "benchmarks/", "examples/", "src/", "docs/", "bench/")
_SPAN = re.compile(r"`([^`\n]+)`")


def _references(doc: Path):
    for span in _SPAN.findall(doc.read_text(encoding="utf-8")):
        token = span.split()[0] if span.strip() else ""
        if token.startswith(_PREFIXES):
            yield token


def _defines(source: str, name: str) -> bool:
    return re.search(
        rf"^\s*(?:async\s+)?(?:def|class)\s+{re.escape(name)}\b",
        source, re.MULTILINE,
    ) is not None


def test_docs_are_present():
    assert all(doc.is_file() for doc in DOCS)
    assert any(doc.parent.name == "docs" for doc in DOCS)


@pytest.mark.parametrize(
    "doc", DOCS, ids=[str(doc.relative_to(ROOT)) for doc in DOCS]
)
def test_backticked_paths_exist(doc):
    missing = []
    for reference in _references(doc):
        path, *names = reference.split("::")
        matches = glob.glob(str(ROOT / path))
        if not matches:
            missing.append(reference)
            continue
        if names:
            source = Path(matches[0]).read_text(encoding="utf-8")
            missing += [
                f"{reference} ({name} not defined)"
                for name in names if not _defines(source, name)
            ]
    assert missing == []
