"""Docs hygiene: no dead relative links in README or docs/*.md, and
the environment-variable table lists exactly the knobs the code reads.

Every ``[text](target)`` whose target is not an absolute URL must
resolve to a file that exists, relative to the file containing the
link. This is the test the CI docs-link step runs; it keeps README's
subsystem section honest as docs pages come and go.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

# [text](target) -- excluding images is unnecessary; they must exist too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(path: Path) -> list[str]:
    links = []
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])  # drop section anchors
    return links


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_no_dead_relative_links(doc):
    missing = [t for t in _relative_links(doc)
               if not (doc.parent / t).exists()]
    assert not missing, f"{doc.relative_to(REPO)} has dead links: {missing}"


def test_readme_links_every_docs_page():
    """README's subsystem section must point at every docs page."""
    readme = (REPO / "README.md").read_text()
    pages = sorted(p.name for p in (REPO / "docs").glob("*.md"))
    assert pages, "docs/ is empty?"
    not_linked = [p for p in pages if f"docs/{p}" not in readme]
    assert not not_linked, f"README does not link: {not_linked}"


# A row of the docs/API.md environment table: | `REPRO_NAME` | ...
_KNOB_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)
_KNOB_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _knob_literals(path: Path) -> set[str]:
    """``REPRO_*`` names appearing as whole string literals in ``path``."""
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _KNOB_NAME.fullmatch(node.value)}


def test_env_table_matches_knobs_read():
    """The docs/API.md environment table names exactly the ``REPRO_*``
    variables the code reads: those under src/ plus the benchmark
    harness's ``REPRO_BENCH_FULL``. (The ``REPRO_SERVE_*`` row is a
    pointer to CLI flags, not a variable, so the pattern skips it.)"""
    documented = set(_KNOB_ROW.findall((REPO / "docs" / "API.md").read_text()))
    read = set().union(*(_knob_literals(p) for p in (REPO / "src").rglob("*.py")))
    bench = _knob_literals(REPO / "benchmarks" / "conftest.py")
    assert "REPRO_BENCH_FULL" in bench
    assert documented == read | {"REPRO_BENCH_FULL"}
