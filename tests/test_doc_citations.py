"""Every document the code cites exists, and every cited design section too.

A citation is a ``*.md`` path with a directory (``docs/ARCHITECTURE.md``)
or an upper-case name at the repository root (``ROADMAP.md``); both
resolve against the root.  Lower-case bare names are report outputs the
code writes (``verify.md``), not citations.  ``docs/DESIGN.md §N``
must name a ``## §N`` heading of that file.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DESIGN = ROOT / "docs/DESIGN.md"

_CITED_DOC = re.compile(r"(?<![\w./-])((?:[\w-]+/)+[\w.-]+\.md|[A-Z][A-Z_]*\.md)\b")
_CITED_SECTION = re.compile(r"DESIGN\.md §(\d+)")
_SECTION_HEADING = re.compile(r"^#+ §(\d+) ", re.MULTILINE)


def _sources():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    return [(f, f.read_text()) for f in files]


def _citations(pattern, texts):
    return sorted({(m.group(1), path.relative_to(ROOT).as_posix())
                   for path, text in texts for m in pattern.finditer(text)})


def test_the_scan_finds_citations():
    """The patterns below still match the citations the tree makes."""
    docs = {doc for doc, _ in _citations(_CITED_DOC, _sources())}
    assert {"docs/DESIGN.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md"} <= docs
    assert "verify.md" not in docs


@pytest.mark.parametrize("doc, cited_in", _citations(_CITED_DOC, _sources()))
def test_every_cited_document_exists(doc, cited_in):
    assert (ROOT / doc).is_file(), f"{cited_in} cites {doc}, which does not exist"


def test_every_cited_design_section_exists():
    sections = set(_SECTION_HEADING.findall(DESIGN.read_text()))
    texts = [*_sources(), (ROOT / "EXPERIMENTS.md",
                           (ROOT / "EXPERIMENTS.md").read_text())]
    cited = _citations(_CITED_SECTION, texts)
    assert cited, "no docs/DESIGN.md section citation found"
    missing = [(f"§{n}", where) for n, where in cited if n not in sections]
    assert not missing, f"sections absent from docs/DESIGN.md: {missing}"


def test_design_sections_are_numbered_in_order():
    numbers = [int(n) for n in _SECTION_HEADING.findall(DESIGN.read_text())]
    assert numbers == list(range(1, len(numbers) + 1))
