"""The package parses under the oldest Python that pyproject.toml admits.

``ast.parse(..., feature_version=...)`` checks the grammar of that version
only: a standard-library name or behaviour added later is not caught.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "respkit").glob("*.py"))


def _floor() -> tuple[int, int]:
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_floor())


def test_newer_grammar_is_refused():
    text = SOURCES[0].read_text(encoding="utf-8")
    text += "\ntry:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(text, feature_version=_floor())
