"""pyproject.toml declares requires-python >= 3.10, so every Python file of the
project must parse with the Python 3.10 grammar. ast's feature_version is a
best-effort grammar check: it does not see a standard-library name (tomllib,
say) that 3.10 lacks."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_every_file_parses_with_the_floor_grammar():
    paths = sorted(path for folder in ("src", "tests", "perfbench", "scripts")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


def test_a_newer_construct_is_rejected():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
