"""pyproject.toml declares requires-python >= 3.10, so every Python file of the
project must parse with the Python 3.10 grammar, and the program in src/ must
use no standard-library name that 3.10 lacks. ast's feature_version is a
best-effort grammar check: it does not see such a name (tomllib, say), so a
table of the names added in later versions checks the imports and the
attributes of imported modules."""
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


#: Standard-library modules, and names of modules, that Python 3.10 lacks.
NEWER_MODULES = {"tomllib", "wsgiref.types"}
NEWER_NAMES = {
    "asyncio": {"Barrier", "Runner", "TaskGroup", "Timeout", "timeout", "timeout_at"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum", "member",
             "nonmember", "verify"},
    "hashlib": {"file_digest"},
    "inspect": {"getmembers_static", "markcoroutinefunction"},
    "itertools": {"batched"},
    "logging": {"getHandlerByName", "getHandlerNames", "getLevelNamesMapping"},
    "math": {"cbrt", "exp2", "sumprod"},
    "operator": {"call"},
    "os": {"process_cpu_count"},
    "random": {"binomialvariate"},
    "re": {"NOFLAG"},
    "sys": {"exception", "monitoring"},
    "typing": {"LiteralString", "Never", "NotRequired", "Required", "Self", "TypeAliasType",
               "TypeVarTuple", "Unpack", "assert_never", "assert_type", "clear_overloads",
               "dataclass_transform", "get_overloads", "override", "reveal_type"},
}


def newer_names(source: str) -> list[str]:
    """The standard-library names Python 3.10 lacks that the source imports or
    reads as an attribute of a module it imports, as 'module.name', in order."""
    tree, found, modules = ast.parse(source), [], {}  # modules: local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found += [alias.name] if alias.name in NEWER_MODULES else []
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [node.module] if node.module in NEWER_MODULES else []
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name in NEWER_NAMES.get(node.module, ())]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in NEWER_NAMES.get(module, ()):
                found.append(f"{module}.{node.attr}")
    return found


def test_src_uses_no_library_name_newer_than_the_floor():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert len(paths) > 5
    for path in paths:
        assert newer_names(path.read_text(encoding="utf-8")) == [], path


@pytest.mark.parametrize("source,name", [
    ("from itertools import batched", "itertools.batched"),
    ("import itertools\nitertools.batched([], 2)", "itertools.batched"),
    ("import tomllib", "tomllib"),
    ("from tomllib import loads", "tomllib"),
    ("from typing import Self", "typing.Self"),
    ("import typing as t\nx: t.Self", "typing.Self"),
    ("from enum import StrEnum", "enum.StrEnum"),
    ("import hashlib\nhashlib.file_digest(f, 'sha256')", "hashlib.file_digest"),
    ("from contextlib import chdir", "contextlib.chdir"),
    ("import datetime\ndatetime.datetime.now(datetime.UTC)", "datetime.UTC"),
    ("from datetime import UTC, datetime", "datetime.UTC"),
])
def test_a_newer_library_name_is_rejected(source, name):
    assert newer_names(source) == [name]


def test_names_3_10_has_pass():
    source = ("from itertools import pairwise\nimport datetime\n"
              "datetime.timezone.utc\nfrom typing import TypeAlias")
    assert newer_names(source) == []
