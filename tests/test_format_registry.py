"""docs/observability.md §8 names every ``*_FORMAT`` constant, current."""

import ast
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "observability.md"
SRC = ROOT / "src"

#: a backticked constant followed by its version, in a table row
#: (`| `NAME` | 3 |`) or in the adjacent prose (`` `NAME` 1 ``)
ROW = re.compile(r"^\|\s*`([A-Z_]+_FORMAT)`\s*\|\s*(\d+)\s*\|", re.M)
PROSE = re.compile(r"`([A-Z_]+_FORMAT)`\s+(\d+)\b")


def _registry_section() -> str:
    text = DOC.read_text()
    start = text.index("## 8. Artefact format-version registry")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _documented() -> Counter:
    section = _registry_section()
    table, _, prose = section.partition("(Adjacent but not observability:")
    rows = ROW.findall(table)
    assert rows, "the registry table lost its rows"
    return Counter((name, int(value)) for name, value in rows + PROSE.findall(prose))


def _defined() -> Counter:
    """Every module-level ``NAME_FORMAT = <int>`` under src/, imported."""
    found: Counter = Counter()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Name) and target.id.endswith("_FORMAT")
            ):
                continue
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            value = getattr(importlib.import_module(module), target.id)
            assert isinstance(value, int), (module, target.id)
            found[(target.id, value)] += 1
    return found


def test_registry_matches_the_constants():
    documented, defined = _documented(), _defined()
    assert documented == defined, (
        f"in the docs only: {sorted((documented - defined).elements())}; "
        f"in src only: {sorted((defined - documented).elements())}"
    )


def test_adjacent_formats_are_covered():
    """The prose after the table is parsed too: the result cache and
    both stores (mmap population store, service helper store)."""
    names = Counter(name for name, _ in _documented().elements())
    assert names["CACHE_FORMAT"] == 1
    assert names["STORE_FORMAT"] == 2
