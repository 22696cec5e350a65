"""The package needs numpy and scipy at run time and nothing else.

Every absolute import in src/langrec must name a standard-library module,
numpy, scipy or langrec itself, and pyproject.toml must declare exactly
numpy and scipy as its runtime dependencies. pyproject.toml is read as text,
so the check runs on Python 3.10, which has no tomllib.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = {"numpy", "scipy"}


def imported_roots(path: Path) -> set[str]:
    """Top-level module names of the absolute imports in one source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_import_only_stdlib_numpy_and_scipy():
    allowed = set(sys.stdlib_module_names) | RUNTIME | {"langrec"}
    sources = sorted((ROOT / "src" / "langrec").glob("*.py"))
    assert sources
    foreign = {path.name: sorted(imported_roots(path) - allowed) for path in sources}
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_pyproject_declares_exactly_numpy_and_scipy():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no dependencies list"
    names = {
        re.match(r"[A-Za-z0-9_.-]+", spec.strip()).group(0).lower()
        for spec in re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    }
    assert names == RUNTIME
