"""Every third-party module the package imports is a declared dependency.

Walks the syntax tree of every module under ``src/repro`` (lazy imports
inside functions included) and compares the top-level names of absolute
imports outside the standard library with ``pyproject.toml``'s
``[project] dependencies``.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Import name -> distribution name, where the two differ.
DISTRIBUTIONS: dict[str, str] = {}


def imported_top_level_modules(package: Path) -> dict[str, set[str]]:
    """Top-level module name -> the files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def declared_distributions() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        for requirement in project["dependencies"]
    }


def test_third_party_imports_are_declared():
    declared = declared_distributions()
    missing = {
        module: sorted(files)
        for module, files in imported_top_level_modules(ROOT / "src" / "repro").items()
        if module != "repro"
        and module not in sys.stdlib_module_names
        and DISTRIBUTIONS.get(module, module).lower() not in declared
    }
    assert not missing, f"imported but not in pyproject.toml dependencies: {missing}"


def test_the_walk_sees_lazy_imports():
    """The walk finds ``networkx``, which ``repro.data.roadnet`` imports lazily."""
    modules = imported_top_level_modules(ROOT / "src" / "repro")
    assert "numpy" in modules and "networkx" in modules
