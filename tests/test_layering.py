"""The package graph of ``src/repro`` points one way: down.

Every ``repro`` subpackage sits on a layer, and a module may import
only from its own layer or the ones below it.  The check parses each
source file with :mod:`ast`, so it sees imports at module level and
inside functions alike; only imports under ``if TYPE_CHECKING:`` are
exempt, because they never run.

The entry points' import closures are pinned too: a fresh interpreter
loads only what the chosen command needs (module sets, never timings).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors", "rng", "lazy"),
    # storage and spambayes import each other, so they share a layer.
    ("storage", "spambayes"),
    ("corpus",),
    ("attacks", "defenses", "analysis"),
    ("experiments",),
    ("engine",),
    ("stream",),
    ("scenarios",),
    ("cli", "commands", "serve", "__main__", "repro"),
)
"""Bottom to top; ``repro`` is the root package's ``__init__``."""

RANK = {package: rank for rank, group in enumerate(LAYERS) for package in group}


def _package_of(dotted: str) -> str:
    """The layer key of a ``repro``-rooted dotted module name."""
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in RANK else "repro"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST):
    """Every import statement that runs, skipping TYPE_CHECKING blocks."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _targets(node: ast.Import | ast.ImportFrom, package: str) -> list[str]:
    """The dotted modules one import statement in ``package`` loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:  # relative: resolve against the importing package
        anchor = package.rsplit(".", node.level - 1)[0]
        base = f"{anchor}.{base}" if base else anchor
    if base == "repro":  # ``from repro import storage`` names a subpackage
        return [f"repro.{alias.name}" for alias in node.names]
    return [base]


def _package_name(path: Path) -> str:
    """The dotted package a source file's relative imports resolve in."""
    return ".".join(path.relative_to(SRC).parent.parts)


def layering_violations() -> list[str]:
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        package = _package_name(path)
        source = _package_of(".".join(path.relative_to(SRC).with_suffix("").parts))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _runtime_imports(tree):
            for target in _targets(node, package):
                if target != "repro" and not target.startswith("repro."):
                    continue
                imported = _package_of(target)
                if RANK[imported] > RANK[source]:
                    found.append(
                        f"{path.relative_to(SRC)}:{node.lineno}: {source} imports "
                        f"{target} ({imported} is a higher layer)"
                    )
    return found


def test_every_package_has_a_layer():
    packages = {
        path.stem if path.is_file() else path.name
        for path in (SRC / "repro").iterdir()
        if path.suffix == ".py" or (path / "__init__.py").exists()
    }
    packages.discard("__init__")
    assert packages <= set(RANK), sorted(packages - set(RANK))


def test_no_runtime_import_reaches_up_a_layer():
    assert layering_violations() == []


def test_the_check_sees_function_level_imports_and_skips_type_checking():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.scenarios.spec import ScenarioSpec\n"
        "def late():\n"
        "    from repro.scenarios import run_scenario\n"
    )
    targets = [
        target
        for node in _runtime_imports(tree)
        for target in _targets(node, "repro.engine")
    ]
    assert sorted(targets) == ["repro.scenarios", "typing"]


EXPERIMENT_STACK = (
    "repro.scenarios",
    "repro.experiments",
    "repro.corpus",
    "repro.attacks",
    "repro.defenses",
    "repro.stream",
    "repro.analysis",
)
"""Packages only the scenario commands need."""


def loaded_after(statement: str, env: dict | None = None) -> set[str]:
    """Every module a fresh interpreter has loaded after ``statement``."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=SRC,
        env=None if env is None else {**os.environ, **env},
    )
    return set(json.loads(completed.stdout.splitlines()[-1]))


def _inside(modules: set[str], packages: tuple[str, ...]) -> list[str]:
    return sorted(
        module
        for module in modules
        if any(module == pkg or module.startswith(pkg + ".") for pkg in packages)
    )


def test_bare_import_loads_no_numpy():
    loaded = loaded_after("import repro")
    assert _inside(loaded, ("numpy", "repro.corpus", "repro.spambayes")) == []


def test_the_entry_point_and_serve_load_no_experiment_stack():
    """``python -m repro serve`` loads ``__main__``, the dispatcher and
    the serve command's module, and nothing of the scenario stack."""
    loaded = loaded_after("import repro.__main__, repro.serve.command")
    assert "repro.serve.service" in loaded  # the probe reached the daemon
    assert _inside(loaded, EXPERIMENT_STACK) == []
    assert "repro.cli" not in loaded
    assert "repro.engine.runner" not in loaded  # only --workers >= 2 pools


def test_gc_loads_no_numpy(tmp_path):
    loaded = loaded_after(
        "from repro.__main__ import main\nassert main(['gc']) == 0",
        env={"REPRO_STORE_DIR": str(tmp_path)},
    )
    assert "repro.storage.disk" in loaded  # the probe ran the janitor
    assert _inside(loaded, ("numpy", *EXPERIMENT_STACK)) == []


@pytest.mark.parametrize(
    "statement",
    ["import repro.serve.client", "from repro.serve import ServeClient, connect"],
)
def test_serve_clients_load_no_numpy(statement):
    loaded = loaded_after(statement)
    assert _inside(loaded, ("numpy", "repro.serve.service", *EXPERIMENT_STACK)) == []
