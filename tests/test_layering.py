"""The package graph of ``src/repro`` points one way: down.

Every ``repro`` subpackage sits on a layer, and a module may import
only from its own layer or the ones below it.  The check parses each
source file with :mod:`ast`, so it sees imports at module level and
inside functions alike; only imports under ``if TYPE_CHECKING:`` are
exempt, because they never run.

The same walk checks reachability: every ``src/repro`` module is
imported, and every public function, class and method is named, by
code that a command, a protocol, the serve client, the benchmark, the
tools or the quickstart example runs.  Code that only tests reach is
code nobody uses.

The entry points' import closures are pinned too: a fresh interpreter
loads only what the chosen command needs (module sets, never timings).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

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


def _source_module(node: ast.ImportFrom, package: str) -> str:
    """The dotted module a ``from ... import`` statement in ``package``
    imports from."""
    base = node.module or ""
    if node.level:  # relative: resolve against the importing package
        anchor = package.rsplit(".", node.level - 1)[0]
        base = f"{anchor}.{base}" if base else anchor
    return base


def _targets(node: ast.Import | ast.ImportFrom, package: str) -> list[str]:
    """The dotted modules one import statement in ``package`` loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = _source_module(node, package)
    if base == "repro":  # ``from repro import storage`` names a subpackage
        return [f"repro.{alias.name}" for alias in node.names]
    return [base]


def _package_name(path: Path, src: Path = SRC) -> str:
    """The dotted package a source file's relative imports resolve in."""
    return ".".join(path.relative_to(src).parent.parts)


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


# -- Reachability ---------------------------------------------------------

REACHABILITY_EXEMPT = {
    "repro.corpus.trec.load_trec_corpus": (
        "the path the paper's own TREC 2005 data (Table 1) would take; the "
        "corpus is not redistributable, so no scenario can run it"
    ),
}
"""Unreached names kept on purpose, each with its reason."""

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def reachability_roots() -> tuple[list[str], list[Path]]:
    """The modules and the files outside ``src/`` the check starts from:
    every command's module, every protocol's module, the builtin
    catalogue ``repro.scenarios`` registers on import, the serve client
    (the documented scripting interface), the benchmark (every name
    ``launch.py`` patches), the tools and the quickstart example."""
    from repro.commands import COMMANDS
    from repro.scenarios.registry import PROTOCOLS

    modules = {"repro.__main__", "repro.scenarios.builtin", "repro.serve.client"}
    modules |= {command.module for command in COMMANDS.values()}
    modules |= {
        function.__module__
        for protocol in PROTOCOLS.values()
        for function in protocol
        if function is not None
    }
    files = [
        *sorted((REPO / "e2ebench").glob("*.py")),
        *sorted((REPO / "tools").glob("*.py")),
        REPO / "examples" / "quickstart.py",
    ]
    return sorted(modules), files


def _is_lazy_table(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "lazy_exports"
    )


def _annotation(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return None


def _names_used(tree: ast.Module, is_package: bool) -> set[str]:
    """Every identifier a file names: names, attributes, imported names,
    quoted annotations and dotted-identifier strings (``launch.py``
    patches by string).
    Docstrings and ``__all__`` lists name nothing; nor, in a package
    ``__init__``, do its re-export imports and ``lazy_exports`` tables,
    so a re-export that nothing reads keeps nothing alive."""
    names: set[str] = set()
    stack: list[ast.AST] = []
    for statement in tree.body:
        if any(isinstance(sub, ast.Name) and sub.id == "__all__" for sub in ast.walk(statement)):
            names.update("lazy_exports" for sub in ast.walk(statement) if _is_lazy_table(sub))
        else:
            stack.append(statement)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        annotation = _annotation(node)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            stack.append(ast.parse(annotation.value, mode="eval"))
        if _is_lazy_table(node):
            names.add("lazy_exports")
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not is_package:
                names.update(
                    part for alias in node.names for part in alias.name.split(".")
                )
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.fullmatch(node.value)
        ):
            names.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return names


class _Tree:
    """One source tree, parsed: where each module lives, what each file
    imports and names, and what each package ``__init__`` re-exports."""

    def __init__(self, src: Path, extra_files: list[Path]):
        self.src = src
        self.paths: dict[str, Path] = {}
        for path in sorted((src / "repro").rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            self.paths[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
        self.trees = {
            path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in [*self.paths.values(), *extra_files]
        }
        self.exports: dict[str, dict[str, tuple[str, str]]] = {
            module: dict(self._bindings(path))
            for module, path in self.paths.items()
            if path.name == "__init__.py"
        }

    def _bindings(self, path: Path):
        """``(name, (module, its name there))`` for each name a package
        ``__init__`` binds by import or declares in a ``lazy_exports``
        table."""
        package = _package_name(path, self.src)
        for node in ast.walk(self.trees[path]):
            if isinstance(node, ast.ImportFrom):
                base = _source_module(node, package)
                for alias in node.names:
                    yield alias.asname or alias.name, (base, alias.name)
            elif _is_lazy_table(node):
                table = node.args[1]
                for key, value in zip(table.keys, table.values):
                    for name in value.elts:
                        yield name.value, (key.value, name.value)

    def resolve(self, module: str, name: str) -> str:
        """The module that defines what ``from module import name`` binds."""
        while f"{module}.{name}" not in self.paths:
            if name not in self.exports.get(module, {}):
                return module
            module, name = self.exports[module][name]
        return f"{module}.{name}"

    def _imported(self, path: Path, names: set[str]):
        """Every module a file's runtime imports reach, each package
        import followed through the attributes the file reads on it."""
        package = _package_name(path, self.src) if self.src in path.parents else ""
        for node in _runtime_imports(self.trees[path]):
            if isinstance(node, ast.Import):
                bound = [alias.name for alias in node.names]
            else:
                base = _source_module(node, package)
                bound = [self.resolve(base, alias.name) for alias in node.names]
            for module in bound:
                yield module
                for name in names & self.exports.get(module, {}).keys():
                    yield self.resolve(module, name)

    def reach(self, modules: list[str], files: list[Path]) -> tuple[set[str], set[str]]:
        """The modules reached from the roots, and every name the
        reached files use."""
        reached: set[str] = set()
        used: set[str] = set()
        pending = [*files, *modules]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                if item not in self.paths or item in reached:
                    continue
                reached.add(item)
                parent = item.rpartition(".")[0]
                pending.append(parent)
                path = self.paths[item]
                if path.name == "__init__.py":
                    # A package's own code reaches only the names it runs.
                    names = _names_used(self.trees[path], is_package=True)
                    used |= names
                    pending.extend(
                        self.resolve(item, name)
                        for name in names & self.exports[item].keys()
                    )
                    continue
            else:
                path = item
            names = _names_used(self.trees[path], is_package=False)
            used |= names
            pending.extend(self._imported(path, names))
        return reached, used


def _public_definitions(tree: ast.Module):
    """``(qualified name, name)`` for each public top-level function and
    class and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def unreached_code(
    src: Path = SRC,
    roots: tuple[list[str], list[Path]] | None = None,
    exempt: dict[str, str] = REACHABILITY_EXEMPT,
) -> list[str]:
    """Every module no root reaches, and every public name in a reached
    module that no reached file names, minus ``exempt``."""
    modules, files = reachability_roots() if roots is None else roots
    tree = _Tree(src, files)
    reached, used = tree.reach(modules, files)
    found = []
    for module, path in sorted(tree.paths.items()):
        if module not in reached:
            found.append(f"{module}: never imported")
            continue
        for qualified, name in _public_definitions(tree.trees[path]):
            if name not in used and f"{module}.{qualified}" not in exempt:
                found.append(f"{module}.{qualified}: never named")
    return found


def test_every_module_and_public_name_is_reached():
    assert unreached_code() == []


def test_the_exemptions_are_still_needed():
    """An exempt name that something now reaches, or that is gone,
    should leave the table."""
    assert unreached_code(exempt={}) == [
        f"{name}: never named" for name in sorted(REACHABILITY_EXEMPT)
    ]


def test_the_reachability_check_flags_dead_modules_and_methods(tmp_path):
    sources = {
        "repro/__init__.py": (
            "from repro.lazy import lazy_exports\n"
            "__getattr__, __dir__, __all__ = lazy_exports(__name__, "
            "{'repro.dead': ('Ghost',)})\n"
        ),
        "repro/lazy.py": "def lazy_exports(package, table):\n    return None, None, []\n",
        "repro/pkg/__init__.py": (
            '"""Re-exports; ``Thing.spare`` in a docstring names nothing."""\n'
            "from repro.pkg.live import Thing, helper\n"
            "from repro.pkg.unread import Unread\n"
            "__all__ = ['Thing', 'helper', 'Unread', 'spare']\n"
        ),
        "repro/pkg/live.py": (
            "class Thing:\n"
            "    def used(self):\n        return helper()\n"
            "    def patched(self):\n        pass\n"
            "    def spare(self):\n        pass\n"
            "class Typed:\n    pass\n"
            "def helper(source: 'Typed | None' = None):\n    return 1\n"
        ),
        "repro/pkg/unread.py": "class Unread:\n    pass\n",
        "repro/dead.py": "class Ghost:\n    pass\n",
    }
    found = _unreached_in(
        tmp_path,
        sources,
        "import repro\nfrom repro.pkg import Thing\n"
        "Thing().used()\nPATCHED = ('patched',)\n",
    )
    assert found == [
        "repro.dead: never imported",
        "repro.pkg.live.Thing.spare: never named",
        "repro.pkg.unread: never imported",
    ]


def _unreached_in(
    tmp_path: Path,
    sources: dict[str, str],
    root_text: str,
    modules: list[str] = [],
    exempt: dict[str, str] = {},
) -> list[str]:
    """:func:`unreached_code` on a synthetic ``src/`` tree whose one
    root file holds ``root_text``; ``repro/__init__.py`` is empty unless
    ``sources`` says otherwise."""
    for name, text in {"repro/__init__.py": "", **sources}.items():
        (tmp_path / "src" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "src" / name).write_text(text)
    root = tmp_path / "root.py"
    root.write_text(root_text)
    return unreached_code(tmp_path / "src", (modules, [root]), exempt=exempt)


def test_a_module_only_dead_code_imports_is_dead(tmp_path):
    found = _unreached_in(
        tmp_path,
        {
            "repro/live.py": "def run():\n    return 1\n",
            "repro/dead.py": "from repro.deeper import helper\ndef ghost():\n    return helper()\n",
            "repro/deeper.py": "def helper():\n    return 2\n",
        },
        "from repro.live import run\nrun()\n",
    )
    assert found == ["repro.dead: never imported", "repro.deeper: never imported"]


def test_type_checking_imports_reach_nothing(tmp_path):
    found = _unreached_in(
        tmp_path,
        {"repro/typed.py": "class Spec:\n    pass\n"},
        "import repro\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from repro.typed import Spec\n"
        "def f(spec: 'Spec') -> None:\n    pass\n",
    )
    assert found == ["repro.typed: never imported"]


def test_function_level_and_relative_imports_reach(tmp_path):
    found = _unreached_in(
        tmp_path,
        {
            "repro/pkg/__init__.py": "",
            "repro/pkg/front.py": "def go():\n    from .back import work\n    return work()\n",
            "repro/pkg/back.py": "def work():\n    return 3\n",
        },
        "def main():\n    from repro.pkg.front import go\n    return go()\n",
    )
    assert found == []


def test_a_module_root_reaches_its_parent_packages(tmp_path):
    found = _unreached_in(
        tmp_path,
        {
            "repro/pkg/__init__.py": "from repro.pkg.setup import configure\nconfigure()\n",
            "repro/pkg/setup.py": "def configure():\n    pass\n",
            "repro/pkg/leaf.py": "def leaf():\n    pass\n",
        },
        "",
        modules=["repro.pkg.leaf"],
    )
    assert found == ["repro.pkg.leaf.leaf: never named"]


def test_names_in_docstrings_and_all_keep_nothing_alive(tmp_path):
    found = _unreached_in(
        tmp_path,
        {
            "repro/mod.py": (
                '"""Call :func:`described` to ..."""\n'
                "__all__ = ['listed', 'described', 'called']\n"
                "def listed():\n    pass\n"
                "def described():\n    pass\n"
                "def called():\n    pass\n"
            ),
        },
        "from repro.mod import called\ncalled()\n",
    )
    assert found == [
        "repro.mod.listed: never named",
        "repro.mod.described: never named",
    ]


def test_a_dotted_string_keeps_a_patched_name_alive(tmp_path):
    """``launch.py`` patches by dotted string; that is a use."""
    found = _unreached_in(
        tmp_path,
        {"repro/mod.py": "def patched():\n    pass\ndef run():\n    pass\n"},
        "import repro.mod\nTARGET = 'repro.mod.patched'\nrepro.mod.run()\n",
    )
    assert found == []


def test_a_lazy_export_read_on_the_package_reaches_its_module(tmp_path):
    sources = {
        "repro/__init__.py": (
            "from repro.lazy import lazy_exports\n"
            "__getattr__, __dir__, __all__ = lazy_exports(__name__, "
            "{'repro.owner': ('Owned',), 'repro.other': ('Spare',)})\n"
        ),
        "repro/lazy.py": "def lazy_exports(package, table):\n    return None, None, []\n",
        "repro/owner.py": "class Owned:\n    pass\n",
        "repro/other.py": "class Spare:\n    pass\n",
    }
    found = _unreached_in(tmp_path, sources, "import repro\nrepro.Owned()\n")
    assert found == ["repro.other: never imported"]


def test_private_names_and_nested_definitions_are_not_listed(tmp_path):
    found = _unreached_in(
        tmp_path,
        {
            "repro/mod.py": (
                "def _private():\n    pass\n"
                "class Public:\n"
                "    def _hidden(self):\n        pass\n"
                "    def __len__(self):\n        return 0\n"
                "    class Inner:\n        def deep(self):\n            pass\n"
                "def run():\n    def local():\n        pass\n    return Public()\n"
            ),
        },
        "from repro.mod import run\nrun()\n",
    )
    assert found == []


def test_an_exempt_name_is_not_listed(tmp_path):
    sources = {"repro/mod.py": "def kept():\n    pass\ndef run():\n    pass\n"}
    root = "from repro.mod import run\nrun()\n"
    assert _unreached_in(tmp_path, sources, root) == ["repro.mod.kept: never named"]
    assert _unreached_in(
        tmp_path, sources, root, exempt={"repro.mod.kept": "a reason"}
    ) == []


def test_the_roots_hold_every_command_and_protocol_module():
    from repro.commands import COMMANDS
    from repro.scenarios.registry import PROTOCOLS

    modules, files = reachability_roots()
    assert {command.module for command in COMMANDS.values()} <= set(modules)
    assert {
        function.__module__
        for protocol in PROTOCOLS.values()
        for function in protocol
        if function is not None
    } <= set(modules)
    assert {"repro.scenarios.builtin", "repro.serve.client"} <= set(modules)
    assert REPO / "examples" / "quickstart.py" in files
    assert REPO / "e2ebench" / "launch.py" in files


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
