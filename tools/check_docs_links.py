#!/usr/bin/env python3
"""Docs link checker: fail when README/docs reference things that
don't exist.

Checked, across ``README.md`` and every ``docs/*.md``:

* **markdown links** ``[text](target)`` — non-URL targets must exist
  on disk (anchors are stripped; ``#section`` fragments within a file
  are not resolved);
* **path-looking code spans** — a backtick span that looks like a repo
  path (contains ``/`` and a known extension, or starts with a
  top-level source directory) must exist on disk;
* **CLI invocations** — every ``python -m repro <command> …`` mention
  must name one of :data:`repro.commands.COMMANDS`; anything else
  (a scenario name without ``run-scenario``, or a retired artifact
  word such as ``figure1``) is an unknown command, exactly as the real
  CLI rejects it.  Each command is its own grammar, read from its own
  parser: a command whose parser takes a scenario ``name`` (such as
  ``run-scenario`` and ``replicate``) must be followed by a
  registered scenario name, and every command's flags are checked;
* **make targets** — a code span that starts ``make <target>`` must
  name a target defined in the repo's ``Makefile``, so a doc cannot
  keep pointing at a retired target;
* **dotted references** — a code span that is a dotted ``repro.…``
  path must import, and its trailing attributes must exist.

Across ``src/``, every Sphinx-role reference to a ``repro.…`` path
(``:mod:``, ``:func:``, ``:class:``, ``:meth:``, ``:data:``,
``:attr:``, ``:exc:``) must resolve the same way, so moving a module
or renaming a function cannot orphan a docstring that points at it.
Unqualified ``:func:``, ``:class:`` and ``:meth:`` references
(``:meth:`_score_segments```, ``:class:`TokenTable```) must resolve
against the module they sit in: a name in its namespace, an attribute
of a class it defines, or a path under an importable top-level module
(``:func:`math.log```).

Run directly (``make docs-check``)::

    PYTHONPATH=src python tools/check_docs_links.py

Exit status 0 when clean, 1 with a findings report otherwise.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOC_FILES = ["README.md", *sorted(p.relative_to(REPO_ROOT).as_posix() for p in (REPO_ROOT / "docs").glob("*.md"))]

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
CLI_CALL = re.compile(r"python -m repro\s+((?:[\w.-]+\s*)+)")
MAKE_CALL = re.compile(r"^make\s+([\w.-]+)")
MAKE_TARGET = re.compile(r"^([\w.-]+)\s*:(?!=)", re.MULTILINE)
PATH_EXTENSIONS = (".py", ".md", ".ini", ".txt", ".toml", ".cfg", ".json")
SOURCE_PREFIXES = ("src/", "docs/", "tests/", "examples/", "tools/")
DOTTED_SPAN = re.compile(r"^~?(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?$")
ROLE_REFERENCE = re.compile(
    r":(?:mod|func|class|meth|data|attr|exc):`(?:[^`<]*<)?~?(repro(?:\.\w+)+)(?:\(\))?>?`"
)
LOCAL_REFERENCE = re.compile(
    r":(?:func|class|meth):`(?:[^`<]*<)?~?(?!repro\.)([A-Za-z_]\w*(?:\.\w+)*)(?:\(\))?>?`"
)


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute path under one.

    The longest importable prefix is the module; every part after it
    must be an attribute of the one before.
    """
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _has_path(target, parts[cut:])
    return False


def _has_path(target, parts: list[str]) -> bool:
    """Whether each of ``parts`` is an attribute of the one before."""
    for attr in parts:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def resolves_locally(module, name: str) -> bool:
    """Whether the unqualified ``name`` resolves in ``module``: in its
    namespace, on a class it defines, or under a top-level module."""
    parts = name.split(".")
    owners = [module] + [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    if any(_has_path(owner, parts) for owner in owners):
        return True
    return len(parts) > 1 and resolves(name)


def _module_of(path: Path, root: Path):
    """The imported module a source file under ``root`` defines."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return importlib.import_module(".".join(parts))


def check_source_references(root: Path) -> list[str]:
    """Sphinx-role references under ``root`` that do not resolve:
    ``repro.…`` paths anywhere, unqualified names in their module."""
    problems = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        found = [m for m in ROLE_REFERENCE.finditer(text) if not resolves(m.group(1))]
        local = list(LOCAL_REFERENCE.finditer(text))
        if local:
            module = _module_of(path, root)
            found += [m for m in local if not resolves_locally(module, m.group(1))]
        for match in sorted(found, key=lambda m: m.start()):
            line = text.count("\n", 0, match.start()) + 1
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{line}: "
                f"unresolved reference {match.group(1)!r}"
            )
    return problems


def looks_like_repo_path(span: str) -> bool:
    if any(ch in span for ch in " <>{}$(*"):  # commands, placeholders, globs
        return False
    if "://" in span:
        return False
    if span.startswith(SOURCE_PREFIXES):
        return True
    return "/" in span and span.endswith(PATH_EXTENSIONS)


def check_cli_invocation(doc: Path, words: list[str], cli: dict) -> list[str]:
    """Validate one ``python -m repro …`` word sequence.

    The first word picks the command, mirroring the real CLI's
    dispatch; the rest must fit that command's grammar (its positional
    words and its flags).  Words valid for one command are *not*
    accepted for another.
    """
    command, *words = words
    if command not in cli["commands"]:
        return [f"{doc.name}: unknown CLI command {command!r}"]
    valid_words, valid_flags = cli["commands"][command]
    problems: list[str] = []
    seen_flag = False
    skip_value = False
    for word in words:
        if skip_value:  # the previous word was a value-taking flag
            skip_value = False
            continue
        if word.startswith("--"):
            seen_flag = True
            flag = word.split("=", 1)[0]
            if flag not in valid_flags:
                problems.append(f"{doc.name}: unknown CLI flag {flag!r}")
            skip_value = "=" not in word
            continue
        if seen_flag or word.endswith(("…", "...")):
            continue  # flag values / elided continuations in prose
        if word not in valid_words:
            problems.append(f"{doc.name}: unknown CLI argument {word!r} to {command}")
            break  # everything after an unknown word is its args
    return problems


ENV_VAR = re.compile(r"\bREPRO_[A-Z_]+\b")


def known_env_vars() -> set[str]:
    """Every ``REPRO_*`` knob the code actually reads.

    Sourced from the live constants where they exist so a renamed knob
    fails docs-check instead of silently orphaning its walkthrough.
    """
    from repro.engine.faults import FAULTS_ENV
    from repro.engine.supervise import DEGRADE_ENV, RETRIES_ENV, TIMEOUT_ENV
    from repro.storage import STORE_DIR_ENV, STORE_ENV

    return {
        FAULTS_ENV,
        TIMEOUT_ENV,
        RETRIES_ENV,
        DEGRADE_ENV,
        STORE_ENV,
        STORE_DIR_ENV,
        # Read inline via os.environ rather than a named constant:
        "REPRO_WORKERS",
        "REPRO_EXAMPLE_SCALE",
    }


def check_file(doc: Path, cli: dict) -> list[str]:
    problems: list[str] = []
    text = doc.read_text(encoding="utf-8")

    for match in MARKDOWN_LINK.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or "://" in target or target.startswith("mailto:"):
            continue
        resolved = (doc.parent / target) if not target.startswith("/") else REPO_ROOT / target.lstrip("/")
        if not resolved.exists():
            problems.append(f"{doc.name}: broken link target {target!r}")

    for match in CODE_SPAN.finditer(text):
        span = match.group(1).strip()
        for var in ENV_VAR.findall(span):
            if var not in cli["env_vars"]:
                problems.append(
                    f"{doc.name}: unknown environment variable {var!r}"
                )
        dotted = DOTTED_SPAN.match(span)
        if dotted and not resolves(dotted.group(1)):
            problems.append(f"{doc.name}: unresolved reference {dotted.group(1)!r}")
        make_call = MAKE_CALL.match(span)
        if make_call and make_call.group(1) not in cli["make_targets"]:
            problems.append(
                f"{doc.name}: unknown make target {make_call.group(1)!r}"
            )
        # A pytest node id (``tests/x.py::TestY``) names its file.
        path = span.split("::", 1)[0]
        if not looks_like_repo_path(path):
            continue
        if not (REPO_ROOT / path).exists():
            problems.append(f"{doc.name}: referenced path {span!r} does not exist")

    for match in CLI_CALL.finditer(text):
        problems.extend(check_cli_invocation(doc, match.group(1).split(), cli))
    return problems


def makefile_targets() -> set[str]:
    """Every target the repo's ``Makefile`` defines (``.PHONY`` aside)."""
    text = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    return set(MAKE_TARGET.findall(text)) - {".PHONY"}


def _flags_of(parser) -> set[str]:
    return {
        option for action in parser._actions for option in action.option_strings
    }


def _grammar(parser, scenario_names: set[str]) -> tuple[set[str], set[str]]:
    """One command's (positional words, flags), read from its parser:
    a positional ``name`` is a registered scenario name."""
    takes_name = any(
        action.dest == "name" and not action.option_strings
        for action in parser._actions
    )
    return (scenario_names if takes_name else set()), _flags_of(parser)


def cli_tables() -> dict:
    """The live CLI grammar :func:`check_file` validates against.

    One construction point, shared with ``tests/test_docs_links.py``:
    ``commands`` maps each command of the dispatcher's table
    (:data:`repro.commands.COMMANDS`) to its (positional words, flags),
    read from the command's live parser.  Scenario names come from the
    live registry — docs cannot name an unregistered scenario.
    """
    from repro.commands import COMMANDS, build_parser
    from repro.scenarios import scenario_names

    names = set(scenario_names())
    commands = {command: _grammar(build_parser(command), names) for command in COMMANDS}
    return {
        "commands": commands,
        "scenario_names": names,
        "env_vars": known_env_vars(),
        "make_targets": makefile_targets(),
    }


def main() -> int:
    cli = cli_tables()
    problems: list[str] = []
    for name in DOC_FILES:
        doc = REPO_ROOT / name
        if not doc.exists():
            problems.append(f"expected documentation file missing: {name}")
            continue
        problems.extend(check_file(doc, cli))
    problems.extend(check_source_references(REPO_ROOT / "src"))
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs-check: OK ({len(DOC_FILES)} files, CLI commands: "
        f"{sorted(cli['commands'])}, scenarios: {sorted(cli['scenario_names'])})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
