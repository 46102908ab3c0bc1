"""The docs-link checker runs clean as part of tier-1.

This is what keeps README/docs honest: a reference to a file that was
renamed away, or to a CLI subcommand that never existed, fails the
suite — not just the ``make docs-check`` target.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs_links", REPO_ROOT / "tools" / "check_docs_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_references_resolve(capsys):
    checker = _load_checker()
    assert checker.main() == 0, capsys.readouterr().out


def test_checker_flags_broken_references(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "bad.md"
    doc.write_text(
        "See [missing](no/such/file.md) and `src/repro/nonexistent.py`.\n"
        "Run `python -m repro figure9` or `python -m repro figure1 --bogus 3`.\n",
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert len(problems) == 4, problems
    assert "bad.md: unknown CLI command 'figure1'" in problems


def test_checker_resolves_pytest_node_ids_to_their_file(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "node_ids.md"
    doc.write_text(
        "`tests/test_docs_links.py::test_docs_references_resolve` passes;\n"
        "`tests/test_no_such_file.py::TestMissing` does not.\n",
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert problems == [
        "node_ids.md: referenced path "
        "'tests/test_no_such_file.py::TestMissing' does not exist"
    ]


def test_checker_flags_the_retired_artifact_commands(tmp_path):
    """The paper artifacts are scenarios now; the old artifact words
    are unknown commands, with or without flags."""
    checker = _load_checker()
    doc = tmp_path / "artifacts.md"
    doc.write_text(
        "`python -m repro figure1`\n"
        "`python -m repro table1 --out results/`\n"
        "`python -m repro figure5 --scale paper --seed 3`\n"
        "`python -m repro all`\n",
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert problems == [
        f"artifacts.md: unknown CLI command {word!r}"
        for word in ("figure1", "table1", "figure5", "all")
    ]


def test_checker_accepts_known_cli_usage(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "good.md"
    doc.write_text(
        "`python -m repro run-scenario figure3-focused-size --scale paper --seed 3 --workers 4`\n"
        "`python -m repro run-scenario figure1-dictionary --out results/`\n"
        "`python -m repro list-scenarios`\n"
        "`python -m repro run-scenario focused-vs-roni --set pool_size=200 --seed 3`\n"
        "`python -m repro replicate dictionary-vs-none --seeds 8 --workers 4 --out r.json`\n",
        encoding="utf-8",
    )
    assert checker.check_file(doc, checker.cli_tables()) == []


def test_checker_tracks_the_profile_flag(tmp_path):
    """`--profile` is derived from the live run-scenario parser, so docs
    may use it — and a typo'd variant still fails."""
    checker = _load_checker()
    doc = tmp_path / "profile.md"
    doc.write_text(
        "`python -m repro run-scenario stream-usenet-burst --set ticks=10 --profile`\n",
        encoding="utf-8",
    )
    assert checker.check_file(doc, checker.cli_tables()) == []
    bad = tmp_path / "typo.md"
    bad.write_text(
        "`python -m repro run-scenario stream-usenet-burst --profiled`\n",
        encoding="utf-8",
    )
    assert len(checker.check_file(bad, checker.cli_tables())) == 1


def test_checker_keeps_the_two_cli_grammars_apart(tmp_path):
    """A scenario name without run-scenario is an unknown command, and
    run-scenario and replicate accept only registered scenario names
    and their own flags."""
    checker = _load_checker()
    doc = tmp_path / "mixed.md"
    doc.write_text(
        "`python -m repro focused-vs-roni`\n"               # scenario name w/o command
        "`python -m repro figure1 --set folds=2`\n"          # retired artifact word
        "`python -m repro run-scenario no-such-scenario`\n"  # unregistered name
        "`python -m repro run-scenario figure1-dictionary --bogus 1`\n"
        "`python -m repro replicate figure9`\n"              # unregistered name
        "`python -m repro replicate dictionary-vs-none --folds 2`\n",  # unknown flag
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert len(problems) == 6, problems


def test_checker_flags_retired_make_targets(tmp_path):
    """A backticked `make <target>` must name a Makefile target; prose
    that merely uses the word "make" is not a target reference."""
    checker = _load_checker()
    retired = "bench"
    doc = tmp_path / "targets.md"
    doc.write_text(
        "Run `make test`, `make docs-check` and `make e2e-selftest` to make the\n"
        f"checks pass, then `make {retired}` for the retired paper artifacts.\n",
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert problems == [f"targets.md: unknown make target {retired!r}"]


def test_checker_resolves_dotted_references(tmp_path):
    """A dotted ``repro.…`` code span must import and its attributes
    must exist; prose that merely mentions a path is not checked."""
    checker = _load_checker()
    doc = tmp_path / "dotted.md"
    doc.write_text(
        "`repro.scenarios.PROTOCOLS` and `repro.experiments.results` resolve;\n"
        "`repro.scenarios.protocols.run_dictionary_sweep` and\n"
        "`repro.no_such_package` do not.\n",
        encoding="utf-8",
    )
    problems = checker.check_file(doc, checker.cli_tables())
    assert problems == [
        "dotted.md: unresolved reference 'repro.scenarios.protocols.run_dictionary_sweep'",
        "dotted.md: unresolved reference 'repro.no_such_package'",
    ]


def test_checker_resolves_docstring_role_references(tmp_path):
    checker = _load_checker()
    source = tmp_path / "src"
    source.mkdir()
    (source / "module.py").write_text(
        '"""See :func:`~repro.scenarios.run_scenario` and\n'
        ':class:`repro.experiments.results.ExperimentRecord`, not\n'
        ':func:`repro.experiments.dictionary_exp.run_dictionary_sweep`."""\n',
        encoding="utf-8",
    )
    checker.REPO_ROOT = tmp_path
    problems = checker.check_source_references(source)
    assert problems == [
        "src/module.py:3: unresolved reference "
        "'repro.experiments.dictionary_exp.run_dictionary_sweep'"
    ]


def test_checker_resolves_unqualified_role_references(tmp_path, monkeypatch):
    """Unqualified :meth:/:class:/:func: names resolve against their
    own module: its namespace, the classes it defines, or an importable
    top-level module; a deleted method leaves its reference orphaned."""
    checker = _load_checker()
    source = tmp_path / "src"
    source.mkdir()
    (source / "docs_probe_module.py").write_text(
        'import math\n'
        '\n'
        '\n'
        'class Probe:\n'
        '    """:meth:`kept`, :meth:`Probe.kept`, :meth:`~Probe.kept`,\n'
        '    :func:`helper`, :func:`math.log` and :class:`Probe` resolve;\n'
        '    :meth:`deleted` and :meth:`Probe.deleted` do not."""\n'
        '\n'
        '    def kept(self):\n'
        '        """See :func:`no_such_helper`."""\n'
        '\n'
        '\n'
        'def helper():\n'
        '    pass\n',
        encoding="utf-8",
    )
    monkeypatch.syspath_prepend(str(source))
    checker.REPO_ROOT = tmp_path
    problems = checker.check_source_references(source)
    assert problems == [
        "src/docs_probe_module.py:7: unresolved reference 'deleted'",
        "src/docs_probe_module.py:7: unresolved reference 'Probe.deleted'",
        "src/docs_probe_module.py:10: unresolved reference 'no_such_helper'",
    ]
