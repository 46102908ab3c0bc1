"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import SCENARIO_COMMANDS, build_run_scenario_parser, main

SRC = str(Path(__file__).resolve().parent.parent / "src")

FAST_SCENARIO_ARGS = [
    "--set", "ticks=2",
    "--set", "ham_per_tick=15",
    "--set", "spam_per_tick=15",
    "--set", "test_size=30",
]
"""Overrides that make `stream-clean-control` run in well under a second."""


PAPER_ARTIFACT_SCENARIOS = (
    "table1-parameters",
    "figure1-dictionary",
    "figure2-focused-knowledge",
    "figure3-focused-size",
    "figure4-token-shift",
    "roni-defense",
    "figure5-threshold",
)


class TestParser:
    """The top level knows only the commands in ``SCENARIO_COMMANDS``;
    anything else is argparse's usage error, which names them all."""

    def _usage_error(self, capsys, argv: list[str]) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "Traceback" not in err
        for command in SCENARIO_COMMANDS:
            assert command in err
        return err

    def test_requires_command(self, capsys):
        assert "required: command" in self._usage_error(capsys, [])

    @pytest.mark.parametrize("word", ["figure1", "table1", "all", "--seed"])
    def test_rejects_artifact_names_and_stray_flags(self, capsys, word):
        self._usage_error(capsys, [word])

    def test_help_lists_the_commands(self):
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("usage: repro")
        assert "Traceback" not in completed.stderr
        for command in SCENARIO_COMMANDS:
            assert command in completed.stdout

    def test_closed_stdout_exits_without_a_traceback(self):
        """``repro ... | head``: the reader closes the pipe before the
        report is printed, and the command ends quietly."""
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "run-scenario", "stream-clean-control",
             *FAST_SCENARIO_ARGS],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Closed before the interpreter has even imported repro, so the
        # first print meets a broken pipe.
        process.stdout.close()
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) == 1, stderr
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr

    def test_run_scenario_defaults(self):
        args = build_run_scenario_parser().parse_args(["figure1-dictionary"])
        assert args.scale == "small"
        assert args.seed == 0
        assert args.workers == 1
        assert args.out is None

    def test_every_paper_artifact_is_a_scenario(self):
        from repro.scenarios import scenario_names

        assert set(PAPER_ARTIFACT_SCENARIOS) <= set(scenario_names())


class TestExecution:
    def test_fast_experiment_roundtrip(self, tmp_path, capsys):
        """Run a real (but tiny) Figure 3 through the CLI and check the
        JSON record parses."""
        tiny = [
            "--set", "inbox_size=200",
            "--set", "n_targets=3",
            "--set", "repetitions=1",
            "--set", "attack_count=12",
            "--set", "corpus_ham=250",
            "--set", "corpus_spam=250",
            "--set", "size_sweep_fractions=(0.0, 0.05)",
        ]
        argv = ["run-scenario", "figure3-focused-size", *tiny, "--out", str(tmp_path)]
        assert main(argv) == 0
        record = json.loads((tmp_path / "figure3-focused-size.json").read_text())
        assert record["experiment"] == "figure3-focused-size"
        assert record["series"][0]["points"]
        assert (tmp_path / "figure3-focused-size.txt").exists()
        output = capsys.readouterr().out
        assert "Figure 3" in output


class TestScenarioErrorPaths:
    """Every user-input mistake on the scenario commands must produce
    one clean ``error: ...`` diagnostic (a ReproError-derived message)
    and a nonzero exit — never a traceback, never an argparse dump."""

    def _error_of(self, capsys, argv: list[str]) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        return captured.err

    def test_unknown_scenario_name(self, capsys):
        err = self._error_of(capsys, ["run-scenario", "no-such-scenario"])
        assert "unknown scenario" in err
        assert "stream-clean-control" in err  # the catalogue is listed

    def test_set_without_equals(self, capsys):
        err = self._error_of(
            capsys, ["run-scenario", "stream-clean-control", "--set", "ticks"]
        )
        assert "--set needs key=value" in err

    def test_set_unknown_field(self, capsys):
        err = self._error_of(
            capsys, ["run-scenario", "stream-clean-control", "--set", "bogus=3"]
        )
        assert "unknown override field" in err
        assert "ticks" in err  # accepted fields are listed

    def test_set_uncoercible_value(self, capsys):
        err = self._error_of(
            capsys, ["run-scenario", "stream-clean-control", "--set", "ticks=banana"]
        )
        assert "invalid config value" in err

    def test_profile_on_non_stream_scenario(self, capsys):
        err = self._error_of(
            capsys, ["run-scenario", "dictionary-vs-none", "--profile"]
        )
        assert "--profile" in err
        assert "profile_phases" in err

    def test_replicate_zero_seeds(self, capsys):
        err = self._error_of(
            capsys, ["replicate", "stream-clean-control", "--seeds", "0"]
        )
        assert "--seeds must be >= 1" in err

    def test_replicate_reserved_override(self, capsys):
        err = self._error_of(
            capsys, ["replicate", "stream-clean-control", "--set", "seed=3"]
        )
        assert "conflicts with replication" in err

    def test_run_scenario_unwritable_out(self, capsys, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        err = self._error_of(
            capsys,
            ["run-scenario", "stream-clean-control", *FAST_SCENARIO_ARGS,
             "--out", str(blocker / "sub")],
        )
        assert "cannot write --out" in err

    def test_replicate_unwritable_out(self, capsys, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        err = self._error_of(
            capsys,
            ["replicate", "stream-clean-control", "--seeds", "2",
             *FAST_SCENARIO_ARGS, "--out", str(blocker / "sub" / "r.json")],
        )
        assert "cannot write --out" in err

    def test_replicate_malformed_set_is_clean_too(self, capsys):
        err = self._error_of(
            capsys, ["replicate", "stream-clean-control", "--set", "novalue"]
        )
        assert "--set needs key=value" in err


class TestScenarioHappyPaths:
    def test_run_scenario_writes_text_and_record(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        assert main(
            ["run-scenario", "stream-clean-control", *FAST_SCENARIO_ARGS,
             "--out", str(out)]
        ) == 0
        assert (out / "stream-clean-control.txt").exists()
        record = json.loads((out / "stream-clean-control.json").read_text())
        assert record["experiment"] == "stream"
        output = capsys.readouterr().out
        assert "held-out ham misclassification" in output

    def test_run_scenario_profile_prints_phase_table(self, capsys):
        assert main(
            ["run-scenario", "stream-clean-control", *FAST_SCENARIO_ARGS,
             "--profile"]
        ) == 0
        output = capsys.readouterr().out
        assert "phase timings (ms per tick)" in output
        assert "counterfactual" in output
        assert "accounted" in output

    def test_profile_does_not_change_the_record(self, capsys, tmp_path):
        plain_out = tmp_path / "plain"
        profiled_out = tmp_path / "profiled"
        assert main(
            ["run-scenario", "stream-clean-control", *FAST_SCENARIO_ARGS,
             "--out", str(plain_out)]
        ) == 0
        assert main(
            ["run-scenario", "stream-clean-control", *FAST_SCENARIO_ARGS,
             "--profile", "--out", str(profiled_out)]
        ) == 0
        plain = (plain_out / "stream-clean-control.json").read_bytes()
        profiled = (profiled_out / "stream-clean-control.json").read_bytes()
        assert plain == profiled

    def test_replicate_writes_pooled_record(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["replicate", "stream-clean-control", "--seeds", "2",
             *FAST_SCENARIO_ARGS, "--out", str(out)]
        ) == 0
        record = json.loads(out.read_text())
        assert record["config"]["scenario"] == "stream-clean-control"
        assert len(record["replicas"]) == 2


class TestFaultToleranceSurface:
    """The supervision flags and the error envelope around engine
    failures."""

    def test_supervision_flags_registered(self):
        from repro.cli import build_replicate_parser, build_run_scenario_parser

        for build in (build_run_scenario_parser, build_replicate_parser):
            args = build().parse_args(["stream-clean-control"])
            assert args.timeout is None
            assert args.retries is None
        args = build_replicate_parser().parse_args(
            ["stream-clean-control", "--timeout", "2.5", "--retries", "3"]
        )
        assert args.timeout == 2.5
        assert args.retries == 3
        assert args.resume is None

    def test_gc_shm_is_not_a_command(self, capsys):
        # The shared-memory janitor went with the transport; the name
        # is now an unknown command and gets the usage error.
        with pytest.raises(SystemExit) as excinfo:
            main(["gc-shm"])
        assert excinfo.value.code == 2
        assert "gc-shm" in capsys.readouterr().err

    def test_engine_failure_exits_with_one_line_error(self, monkeypatch, capsys):
        # Workers crash on every chunk; retries 0, degradation off: the
        # run must die with a clean `error:` line and status 2 — never
        # a traceback.  (replicate, not run-scenario: a single stream
        # is one task, which runs inline where faults never fire.)
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=1")
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        code = main(
            [
                "replicate",
                "stream-clean-control",
                "--seeds", "2",
                "--workers", "2",
                "--retries", "0",
                *FAST_SCENARIO_ARGS,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        error_lines = [
            line for line in captured.err.splitlines() if line.strip()
        ]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    def test_supervision_flags_recover_injected_crashes(self, monkeypatch, capsys):
        # Same fault schedule, but with the degradation ladder on: the
        # scenario completes and renders normally.
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=1")
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        code = main(
            [
                "replicate",
                "stream-clean-control",
                "--seeds", "2",
                "--workers", "2",
                "--retries", "1",
                *FAST_SCENARIO_ARGS,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "=== replicate stream-clean-control" in captured.out

    def test_bad_timeout_rejected_cleanly(self, capsys):
        code = main(
            ["run-scenario", "stream-clean-control", "--timeout", "-1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
