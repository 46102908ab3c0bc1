"""The command table behind ``python -m repro`` and :func:`repro.cli.main`.

:data:`COMMANDS` maps each command word to the module that implements
it, and :func:`main` imports only the chosen command's module: ``repro
serve`` loads the classifier, the storage layer and the serve package,
never the scenario stack (:mod:`repro.cli`) that ``run-scenario``
needs.  This module itself stays light — the standard library,
:mod:`repro.errors`, :mod:`repro.engine.supervise` and the
:mod:`repro.storage` package, which loads its disk backend on first
use — and also holds the ``--timeout`` / ``--retries`` / ``--workers``
helpers that both the scenario commands and ``serve`` parse with, and
the ``gc`` command, which needs nothing more.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
from typing import Callable, NamedTuple

from repro import storage
from repro.engine import supervise
from repro.errors import EngineError, ReproError

__all__ = [
    "COMMANDS",
    "Command",
    "add_supervision_args",
    "build_parser",
    "main",
    "supervision_policy",
    "workers_arg",
]


class Command(NamedTuple):
    """Where one command lives: its module, and the names there of its
    handler (``handler(argv) -> exit status``) and parser builder."""

    module: str
    handler: str
    parser: str


COMMANDS: dict[str, Command] = {
    "list-scenarios": Command(
        "repro.cli", "_main_list_scenarios", "build_list_scenarios_parser"
    ),
    "run-scenario": Command(
        "repro.cli", "_main_run_scenario", "build_run_scenario_parser"
    ),
    "replicate": Command("repro.cli", "_main_replicate", "build_replicate_parser"),
    "serve": Command("repro.serve.command", "_main_serve", "build_serve_parser"),
    "gc": Command("repro.commands", "_main_gc", "build_gc_parser"),
}
"""Every command :func:`main` dispatches on, in usage order."""


def _resolve(command: str, attr: str) -> Callable:
    entry = COMMANDS[command]
    return getattr(importlib.import_module(entry.module), getattr(entry, attr))


def build_parser(command: str) -> argparse.ArgumentParser:
    """The argument parser of ``command``, imported from its module."""
    return _resolve(command, "parser")()


def workers_arg(value: str) -> int:
    """``--workers`` as argparse parses it: the engine's own validation,
    so the CLI cannot drift from what the worker pool accepts."""
    try:
        supervise.resolve_workers(int(value))
    except EngineError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(value)


def add_supervision_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline for each parallel dispatch wave (on replicate, a "
        "wave of whole replicas); chunks that miss it have their workers "
        "killed and are retried on a fresh pool",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="respawn-and-retry rounds on worker crash/timeout before the "
        "run degrades to in-process sequential execution (results are "
        "identical on every recovery path)",
    )


def supervision_policy(args) -> supervise.SupervisePolicy:
    """The ambient supervision policy (env: ``REPRO_TIMEOUT``/
    ``REPRO_RETRIES``/``REPRO_DEGRADE``) with the invocation's
    ``--timeout``/``--retries`` applied on top."""
    policy = supervise.current_policy()
    if args.timeout is not None:
        policy = dataclasses.replace(policy, timeout=args.timeout)
    if args.retries is not None:
        policy = dataclasses.replace(policy, retries=args.retries)
    return policy


def build_gc_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro gc",
        description="Reclaim the on-disk storage-backend directories "
        "(repro_store_*) that killed processes left under "
        "REPRO_STORE_DIR or the system tempdir.  A directory is "
        "orphaned when the pid baked into its name no longer runs.",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="also reclaim directories whose owner is still alive (for "
        "wedged runs you have already decided to kill; live runs "
        "using them will fail)",
    )
    return parser


def _main_gc(argv: list[str]) -> int:
    args = build_gc_parser().parse_args(argv)
    try:
        stores = storage.gc_stores(include_live=args.all)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in stores:
        print(f"removed {path}")
    print(f"{len(stores)} store(s) reclaimed")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Exploiting Machine Learning to Subvert "
        "Your Spam Filter' (Nelson et al., 2008).  Each paper artifact "
        "is a registered scenario: 'repro list-scenarios' prints the "
        "catalogue and 'repro run-scenario <name>' runs one.",
    )
    parser.add_argument(
        "command",
        choices=COMMANDS,
        help="see 'repro <command> --help' for its arguments",
    )
    # Only the first word is the top level's: no command, an unknown
    # one or --help exits here with the usage line naming every command
    # (status 2, or 0 for --help); the rest goes to the command.
    command = parser.parse_args(argv[:1]).command
    try:
        status = _resolve(command, "handler")(argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``repro ... | head``).  Point
        # stdout at devnull so the interpreter's exit flush cannot fail
        # again, and exit without a traceback (the signal module's
        # advice on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status
