"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro table1
    python -m repro figure1 --scale small --seed 3
    python -m repro figure2 figure3 roni
    python -m repro figure1 --workers 4
    python -m repro all --out results/
    python -m repro list-scenarios
    python -m repro run-scenario focused-vs-roni --set pool_size=200
    python -m repro replicate dictionary-vs-none --seeds 8 --workers 4

Each artifact command runs the corresponding experiment driver, prints
the rendered artifact (data table + ASCII figure), and — with
``--out`` — also writes the text and a machine-readable JSON record.

``list-scenarios`` prints the declarative scenario registry
(:mod:`repro.scenarios`); ``run-scenario <name>`` executes any
registered scenario through the generic executor, with ``--set
key=value`` overriding individual config fields (values are parsed as
Python literals, e.g. ``--set "attack_fractions=(0.0, 0.05)"``, with a
plain-string fallback).

``replicate <name> --seeds N`` runs a scenario at N derived root seeds
through :func:`repro.scenarios.replicate_scenario` and prints the
pooled error-bar table (per-x mean, std and 95% CI over seeds for
every rate).  With ``--workers N`` up to N replicas run at once, each
whole replica inside one worker process (a lone replica fans its own
folds out instead); the output — and the ``--out`` JSON record — is
byte-identical at any worker count and any ``PYTHONHASHSEED``.

``--workers N`` fans the experiment's independent units (folds,
repetitions, targets) out over N processes through
:mod:`repro.engine`; ``0`` means one per CPU.  Results — text and
JSON — are identical at any worker count.

``--timeout SECONDS`` / ``--retries N`` (on ``run-scenario``,
``replicate`` and ``serve``) tune the supervisor every worker pool runs
under (:mod:`repro.engine.supervise`): wedged workers are killed at the
deadline, crashed pools are respawned and unfinished chunks retried,
and after N rounds the run degrades to in-process execution rather
than dying — with identical results on every path.  On ``replicate``
a dispatch wave is a set of whole replicas, so ``--timeout`` must
cover the slowest replica, not one fold.  ``replicate
--resume DIR`` checkpoints each replica record into ``DIR`` as it
completes and loads completed replicas on restart, so a killed
replication resumes where it stopped with byte-identical pooled
output.  ``gc`` reclaims the on-disk storage-backend directories
(``repro_store_*``) that killed runs leave behind.

Engine and experiment failures exit with a one-line ``error: ...``
diagnostic and status 2 — never a traceback.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable

from repro.engine.runner import resolve_workers
from repro.errors import EngineError, ReproError, ScenarioError
from repro.experiments.dictionary_exp import (
    DictionaryExperimentConfig,
    run_dictionary_experiment,
)
from repro.experiments.focused_exp import (
    FocusedExperimentConfig,
    run_focused_knowledge_experiment,
    run_focused_size_experiment,
)
from repro.experiments.reporting import (
    render_dictionary_result,
    render_focused_knowledge_result,
    render_focused_size_result,
    render_roni_result,
    render_stream_result,
    render_table1,
    render_threshold_result,
)
from repro.experiments.results import save_record
from repro.experiments.roni_exp import RoniExperimentConfig, run_roni_experiment
from repro.experiments.threshold_exp import (
    ThresholdExperimentConfig,
    run_threshold_experiment,
)

__all__ = ["main", "ARTIFACTS", "SCENARIO_COMMANDS"]


def _dictionary_config(scale: str, seed: int, workers: int = 1) -> DictionaryExperimentConfig:
    factory = (
        DictionaryExperimentConfig.paper_scale
        if scale == "paper"
        else DictionaryExperimentConfig.small_scale
    )
    return factory(seed=seed, workers=workers)


def _focused_config(scale: str, seed: int, workers: int = 1) -> FocusedExperimentConfig:
    factory = (
        FocusedExperimentConfig.paper_scale
        if scale == "paper"
        else FocusedExperimentConfig.small_scale
    )
    return factory(seed=seed, workers=workers)


def _roni_config(scale: str, seed: int, workers: int = 1) -> RoniExperimentConfig:
    factory = (
        RoniExperimentConfig.paper_scale if scale == "paper" else RoniExperimentConfig.small_scale
    )
    return factory(seed=seed, workers=workers)


def _threshold_config(scale: str, seed: int, workers: int = 1) -> ThresholdExperimentConfig:
    factory = (
        ThresholdExperimentConfig.paper_scale
        if scale == "paper"
        else ThresholdExperimentConfig.small_scale
    )
    return factory(seed=seed, workers=workers)


def _run_table1(scale: str, seed: int, workers: int = 1):
    return None, render_table1(), None


def _run_figure1(scale: str, seed: int, workers: int = 1):
    result = run_dictionary_experiment(_dictionary_config(scale, seed, workers))
    return result, render_dictionary_result(result), result.to_record()


def _run_figure2(scale: str, seed: int, workers: int = 1):
    result = run_focused_knowledge_experiment(_focused_config(scale, seed, workers))
    return result, render_focused_knowledge_result(result), result.to_record()


def _run_figure3(scale: str, seed: int, workers: int = 1):
    result = run_focused_size_experiment(_focused_config(scale, seed, workers))
    return result, render_focused_size_result(result), result.to_record()


def _run_roni(scale: str, seed: int, workers: int = 1):
    result = run_roni_experiment(_roni_config(scale, seed, workers))
    return result, render_roni_result(result), result.to_record()


def _run_figure5(scale: str, seed: int, workers: int = 1):
    result = run_threshold_experiment(_threshold_config(scale, seed, workers))
    return result, render_threshold_result(result), result.to_record()


ARTIFACTS: dict[str, Callable] = {
    "table1": _run_table1,
    "figure1": _run_figure1,
    "figure2": _run_figure2,
    "figure3": _run_figure3,
    "roni": _run_roni,
    "figure5": _run_figure5,
}
"""Artifact name -> runner. ("figure4" panels are produced by
``benchmarks/bench_figure4_token_shift.py`` and the focused-attack
example; they need no sweep, only a rendered analysis.)"""


SCENARIO_COMMANDS: tuple[str, ...] = (
    "list-scenarios",
    "run-scenario",
    "replicate",
    "serve",
    "gc",
)
"""Non-artifact subcommands, dispatched ahead of artifact parsing."""

_SCENARIO_RENDERERS: dict[str, Callable] = {
    "dictionary-sweep": render_dictionary_result,
    "focused-knowledge": render_focused_knowledge_result,
    "focused-size": render_focused_size_result,
    "roni-gate": render_roni_result,
    "stream": render_stream_result,
    "threshold-arms": render_threshold_result,
}
"""Protocol -> ASCII renderer; protocols without one print the JSON
record."""


def _parse_override(assignment: str) -> tuple[str, Any]:
    """One ``--set key=value`` pair; values are Python literals when
    they parse as one (ints, floats, tuples, booleans), else strings.

    Raises :class:`ScenarioError` (inside the commands' error-handling
    envelope, so a malformed ``--set`` gets the same clean ``error:``
    diagnostic and exit code as an unknown scenario — never an
    argparse usage dump or a traceback).
    """
    key, separator, raw = assignment.partition("=")
    key = key.strip()
    if not separator or not key:
        raise ScenarioError(f"--set needs key=value, got {assignment!r}")
    try:
        value: Any = ast.literal_eval(raw.strip())
    except (ValueError, SyntaxError):
        value = raw.strip()
    return key, value


def _parse_overrides(assignments: list[str]) -> dict[str, Any]:
    """All ``--set`` pairs of one invocation, last one per key winning."""
    return dict(_parse_override(assignment) for assignment in assignments)


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
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


def _supervision_policy(args) -> Any:
    """The ambient supervision policy (env: ``REPRO_TIMEOUT``/
    ``REPRO_RETRIES``/``REPRO_DEGRADE``) with the invocation's
    ``--timeout``/``--retries`` applied on top."""
    from repro.engine import supervise

    policy = supervise.current_policy()
    if args.timeout is not None:
        policy = dataclasses.replace(policy, timeout=args.timeout)
    if args.retries is not None:
        policy = dataclasses.replace(policy, retries=args.retries)
    return policy


def build_run_scenario_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro run-scenario",
        description="Execute a registered scenario through the generic "
        "executor (see 'repro list-scenarios' for the catalogue).",
    )
    parser.add_argument("name", help="registered scenario name")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field (repeatable); values parse as "
        "Python literals with a plain-string fallback; for seed/workers "
        "a --set entry wins over the dedicated flag",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="small = the config's defaults; paper = the config's "
        "paper_scale() factory (when it defines one)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="worker processes for the experiment engine "
        "(default 1 = sequential, 0 = one per CPU)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for the .txt artifact and .json record",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect and print per-tick phase timings (stream "
        "scenarios only); pure observation — the scenario's record "
        "is byte-identical with or without it",
    )
    _add_supervision_args(parser)
    return parser


def _main_list_scenarios() -> int:
    from repro.scenarios import list_scenarios

    specs = list_scenarios()
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        print(f"{spec.name:<{width}}  {spec.describe()}")
    print(f"\n{len(specs)} scenarios registered "
          "(run one with: python -m repro run-scenario <name>)")
    return 0


def _paper_scale_config(spec, overrides: dict, *, seed: int, workers: int) -> Any:
    """The ``--scale paper`` config: the config type's ``paper_scale()``
    factory, with the spec's defaults and the user's overrides applied
    on top.  Shared by ``run-scenario`` and ``replicate``."""
    factory = getattr(spec.config_type, "paper_scale", None)
    if factory is None:
        raise ScenarioError(
            f"scenario {spec.name!r} has no paper-scale configuration "
            f"({spec.config_type.__name__} defines no paper_scale())"
        )
    base = factory(seed=seed, workers=workers)
    return dataclasses.replace(base, **{**dict(spec.defaults), **overrides})


def _scenario_config(spec, args) -> Any:
    """Materialize the config a ``run-scenario`` invocation asked for."""
    overrides = _parse_overrides(args.overrides)
    # Validated up front on every path, so a typo in --set gets the
    # registry's field listing, never a raw dataclass TypeError.
    spec.validate_overrides(overrides)
    if args.scale == "paper":
        config = _paper_scale_config(
            spec, overrides, seed=args.seed, workers=args.workers
        )
    else:
        merged = dict(overrides)
        merged.setdefault("seed", args.seed)
        merged.setdefault("workers", args.workers)
        config = spec.build_config(**merged)
    # The configs don't type-check seed/workers themselves, and a
    # string from --set would surface as a deep TypeError mid-run.
    if not isinstance(config.seed, int):
        raise ScenarioError(f"seed must be an integer, got {config.seed!r}")
    try:
        resolve_workers(config.workers)
    except TypeError:
        raise ScenarioError(
            f"workers must be an integer >= 0, got {config.workers!r}"
        ) from None
    if getattr(args, "profile", False):
        field_names = {field.name for field in dataclasses.fields(config)}
        if "profile_phases" not in field_names:
            raise ScenarioError(
                f"scenario {spec.name!r} does not support --profile "
                f"({type(config).__name__} has no profile_phases field; "
                "phase profiling is a stream-scenario feature)"
            )
        config = dataclasses.replace(config, profile_phases=True)
    return config


def _main_run_scenario(argv: list[str]) -> int:
    from repro.scenarios import get_scenario, run_scenario

    from repro.engine import supervise

    args = build_run_scenario_parser().parse_args(argv)
    try:
        spec = get_scenario(args.name)
        config = _scenario_config(spec, args)
        print(f"=== scenario {spec.name} (scale={args.scale}, seed={config.seed}) ===")
        with supervise.use_supervision(_supervision_policy(args)):
            outcome = run_scenario(spec, config=config)
    except ReproError as exc:
        # Covers bad names/overrides and execution-time experiment
        # errors (e.g. a --set size the corpus cannot satisfy) — user
        # input mistakes get a diagnostic, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    renderer = _SCENARIO_RENDERERS.get(spec.protocol)
    text = (
        renderer(outcome.result)
        if renderer is not None
        else json.dumps(outcome.record_dict(), indent=2, sort_keys=True)
    )
    profile = getattr(outcome.result, "phase_profile", None)
    if args.profile and profile is not None:
        text = f"{text}\n\n{profile.render()}"
    print(text)
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{spec.name}.txt").write_text(text + "\n", encoding="utf-8")
            if outcome.record is not None:
                save_record(outcome.record, args.out / f"{spec.name}.json")
        except OSError as exc:
            # The run succeeded; only the archive destination is bad.
            print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0


def build_replicate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro replicate",
        description="Run a registered scenario at N root seeds and pool "
        "the results with error bars (mean, std, 95% CI per curve point). "
        "Replica seeds derive from --seed; the record lists them, so any "
        "replica can be reproduced standalone with 'repro run-scenario'.",
    )
    parser.add_argument("name", help="registered scenario name")
    parser.add_argument(
        "--seeds",
        type=int,
        default=8,
        help="number of replica seeds to pool (default 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed the replica seeds derive from"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field on every replica (repeatable); "
        "values parse as Python literals with a plain-string fallback",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="small = the config's defaults; paper = the config's "
        "paper_scale() factory (when it defines one)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="worker processes; each runs whole replicas, one at a time "
        "(a lone replica fans its folds out instead; default 1 = "
        "sequential, 0 = one per CPU; output is identical at any value)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="file for the pooled JSON record (byte-identical across "
        "runs, worker counts and hash seeds)",
    )
    parser.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="DIR",
        help="checkpoint directory: each replica record is saved there "
        "as it completes, and completed replicas are loaded instead of "
        "re-run — a killed replication resumes with byte-identical "
        "pooled output",
    )
    _add_supervision_args(parser)
    return parser


def _main_replicate(argv: list[str]) -> int:
    from repro.scenarios import get_scenario, replicate_scenario

    args = build_replicate_parser().parse_args(argv)
    try:
        if args.seeds < 1:
            raise ScenarioError(f"--seeds must be >= 1, got {args.seeds}")
        spec = get_scenario(args.name)
        overrides = _parse_overrides(args.overrides)
        # seed/workers are replication-owned here: each replica's config
        # gets its derived seed and the pool's worker count.
        for reserved in ("seed", "workers"):
            if reserved in overrides:
                raise ScenarioError(
                    f"--set {reserved}=... conflicts with replication; "
                    f"use --{reserved} instead"
                )
        spec.validate_overrides(overrides)
        base_config = None
        # The record must carry everything needed to re-run a replica
        # standalone: the scale, and — on the paper path, where the
        # overrides are folded into base_config — the overrides too.
        extra_config = {"scale": args.scale}
        if args.scale == "paper":
            # seed/workers are placeholders — replication replaces both
            # per replica.
            base_config = _paper_scale_config(spec, overrides, seed=0, workers=1)
            extra_config["overrides"] = dict(sorted(overrides.items()))
            overrides = {}
        print(
            f"=== replicate {spec.name} (scale={args.scale}, seeds={args.seeds}, "
            f"base_seed={args.seed}) ==="
        )
        from repro.engine import supervise

        with supervise.use_supervision(_supervision_policy(args)):
            record = replicate_scenario(
                spec,
                seeds=args.seeds,
                base_seed=args.seed,
                overrides=overrides or None,
                workers=args.workers,
                base_config=base_config,
                extra_config=extra_config,
                checkpoint_dir=None if args.resume is None else str(args.resume),
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.experiments.reporting import render_replicated_record

    print(render_replicated_record(record))
    if args.out is not None:
        try:
            if args.out.parent != Path("."):
                args.out.parent.mkdir(parents=True, exist_ok=True)
            save_record(record, args.out)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the always-on filter service: a long-lived "
        "daemon scoring and training one live classifier over a "
        "length-prefixed JSON protocol (verbs: score, train, feedback, "
        "snapshot, stats, shutdown).  Concurrent score requests are "
        "coalesced into bulk kernel calls; training serializes through "
        "a single writer task.  Kernel and storage backend follow "
        "REPRO_KERNEL / REPRO_STORE, exactly as library calls do.",
    )
    parser.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="listen on a Unix domain socket at PATH (exactly one of "
        "--socket / --port)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="listen on TCP port N (0 = let the OS pick; the bound "
        "port is announced on stdout)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port mode (default loopback)",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=None,
        metavar="MS",
        help="micro-batch coalescing window in milliseconds: score "
        "requests arriving within it share one bulk kernel call "
        "(default 2.0; 0 disables batching entirely)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        metavar="N",
        help="score batches through a supervised pool of N worker "
        "processes (default 1 = in-process, 0 = one per CPU; scores "
        "are identical at any value)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help="cap on messages per coalesced bulk call (default 256)",
    )
    _add_supervision_args(parser)
    return parser


def _main_serve(argv: list[str]) -> int:
    import threading

    from repro.engine import supervise
    from repro.serve.service import (
        DEFAULT_BATCH_WINDOW_MS,
        DEFAULT_MAX_BATCH,
        FilterService,
        ServeConfig,
    )

    args = build_serve_parser().parse_args(argv)
    try:
        config = ServeConfig(
            socket_path=args.socket,
            port=args.port,
            host=args.host,
            batch_window_ms=(
                DEFAULT_BATCH_WINDOW_MS
                if args.batch_window is None
                else args.batch_window
            ),
            workers=args.workers,
            max_batch=DEFAULT_MAX_BATCH if args.max_batch is None else args.max_batch,
        )
        service = FilterService(config)

        def _announce() -> None:
            # The bound address exists only after the loop binds it;
            # port 0 callers (the benchmark driver) parse this line.
            service.ready.wait()
            if service.startup_error is None and service.address is not None:
                address = service.address
                if isinstance(address, tuple):
                    print(f"serving on {address[0]}:{address[1]}", flush=True)
                else:
                    print(f"serving on {address}", flush=True)

        threading.Thread(target=_announce, daemon=True).start()
        with supervise.use_supervision(_supervision_policy(args)):
            service.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


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
    from repro import storage

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


def _workers_arg(value: str) -> int:
    # Delegate to the engine's own validation so the CLI can't drift
    # from what ParallelRunner accepts; argparse needs its error type.
    try:
        resolve_workers(int(value))
    except EngineError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from 'Exploiting Machine Learning "
        "to Subvert Your Spam Filter' (Nelson et al., 2008).",
        epilog="Beyond the paper artifacts: 'repro list-scenarios' prints "
        "the declarative scenario registry and 'repro run-scenario <name> "
        "[--set key=value ...]' executes any registered scenario.",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=sorted(ARTIFACTS) + ["all"],
        help="which paper artifacts to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="small = 1/10-scale (default, ~minutes); paper = Table 1 sizes",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="worker processes for the experiment engine "
        "(default 1 = sequential, 0 = one per CPU; results are "
        "identical at any value)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for .txt artifacts and .json records",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Scenario subcommands dispatch before artifact parsing: they have
    # their own grammar (a scenario name is not an artifact choice).
    if argv and argv[0] == "list-scenarios":
        return _main_list_scenarios()
    if argv and argv[0] == "run-scenario":
        return _main_run_scenario(argv[1:])
    if argv and argv[0] == "replicate":
        return _main_replicate(argv[1:])
    if argv and argv[0] == "serve":
        return _main_serve(argv[1:])
    if argv and argv[0] == "gc":
        return _main_gc(argv[1:])
    args = build_parser().parse_args(argv)
    names = sorted(ARTIFACTS) if "all" in args.artifacts else list(dict.fromkeys(args.artifacts))
    try:
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
        for name in names:
            runner = ARTIFACTS[name]
            print(f"=== {name} (scale={args.scale}, seed={args.seed}) ===")
            _, text, record = runner(args.scale, args.seed, args.workers)
            print(text)
            print()
            if args.out is not None:
                (args.out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
                if record is not None:
                    save_record(record, args.out / f"{name}.json")
    except ReproError as exc:
        # Engine failures (worker crashes past the retry budget, map
        # deadlines) and experiment errors alike: one diagnostic line
        # and a nonzero exit, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
