"""``repro serve``: run the always-on filter service from a shell.

Usage::

    python -m repro serve --port 0
    python -m repro serve --socket /tmp/repro.sock --workers 2

The daemon announces its bound address on stdout (``serving on
HOST:PORT``, or the socket path) once it listens; ``--port 0`` callers
parse that line.  This module is all ``python -m repro serve`` imports
beyond :mod:`repro.commands`: the classifier, the storage layer and the
serve package, never the scenario stack.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.commands import add_supervision_args, supervision_policy, workers_arg
from repro.engine import supervise
from repro.errors import ReproError
from repro.serve.service import (
    DEFAULT_BATCH_WINDOW_MS,
    DEFAULT_MAX_BATCH,
    FilterService,
    ServeConfig,
)

__all__ = ["build_serve_parser"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the always-on filter service: a long-lived "
        "daemon scoring and training one live classifier over a "
        "length-prefixed JSON protocol (verbs: score, train, feedback, "
        "snapshot, stats, shutdown).  Concurrent score requests are "
        "coalesced into bulk kernel calls; training serializes through "
        "a single writer task.  The storage backend follows "
        "REPRO_STORE, exactly as library calls do.",
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
        help="upper bound, in milliseconds, on how long a micro-batch "
        "waits for more score requests; a batch closes as soon as "
        "arrivals stop and shares one bulk kernel call "
        "(default 2.0; 0 disables batching entirely)",
    )
    parser.add_argument(
        "--workers",
        type=workers_arg,
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
    add_supervision_args(parser)
    return parser


def _main_serve(argv: list[str]) -> int:
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
        with supervise.use_supervision(supervision_policy(args)):
            service.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
