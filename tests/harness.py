"""Test harnesses: an in-thread filter service and an installed fault plan.

Both act on the library from outside, the way only the test suite
needs to: :func:`serve_in_thread` runs a :class:`FilterService` for the
duration of a block, and :func:`use_faults` installs a fault plan for
one.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator
from unittest import mock

from repro.engine import faults
from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.service import FilterService, ServeConfig
from repro.spambayes.classifier import Classifier


def use_faults(plan: "faults.FaultPlan | None"):
    """Install ``plan`` for the duration of the block (module-global, so
    a pool forked inside the block inherits it).  ``use_faults(None)``
    disables injection even when ``REPRO_FAULTS`` is exported: the
    clean reference of a differential test."""
    return mock.patch.object(faults, "_installed_plan", plan)


@contextlib.contextmanager
def serve_in_thread(
    config: ServeConfig, classifier: Classifier | None = None
) -> Iterator[FilterService]:
    """Run a service on a daemon thread for the duration of a block.

    Builds the (optional) supervised pool in the *calling* thread —
    before the serve thread exists, keeping the fork away from live
    threads — starts :meth:`FilterService.run` on a daemon thread,
    waits for the socket to be bound, and guarantees shutdown (and pool
    teardown) on exit however the block ends.
    """
    pool = None
    if config.workers >= 2:
        from repro.engine.runner import WorkerPool

        pool = WorkerPool(config.workers)
    service = FilterService(config, classifier=classifier, pool=pool)

    def _run_quietly() -> None:
        # run() records any failure in service.startup_error; the
        # thread excepthook would only add traceback noise on top.
        with contextlib.suppress(BaseException):
            service.run()

    thread = threading.Thread(target=_run_quietly, name="repro-serve", daemon=True)
    thread.start()
    service.ready.wait(timeout=30.0)
    try:
        if service.startup_error is not None:
            raise ServeError(
                f"filter service failed to start: "
                f"{protocol.one_line(service.startup_error)}"
            ) from service.startup_error
        yield service
    finally:
        service.stop()
        service.stopped.wait(timeout=30.0)
        thread.join(timeout=30.0)
        if pool is not None:
            pool.close()
