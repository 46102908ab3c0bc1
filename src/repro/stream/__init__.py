"""Streaming mailstream engine: time-ordered attack scenarios.

The paper's deployment model (Section 2.1) is an organization
retraining SpamBayes periodically on arriving mail while an attacker
drips poison into the stream.  This package is that workload as an
engine-layer subsystem:

* :mod:`repro.stream.spec` — :class:`StreamSpec`, the declarative
  arrival schedule (per-tick ham/spam, attack ramps: constant /
  linear / burst, defense choice);
* :mod:`repro.stream.defenses` — pluggable per-tick defenses (none,
  RONI recalibrated on accepted mail, refitted dynamic thresholds);
* :mod:`repro.stream.runner` — :class:`StreamRunner`, which plays the
  stream against one incrementally trained classifier (bulk-kernel
  held-out evaluation every tick; an incrementally trained clean twin
  for the no-poison counterfactual) and emits per-tick
  :class:`StreamOutcome` records that serialize through the shared
  results layer.

Streams are registered scenarios (``repro list-scenarios`` shows the
``stream-*`` family), so ``repro run-scenario`` and ``repro
replicate`` (a replica per worker process) both apply.
"""

from repro.stream.defenses import GateDecision, TickDefense, build_tick_defense
from repro.stream.runner import (
    StreamOutcome,
    StreamResult,
    StreamRunner,
    run_stream_experiment,
)
from repro.stream.spec import DEFENSES, RAMPS, StreamSpec

__all__ = [
    "DEFENSES",
    "GateDecision",
    "RAMPS",
    "StreamOutcome",
    "StreamResult",
    "StreamRunner",
    "StreamSpec",
    "TickDefense",
    "build_tick_defense",
    "run_stream_experiment",
]
