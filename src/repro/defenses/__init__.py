"""Defenses against Causative attacks (Section 5 of the paper).

* :mod:`repro.defenses.roni` — Reject On Negative Impact: measure each
  candidate training email's incremental effect on a small validation
  set and refuse to train on messages with large negative impact.
* :mod:`repro.defenses.threshold` — the dynamic threshold defense:
  re-derive θ0/θ1 from held-out scores instead of the static 0.15/0.9,
  exploiting the rank-invariance of score-shifting attacks.
"""

from repro.defenses.roni import RoniConfig, RoniDefense, RoniMeasurement, RoniVerdict
from repro.defenses.threshold import (
    DynamicThresholdConfig,
    DynamicThresholdDefense,
    ThresholdFit,
)

__all__ = [
    "RoniConfig",
    "RoniDefense",
    "RoniMeasurement",
    "RoniVerdict",
    "DynamicThresholdConfig",
    "DynamicThresholdDefense",
    "ThresholdFit",
]
