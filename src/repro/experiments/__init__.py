"""The paper's experimental protocol (Section 4) and defenses
evaluation (Section 5), as runnable experiment drivers.

One module per paper artifact:

* :mod:`repro.experiments.params` — Table 1 parameters,
* :mod:`repro.experiments.dictionary_exp` — Figure 1,
* :mod:`repro.experiments.focused_exp` — Figures 2 and 3 (and the
  Figure 4 token-shift data via :mod:`repro.analysis.token_shift`),
* :mod:`repro.experiments.roni_exp` — the Section 5.1 RONI numbers,
* :mod:`repro.experiments.threshold_exp` — Figure 5,

a beyond-the-paper driver:

* :mod:`repro.experiments.goodword_exp` — Lowd & Meek evasion costs
  (the Exploratory/Integrity quadrant of the Section 3.1 taxonomy),

plus shared machinery:

* :mod:`repro.experiments.metrics` — three-way confusion accounting,
* :mod:`repro.experiments.crossval` — K-fold incremental attack
  sweeps (facade over the parallel :mod:`repro.engine`),
* :mod:`repro.experiments.results` — serializable result records,
* :mod:`repro.experiments.reporting` — ASCII rendering of results,
* :mod:`repro.experiments.paper_targets` — the paper's reported values
  for shape comparison.

All drivers take explicit size parameters with laptop-friendly
defaults; pass :func:`repro.experiments.params.paper_scale` configs to
run the full Table-1 sizes.  Every config accepts ``workers`` to fan
its independent units out across processes (results identical at any
worker count).

Since PR 3 each driver module is the experiment's *definition*
(config + result dataclasses + picklable fan-out workers) while the
orchestration lives in the declarative scenario layer
(:mod:`repro.scenarios`): ``run_*_experiment`` delegates to the
registered scenario through the generic
:func:`repro.scenarios.run_scenario` executor, bit-identically.
"""

from repro.experiments.metrics import ConfusionCounts
from repro.experiments.crossval import (
    AttackSweepPoint,
    attack_fraction_sweep,
)
from repro.experiments.dictionary_exp import (
    DictionaryExperimentConfig,
    DictionaryExperimentResult,
    run_dictionary_experiment,
)
from repro.experiments.focused_exp import (
    FocusedExperimentConfig,
    FocusedKnowledgeResult,
    FocusedSizeResult,
    run_focused_knowledge_experiment,
    run_focused_size_experiment,
)
from repro.experiments.goodword_exp import (
    GoodWordExperimentConfig,
    GoodWordExperimentResult,
    run_goodword_experiment,
)
from repro.experiments.roni_exp import (
    RoniExperimentConfig,
    RoniExperimentResult,
    run_roni_experiment,
)
from repro.experiments.threshold_exp import (
    ThresholdExperimentConfig,
    ThresholdExperimentResult,
    run_threshold_experiment,
)

__all__ = [
    "ConfusionCounts",
    "AttackSweepPoint",
    "attack_fraction_sweep",
    "GoodWordExperimentConfig",
    "GoodWordExperimentResult",
    "run_goodword_experiment",
    "DictionaryExperimentConfig",
    "DictionaryExperimentResult",
    "run_dictionary_experiment",
    "FocusedExperimentConfig",
    "FocusedKnowledgeResult",
    "FocusedSizeResult",
    "run_focused_knowledge_experiment",
    "run_focused_size_experiment",
    "RoniExperimentConfig",
    "RoniExperimentResult",
    "run_roni_experiment",
    "ThresholdExperimentConfig",
    "ThresholdExperimentResult",
    "run_threshold_experiment",
]
