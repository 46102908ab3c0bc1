"""The paper's experimental protocol (Section 4) and defenses
evaluation (Section 5): one definition module per paper artifact.

* :mod:`repro.experiments.params` — Table 1 parameters,
* :mod:`repro.experiments.dictionary_exp` — Figure 1,
* :mod:`repro.experiments.focused_exp` — Figures 2 and 3 (and the
  Figure 4 token-shift data via :mod:`repro.analysis.token_shift`),
* :mod:`repro.experiments.roni_exp` — the Section 5.1 RONI numbers,
* :mod:`repro.experiments.threshold_exp` — Figure 5,

a beyond-the-paper experiment:

* :mod:`repro.experiments.goodword_exp` — Lowd & Meek evasion costs
  (the Exploratory/Integrity quadrant of the Section 3.1 taxonomy),

plus shared machinery:

* :mod:`repro.experiments.metrics` — three-way confusion accounting,
* :mod:`repro.experiments.results` — serializable result records,
* :mod:`repro.experiments.reporting` — ASCII rendering of results,
* :mod:`repro.experiments.paper_targets` — the paper's reported values
  for shape comparison.

Each experiment module holds the experiment's config and result
dataclasses and its picklable fan-out workers.  Running one is the
registered scenario's job: ``run_scenario("figure1-dictionary",
config=...)`` in :mod:`repro.scenarios`, or ``python -m repro
run-scenario figure1-dictionary`` from a shell.  The config defaults
are laptop-scale; ``paper_scale()`` (``--scale paper``) gives the
full Table 1 sizes.  Every config accepts ``workers`` to fan its
independent units out across processes (results identical at any
worker count).  The K-fold attack sweep behind Figures 1 and 5 is
:mod:`repro.engine.sweep`.
"""
