"""The layer-neutral pieces every experiment shares.

* :mod:`repro.experiments.params` — Table 1 parameters,
* :mod:`repro.experiments.metrics` — three-way confusion accounting,
* :mod:`repro.experiments.results` — serializable result records,
* :mod:`repro.experiments.attack_data` — attack batches as training
  messages,
* :mod:`repro.experiments.reporting` — the shared ASCII table layout,
  Table 1 and pooled multi-seed records.

The experiments themselves — each one's config, result, workers,
protocol and renderer — are one module each in :mod:`repro.scenarios`
(:mod:`repro.scenarios.dictionary_exp` for Figure 1 and its
siblings), run by name through ``run_scenario("figure1-dictionary")``
or ``python -m repro run-scenario figure1-dictionary``.
"""
