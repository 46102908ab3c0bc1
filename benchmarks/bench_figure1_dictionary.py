"""E-F1 — Figure 1: dictionary attacks vs percent control.

Paper (Section 4.2): the optimal, Usenet and Aspell attacks on a
10,000-message inbox (50% spam, 10-fold CV).  Headline numbers: every
variant makes the filter unusable at 1% control (101 messages), the
Usenet attack misclassifies ~36%+ of ham outright, and the ordering
optimal > usenet > aspell holds everywhere.
"""

from __future__ import annotations

from repro.experiments.paper_targets import FIGURE1_CLAIMS
from repro.scenarios import run_scenario
from repro.scenarios.dictionary_exp import DictionaryExperimentConfig, render_dictionary_result

def _config(scale: str, seed: int = 1, workers: int = 1) -> DictionaryExperimentConfig:
    if scale == "paper":
        return DictionaryExperimentConfig.paper_scale(seed=seed, workers=workers)
    return DictionaryExperimentConfig(seed=seed, workers=workers)


def bench_figure1_dictionary_attacks(benchmark, artifacts, scale, root_seed, workers):
    config = _config(scale, root_seed, workers)
    result = benchmark.pedantic(
        run_scenario, args=("figure1-dictionary",), kwargs={"config": config},
        rounds=1, iterations=1,
    ).result

    sweeps = result.sweeps
    # Shape assertions: the claims of FIGURE1_CLAIMS.
    for index in range(1, len(config.attack_fractions)):
        optimal = sweeps["optimal"][index].confusion.ham_misclassified_rate
        usenet = sweeps["usenet"][index].confusion.ham_misclassified_rate
        aspell = sweeps["aspell"][index].confusion.ham_misclassified_rate
        assert optimal >= usenet - 0.03, "ordering: optimal >= usenet"
        assert usenet >= aspell - 0.03, "ordering: usenet >= aspell"
    one_percent = next(
        point for point in sweeps["usenet"] if abs(point.attack_fraction - 0.01) < 1e-9
    )
    assert one_percent.confusion.ham_misclassified_rate > 0.30, "unusable at 1%"

    claims = "\n".join(f"  [{c.artifact}] {c.claim} (paper: {c.paper_value})" for c in FIGURE1_CLAIMS)
    artifacts.add(
        "figure1-dictionary",
        f"Figure 1 (scale={scale}: inbox={config.inbox_size}, folds={config.folds})\n\n"
        + render_dictionary_result(result)
        + "\n\npaper claims checked:\n"
        + claims,
    )
