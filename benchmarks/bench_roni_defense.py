"""E-R1 — Section 5.1: the RONI defense numbers.

Paper: RONI identifies 100% of dictionary attack emails with zero
false positives; every attack email costs >= 6.8 ham-as-ham messages
on the 50-message validation set, every non-attack spam <= 4.4.
"""

from __future__ import annotations

from repro.experiments.paper_targets import RONI_CLAIMS
from repro.scenarios import run_scenario
from repro.scenarios.roni_exp import RoniExperimentConfig, render_roni_result

_SMALL = RoniExperimentConfig(
    pool_size=400,
    n_nonattack_spam=60,
    repetitions_per_variant=6,
    corpus_ham=400,
    corpus_spam=400,
    seed=6,
)

_PAPER = RoniExperimentConfig(
    pool_size=1_000,
    n_nonattack_spam=120,
    repetitions_per_variant=15,
    corpus_ham=1_200,
    corpus_spam=1_200,
    seed=6,
)


def bench_roni_defense(benchmark, artifacts, scale):
    config = _PAPER if scale == "paper" else _SMALL
    result = benchmark.pedantic(
        run_scenario, args=("roni-defense",), kwargs={"config": config},
        rounds=1, iterations=1,
    ).result

    threshold = config.roni.ham_as_ham_threshold
    assert result.separable, "attack/non-attack impact distributions separable"
    assert result.detection_rate(threshold) == 1.0, "100% detection"
    assert result.false_positive_rate(threshold) == 0.0, "0% false positives"

    claims = "\n".join(f"  [{c.artifact}] {c.claim} (paper: {c.paper_value})" for c in RONI_CLAIMS)
    artifacts.add(
        "roni-defense",
        f"Section 5.1 RONI (scale={scale}: pool={config.pool_size}, "
        f"{config.repetitions_per_variant} reps x {len(config.variants)} variants, "
        f"{config.n_nonattack_spam} non-attack spam)\n\n"
        + render_roni_result(result)
        + "\n\npaper claims checked:\n"
        + claims,
    )
