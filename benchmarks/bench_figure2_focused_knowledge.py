"""E-F2 — Figure 2: focused attack vs attacker knowledge.

Paper (Section 4.3): 5,000-message inbox, 300 attack emails, 20
targets; guessing 30% of the target's tokens already changes the
classification of 60% of targets, and p=0.9 sends ~90% to spam.
"""

from __future__ import annotations

from repro.experiments.paper_targets import FIGURE2_CLAIMS
from repro.scenarios import run_scenario
from repro.scenarios.focused_exp import (
    FocusedExperimentConfig,
    render_focused_knowledge_result,
)

_SMALL = FocusedExperimentConfig(
    inbox_size=1_000,
    n_targets=10,
    repetitions=2,
    attack_count=60,  # 6% of inbox = the paper's 300-of-5,000 proportion
    corpus_ham=700,
    corpus_spam=700,
    seed=2,
)


def _config(scale: str) -> FocusedExperimentConfig:
    return FocusedExperimentConfig.paper_scale(seed=2) if scale == "paper" else _SMALL


def bench_figure2_focused_knowledge(benchmark, artifacts, scale):
    config = _config(scale)
    result = benchmark.pedantic(
        run_scenario, args=("figure2-focused-knowledge",), kwargs={"config": config},
        rounds=1, iterations=1,
    ).result

    success = [result.attack_success_rate(p) for p in config.guess_probabilities]
    for earlier, later in zip(success, success[1:]):
        assert later >= earlier - 0.05, "success monotone in p"
    assert success[-1] > 0.7, "p=0.9 must be highly effective"
    assert result.attack_success_rate(0.3) > 0.3, "p=0.3 changes many targets"

    claims = "\n".join(f"  [{c.artifact}] {c.claim} (paper: {c.paper_value})" for c in FIGURE2_CLAIMS)
    artifacts.add(
        "figure2-focused-knowledge",
        f"Figure 2 (scale={scale}: inbox={config.inbox_size}, "
        f"attack={config.attack_count}, targets={config.n_targets}x{config.repetitions})\n\n"
        + render_focused_knowledge_result(result)
        + "\n\npaper claims checked:\n"
        + claims,
    )
