"""E-F3 — Figure 3: focused attack vs number of attack emails.

Paper (Section 4.3): p = 0.5 fixed; with 100 attack emails on a
5,000-message inbox (~2% control) the target is misclassified 32% of
the time, rising steeply with attack size.
"""

from __future__ import annotations

from repro.experiments.paper_targets import FIGURE3_CLAIMS
from repro.scenarios import run_scenario
from repro.scenarios.focused_exp import FocusedExperimentConfig, render_focused_size_result

_SMALL = FocusedExperimentConfig(
    inbox_size=1_000,
    n_targets=10,
    repetitions=2,
    corpus_ham=700,
    corpus_spam=700,
    size_sweep_fractions=(0.0, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10),
    seed=3,
)


def _config(scale: str) -> FocusedExperimentConfig:
    return FocusedExperimentConfig.paper_scale(seed=3) if scale == "paper" else _SMALL


def bench_figure3_focused_count(benchmark, artifacts, scale):
    config = _config(scale)
    result = benchmark.pedantic(
        run_scenario, args=("figure3-focused-size",), kwargs={"config": config},
        rounds=1, iterations=1,
    ).result

    rates = [point.ham_misclassified_rate for point in result.points]
    assert rates[0] < 0.1, "clean baseline"
    for earlier, later in zip(rates, rates[1:]):
        assert later >= earlier - 0.05, "monotone in attack size"
    assert rates[-1] > 0.5, "large attacks filter most targets"

    claims = "\n".join(f"  [{c.artifact}] {c.claim} (paper: {c.paper_value})" for c in FIGURE3_CLAIMS)
    artifacts.add(
        "figure3-focused-count",
        f"Figure 3 (scale={scale}: inbox={config.inbox_size}, p=0.5, "
        f"targets={config.n_targets}x{config.repetitions})\n\n"
        + render_focused_size_result(result)
        + "\n\npaper claims checked:\n"
        + claims,
    )
