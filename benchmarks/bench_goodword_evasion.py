"""E-A4 — ablation: good-word evasion cost (Exploratory Integrity).

Quantifies the Section 6 contrast: Exploratory attacks need no
training access, but pay per message in added words.  The oracle
attacker (Lowd & Meek) should evade with far fewer words than the
blind common-word attacker (Wittel & Wu).
"""

from __future__ import annotations

from repro.analysis.plots import ascii_line_chart
from repro.experiments.reporting import format_table
from repro.scenarios import run_scenario
from repro.scenarios.goodword_exp import GoodWordExperimentConfig

_SMALL = GoodWordExperimentConfig(
    inbox_size=1_000, n_test_spam=50, corpus_ham=700, corpus_spam=800, seed=14
)

_PAPER = GoodWordExperimentConfig(
    inbox_size=5_000,
    n_test_spam=120,
    corpus_ham=3_000,
    corpus_spam=3_200,
    seed=14,
)


def bench_goodword_evasion_cost(benchmark, artifacts, scale):
    config = _PAPER if scale == "paper" else _SMALL
    if scale == "paper":
        from repro.corpus.vocabulary import PAPER_PROFILE
        config = GoodWordExperimentConfig(
            **{**config.__dict__, "profile": PAPER_PROFILE}
        )
    result = benchmark.pedantic(
        run_scenario, args=("goodword-evasion",), kwargs={"config": config},
        rounds=1, iterations=1,
    ).result

    oracle = dict(result.evasion["oracle (Lowd-Meek)"])
    blind = dict(result.evasion["common-word (blind)"])
    # Oracle access dominates at every budget; both are monotone.
    for budget in config.word_budgets:
        assert oracle[budget] >= blind[budget] - 0.02
    oracle_rates = [oracle[b] for b in config.word_budgets]
    assert oracle_rates == sorted(oracle_rates)
    assert oracle_rates[-1] > 0.8, "a well-informed evader gets most spam through"

    rows = [
        [budget, f"{blind[budget]:.0%}", f"{oracle[budget]:.0%}"]
        for budget in config.word_budgets
    ]
    table = format_table(["word budget", "blind evasion", "oracle evasion"], rows)
    chart = ascii_line_chart(
        {
            "oracle": [(b, oracle[b]) for b in config.word_budgets],
            "blind": [(b, blind[b]) for b in config.word_budgets],
        },
        title="Good-word attacks: evasion rate vs word budget",
        x_label="good words added per spam",
    )
    medians = "  ".join(
        f"{model}: {count if count is not None else '>budget'}"
        for model, count in result.median_words_to_evade.items()
    )
    artifacts.add(
        "goodword-evasion-cost",
        f"E-A4 good-word evasion cost (scale={scale}; "
        f"{config.n_test_spam} held-out spam)\n\n{table}\n\n{chart}"
        f"\n\nmedian words to evade: {medians}"
        + "\n\nreading (Section 6 contrast): Exploratory Integrity attacks trade"
        + "\ntraining access for a per-message word cost; oracle knowledge of the"
        + "\nfilter's scores slashes that cost (Lowd & Meek vs Wittel & Wu).",
    )
