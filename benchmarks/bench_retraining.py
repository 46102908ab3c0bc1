"""E-A6 — ablation: the weekly retraining loop (Section 2.1 dynamics).

Plays the organization's weekly retrain over two months with a
dictionary attacker arriving mid-way, with and without a RONI gate.
The figure experiments show the end state; this shows the trajectory —
how fast the filter collapses, and that the defense holds week after
week with a weekly-recalibrated gate.
"""

from __future__ import annotations

from repro.analysis.plots import ascii_line_chart
from repro.experiments.reporting import format_table
from repro.stream import StreamRunner, StreamSpec


def _spec(scale: str, defense: str) -> StreamSpec:
    if scale == "paper":
        return StreamSpec(
            ticks=12,
            ham_per_tick=400,
            spam_per_tick=400,
            attack_start_tick=5,
            attack_per_tick=80,
            defense=defense,
            test_size=600,
            seed=16,
        )
    return StreamSpec(
        ticks=8,
        ham_per_tick=60,
        spam_per_tick=60,
        attack_start_tick=4,
        attack_per_tick=12,
        defense=defense,
        test_size=160,
        seed=16,
    )


def bench_retraining_dynamics(benchmark, artifacts, scale):
    def run_both():
        return (
            StreamRunner(_spec(scale, "none")).run(),
            StreamRunner(_spec(scale, "roni")).run(),
        )

    undefended, defended = benchmark.pedantic(run_both, rounds=1, iterations=1)

    attack_start = _spec(scale, "none").attack_start_tick
    # Before the attack both filters are healthy.
    assert undefended.outcome(attack_start - 1).confusion.ham_misclassified_rate < 0.1
    # After it, the undefended filter collapses and stays collapsed...
    assert undefended.final_ham_misclassification() > 0.8
    # ...while the RONI-gated one rejects the attack mail and stays healthy.
    assert defended.final_ham_misclassification() < 0.1
    for outcome in defended.ticks:
        if outcome.attack_sent:
            assert outcome.attack_rejected == outcome.attack_sent

    rows = [
        [
            u.tick,
            u.attack_sent,
            f"{u.confusion.ham_misclassified_rate:.0%}",
            f"{d.confusion.ham_misclassified_rate:.0%}",
            f"{d.attack_rejected}/{d.attack_sent}",
        ]
        for u, d in zip(undefended.ticks, defended.ticks)
    ]
    table = format_table(
        ["week", "attack sent", "ham lost (none)", "ham lost (roni)", "attack rejected"],
        rows,
    )
    chart = ascii_line_chart(
        {
            "no defense": [
                (t.tick, t.confusion.ham_misclassified_rate) for t in undefended.ticks
            ],
            "roni gate": [
                (t.tick, t.confusion.ham_misclassified_rate) for t in defended.ticks
            ],
        },
        title="Weekly retraining: held-out ham misclassification over time",
        x_label="week (attack starts week "
        f"{attack_start})",
    )
    artifacts.add(
        "retraining-dynamics",
        f"E-A6 weekly retraining dynamics (scale={scale})\n\n{table}\n\n{chart}"
        + "\n\nreading: contamination compounds across retrains — one poisoned"
        + "\nweek is enough to collapse the filter, and it never recovers without"
        + "\na gate, because the attack emails stay in the training history.",
    )
