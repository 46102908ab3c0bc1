#!/usr/bin/env python3
"""The Section 2.1 deployment loop, played out over eight weeks.

An organization retrains its filter weekly on all received mail.  In
week 4 a spammer starts mailing a dozen dictionary-attack emails per
week.  We run the loop twice — undefended, then with a RONI gate that
is recalibrated each week on previously accepted mail — and print the
filter's held-out accuracy week by week.

Run:  python examples/retraining_simulation.py
"""

from __future__ import annotations

import os

from repro.experiments.reporting import format_table
from repro.stream import StreamRunner, StreamSpec


# REPRO_EXAMPLE_SCALE=tiny shrinks the demo for the smoke tests in
# tests/test_examples.py; the output has the same shape either way.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "tiny"


def run(defense: str):
    spec = StreamSpec(
        ticks=4 if TINY else 8,
        ham_per_tick=25 if TINY else 60,
        spam_per_tick=25 if TINY else 60,
        attack_start_tick=2 if TINY else 4,
        attack_per_tick=8 if TINY else 12,
        test_size=80 if TINY else 200,
        defense=defense,
        seed=99,
    )
    return StreamRunner(spec).run()


def main() -> None:
    undefended = run("none")
    defended = run("roni")

    rows = []
    for u_week, d_week in zip(undefended.ticks, defended.ticks):
        rows.append(
            [
                u_week.tick,
                u_week.attack_sent,
                f"{u_week.confusion.ham_misclassified_rate:.0%}",
                f"{d_week.confusion.ham_misclassified_rate:.0%}",
                f"{d_week.attack_rejected}/{d_week.attack_sent}",
                d_week.legitimate_rejected,
            ]
        )
    start = undefended.spec.attack_start_tick
    print(f"weekly retraining under a dictionary attack (attack starts week {start}):\n")
    print(
        format_table(
            [
                "week",
                "attack emails sent",
                "ham lost (no defense)",
                "ham lost (RONI)",
                "attack rejected (RONI)",
                "legit rejected (RONI)",
            ],
            rows,
        )
    )
    print(
        f"\nafter week {undefended.spec.ticks}: undefended filter loses "
        f"{undefended.final_ham_misclassification():.0%} of ham; "
        f"RONI-gated filter loses {defended.final_ham_misclassification():.0%}."
        "\nThe attack compounds across retrains unless each batch is screened —"
        "\nexactly why the paper frames RONI as a training-pipeline defense."
    )


if __name__ == "__main__":
    main()
