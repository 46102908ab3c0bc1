#!/usr/bin/env python3
"""Comparing the paper's two defenses against the same attack.

Both defenses face a usenet-dictionary attack at 5% control of the
training set:

* RONI (Section 5.1) gates what enters training — it removes the
  attack entirely but needs per-message measurement at retrain time;
* the dynamic threshold defense (Section 5.2) trains on everything and
  moves the decision boundaries — cheap, saves the ham, but floods the
  unsure folder with spam.

Run:  python examples/defense_comparison.py
"""

from __future__ import annotations

import os

from repro import SpamFilter, TrecStyleCorpus
from repro.attacks import UsenetDictionaryAttack
from repro.corpus.dataset import Dataset, train_grouped
from repro.defenses import DynamicThresholdConfig, DynamicThresholdDefense, RoniDefense
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.engine.sweep import attack_message_count, evaluate_dataset
from repro.experiments.reporting import format_table
from repro.rng import SeedSpawner


# REPRO_EXAMPLE_SCALE=tiny shrinks the demo for the smoke tests in
# tests/test_examples.py; the output has the same shape either way.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "tiny"
CORPUS_SIZE, INBOX_SIZE, TEST_SIZE = (250, 300, 100) if TINY else (700, 1_000, 300)


def main() -> None:
    spawner = SeedSpawner(2024).spawn("defense-comparison")
    corpus = TrecStyleCorpus.generate(n_ham=CORPUS_SIZE, n_spam=CORPUS_SIZE, seed=2024)
    inbox = corpus.dataset.sample_inbox(INBOX_SIZE, 0.5, spawner.rng("inbox"))
    inbox_ids = {m.msgid for m in inbox}
    test = [m for m in corpus.dataset if m.msgid not in inbox_ids][:TEST_SIZE]

    attack = UsenetDictionaryAttack.from_vocabulary(corpus.vocabulary)
    count = attack_message_count(len(inbox), 0.05)
    batch = attack.generate(count, spawner.rng("attack"))
    attack_messages = attack_messages_as_dataset(batch)
    print(f"attack: {count} usenet-dictionary emails (5% control, "
          f"{attack.dictionary_size} words each)\n")

    rows = []

    # Arm 0: no attack (reference).
    clean = SpamFilter()
    train_grouped(clean.classifier, inbox)
    rows.append(["clean filter (no attack)"] + _rates(clean.classifier, test))

    # Arm 1: undefended, poisoned.
    poisoned = clean.classifier.copy()
    batch.train_into(poisoned)
    rows.append(["no defense"] + _rates(poisoned, test))

    # Arm 2: RONI gates the retraining batch; only accepted mail trains.
    roni = RoniDefense(inbox, spawner.rng("roni"))
    gated = clean.classifier.copy()
    rejected = 0
    for message in attack_messages:
        if roni.judge(message).rejected:
            rejected += 1
        else:
            gated.learn(message.tokens(), message.is_spam)
    rows.append(
        [f"RONI (rejected {rejected}/{len(attack_messages)} attack msgs)"]
        + _rates(gated, test)
    )

    # Arm 3: dynamic thresholds fitted on the poisoned training set.
    poisoned_dataset = Dataset(inbox.messages + attack_messages, name="poisoned")
    for quantile in (0.05, 0.10):
        defense = DynamicThresholdDefense(config=DynamicThresholdConfig(quantile=quantile))
        defended, fit = defense.build_filter(
            poisoned_dataset, spawner.rng(f"threshold-{quantile}")
        )
        rows.append(
            [f"dynamic threshold q={quantile:.2f} (θ=({fit.ham_cutoff:.2f},{fit.spam_cutoff:.2f}))"]
            + _rates(defended.classifier, test)
        )

    print(
        format_table(
            ["configuration", "ham-as-spam", "ham-as-spam|unsure", "spam-as-spam", "spam-as-unsure"],
            rows,
        )
    )
    print(
        "\nreading (matches Section 5): RONI removes the attack outright;"
        "\nthe dynamic threshold saves ham from the spam folder but pushes"
        "\nmost spam into unsure — trading one nuisance for another."
    )


def _rates(classifier, test) -> list[str]:
    counts = evaluate_dataset(classifier, test)
    return [
        f"{counts.ham_as_spam_rate:.1%}",
        f"{counts.ham_misclassified_rate:.1%}",
        f"{counts.spam_as_spam_rate:.1%}",
        f"{counts.spam_as_unsure_rate:.1%}",
    ]


if __name__ == "__main__":
    main()
