#!/usr/bin/env python3
"""The Section 3.2 dictionary attack, end to end.

Scenario: a spammer wants the victim to abandon their spam filter, so
they mail word-soup messages (an entire dictionary per email).  The
organization's weekly retrain ingests them as spam — the contamination
assumption — and afterwards ordinary business mail starts landing in
the spam folder.

The demo trains a clean filter, poisons it at 1% control (the paper's
headline number), shows the damage, and then shows RONI (Section 5.1)
catching every attack message.

Run:  python examples/dictionary_attack_demo.py
"""

from __future__ import annotations

import os

from repro import SpamFilter, TrecStyleCorpus
from repro.attacks import AspellDictionaryAttack, UsenetDictionaryAttack
from repro.corpus.stats import coverage_report
from repro.defenses import RoniDefense
from repro.corpus.dataset import train_grouped
from repro.engine.sweep import attack_message_count, evaluate_dataset
from repro.rng import SeedSpawner


# REPRO_EXAMPLE_SCALE=tiny shrinks the demo for the smoke tests in
# tests/test_examples.py; the output has the same shape either way.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "tiny"
CORPUS_SIZE, INBOX_SIZE, TEST_SIZE = (250, 300, 100) if TINY else (700, 1_000, 300)


def ham_rates(classifier, messages) -> str:
    counts = evaluate_dataset(classifier, messages, ham_only=True)
    return (
        f"ham-as-spam {counts.ham_as_spam_rate:5.1%}   "
        f"ham-as-(spam|unsure) {counts.ham_misclassified_rate:5.1%}"
    )


def main() -> None:
    spawner = SeedSpawner(42).spawn("dictionary-demo")
    corpus = TrecStyleCorpus.generate(n_ham=CORPUS_SIZE, n_spam=CORPUS_SIZE, seed=42)
    inbox = corpus.dataset.sample_inbox(INBOX_SIZE, 0.5, spawner.rng("inbox"))
    inbox_ids = {m.msgid for m in inbox}
    test = [m for m in corpus.dataset if m.msgid not in inbox_ids][:TEST_SIZE]

    # --- the attacker's word sources -----------------------------------
    aspell = AspellDictionaryAttack.from_vocabulary(corpus.vocabulary)
    usenet = UsenetDictionaryAttack.from_vocabulary(corpus.vocabulary)
    print("attacker's word sources vs the victim's ham vocabulary:")
    for attack in (aspell, usenet):
        report = coverage_report(inbox, attack.name, attack.tokens)
        print(f"  {report.describe()}")

    # --- clean filter ---------------------------------------------------
    spam_filter = SpamFilter()
    train_grouped(spam_filter.classifier, inbox)
    print(f"\nclean filter on {len(test)} held-out messages:")
    print(f"  {ham_rates(spam_filter.classifier, test)}")

    # --- poison at 1% control -------------------------------------------
    count = attack_message_count(len(inbox), 0.01)
    print(f"\ninjecting {count} usenet-dictionary attack emails (1% control)...")
    batch = usenet.generate(count, spawner.rng("attack"))
    poisoned = spam_filter.classifier.copy()
    batch.train_into(poisoned)
    print(f"  {ham_rates(poisoned, test)}")
    print("  -> the filter is unusable: nearly all ham is flagged.")

    # --- what one victim email sees --------------------------------------
    victim_ham = next(m for m in test if not m.is_spam)
    before = spam_filter.classifier.score(victim_ham.tokens())
    after = poisoned.score(victim_ham.tokens())
    print(f"\nexample ham {victim_ham.msgid!r}: score {before:.3f} -> {after:.3f}")

    # --- RONI to the rescue ----------------------------------------------
    print("\ncalibrating RONI on the trusted pool (T=20, V=50, 5 resamples)...")
    defense = RoniDefense(inbox, spawner.rng("roni"))
    attack_tokens = batch.groups[0].training_tokens
    attack_verdict = defense.judge_tokens(attack_tokens, is_spam=True)
    normal_spam = next(m for m in test if m.is_spam)
    normal_verdict = defense.judge(normal_spam)
    print(
        f"  attack email:  ham-as-ham impact "
        f"{attack_verdict.measurement.ham_as_ham_decrease:+6.2f}  -> "
        f"{'REJECTED' if attack_verdict.rejected else 'accepted'}"
    )
    print(
        f"  normal spam:   ham-as-ham impact "
        f"{normal_verdict.measurement.ham_as_ham_decrease:+6.2f}  -> "
        f"{'REJECTED' if normal_verdict.rejected else 'accepted'}"
    )
    print("\nwith RONI gating the retrain, the attack emails never enter training.")


if __name__ == "__main__":
    main()
