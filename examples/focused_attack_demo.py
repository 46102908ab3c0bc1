#!/usr/bin/env python3
"""The Section 3.3 focused attack: sabotaging a competitor's bid.

Scenario (from the paper's introduction): a malicious contractor wants
to stop the victim from *receiving* a competitor's bid email.  The
attacker knows the bid's likely vocabulary — company names, product
terms, the usual bid template — and mails spam containing those words.
After the victim's filter retrains, the real bid arrives... and is
filed as spam.

The demo shows the attack at several knowledge levels and renders the
paper's Figure 4 panel (per-token score shifts) for the target.

Run:  python examples/focused_attack_demo.py
"""

from __future__ import annotations

import os

from repro import SpamFilter, TrecStyleCorpus
from repro.analysis.token_shift import token_shift_analysis
from repro.attacks import FocusedAttack
from repro.corpus.dataset import train_grouped
from repro.rng import SeedSpawner


# REPRO_EXAMPLE_SCALE=tiny shrinks the demo for the smoke tests in
# tests/test_examples.py; the output has the same shape either way.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "tiny"
CORPUS_SIZE, INBOX_SIZE, ATTACK_COUNT = (250, 300, 18) if TINY else (700, 1_000, 60)


def main() -> None:
    spawner = SeedSpawner(1337).spawn("focused-demo")
    corpus = TrecStyleCorpus.generate(n_ham=CORPUS_SIZE, n_spam=CORPUS_SIZE, seed=1337)
    inbox = corpus.dataset.sample_inbox(INBOX_SIZE, 0.5, spawner.rng("inbox"))

    # The bid email the attacker wants buried: a ham message the victim
    # has NOT yet received (it is outside the training inbox).
    inbox_ids = {m.msgid for m in inbox}
    bid = next(m for m in corpus.dataset.ham if m.msgid not in inbox_ids)
    print(f"target bid email: {bid.msgid}")
    print(f"  subject: {bid.email.subject}")
    print(f"  body tokens: {len(bid.tokens())}")

    spam_filter = SpamFilter()
    train_grouped(spam_filter.classifier, inbox)
    clean = spam_filter.classify_tokens(bid.tokens())
    print(f"\nbefore the attack the bid is delivered: score={clean.score:.4f} "
          f"label={clean.label}")

    header_pool = [m.email for m in inbox.spam]
    attack_count = ATTACK_COUNT  # 6% of the inbox — the paper's 300-of-5,000 ratio

    print(f"\nattacker sends {attack_count} attack emails (headers stolen from real spam):")
    for guess_probability in (0.1, 0.3, 0.5, 0.9):
        attack = FocusedAttack(
            bid.email,
            guess_probability=guess_probability,
            header_pool=header_pool,
        )
        batch = attack.generate(attack_count, spawner.rng(f"attack-p{guess_probability}"))
        batch.train_into(spam_filter.classifier)
        verdict = spam_filter.classify_tokens(bid.tokens())
        batch.untrain_from(spam_filter.classifier)
        knowledge = attack.draw_knowledge(spawner.rng(f"attack-p{guess_probability}"))
        print(
            f"  knows {guess_probability:3.0%} of tokens "
            f"(guessed {len(knowledge.guessed_tokens):3d}): "
            f"bid scores {verdict.score:.4f} -> {verdict.label}"
        )

    # Figure 4 panel for the p=0.5 attack.
    attack = FocusedAttack(bid.email, guess_probability=0.5, header_pool=header_pool)
    batch = attack.generate(attack_count, spawner.rng("figure4"))
    report = token_shift_analysis(spam_filter.classifier, bid.email, batch)
    print(f"\nper-token shifts under the p=0.5 attack "
          f"(mean included delta {report.mean_delta(True):+.3f}, "
          f"excluded {report.mean_delta(False):+.3f}):\n")
    print(report.render())
    print(
        "\nOther mail is barely disturbed: the attack only trains tokens the"
        "\nbid uses, so this is a surgical denial of service on one message."
    )


if __name__ == "__main__":
    main()
