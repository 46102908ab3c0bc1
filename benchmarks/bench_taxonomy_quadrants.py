"""E-A3 — ablation: the other quadrants of the Section 3.1 taxonomy.

The paper's attacks are Causative Availability.  Its taxonomy and
related-work sections describe the neighbours; this bench runs our
implementations of them against the same trained filter so the four
quadrants can be compared on one table:

* Exploratory Integrity — good-word padding (Lowd & Meek / Wittel &
  Wu): spam slips through, training untouched;
* Causative Integrity — ham-labeled contamination (the paper's §2.2
  extension): future spam slips through;
* Causative Availability — the paper's usenet dictionary attack, for
  reference.
"""

from __future__ import annotations

from repro.attacks.dictionary import UsenetDictionaryAttack
from repro.attacks.goodword import OracleGoodWordAttack
from repro.attacks.hamlabeled import HamLabeledAttack
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE
from repro.corpus.dataset import train_grouped
from repro.engine.sweep import evaluate_dataset
from repro.experiments.reporting import format_table
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.filter import Label
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER


def _run(scale: str):
    if scale == "paper":
        corpus = TrecStyleCorpus.generate(
            n_ham=6_000, n_spam=6_000, profile=PAPER_PROFILE, seed=12
        )
        inbox_size, contamination = 10_000, 0.05
    else:
        corpus = TrecStyleCorpus.generate(
            n_ham=700, n_spam=700, profile=SMALL_PROFILE, seed=12
        )
        inbox_size, contamination = 1_000, 0.05
    spawner = SeedSpawner(12).spawn("taxonomy-quadrants")
    inbox = corpus.dataset.sample_inbox(inbox_size, 0.5, spawner.rng("inbox"))
    inbox_ids = {m.msgid for m in inbox}
    held_out = [m for m in corpus.dataset if m.msgid not in inbox_ids][:400]
    test_spam = [m for m in held_out if m.is_spam][:100]

    classifier = Classifier()
    train_grouped(classifier, inbox)
    clean = evaluate_dataset(classifier, held_out)
    attack_count = round(inbox_size * contamination / (1 - contamination))

    rows = [[
        "(clean baseline)", "-",
        f"{clean.ham_misclassified_rate:.1%}", f"{clean.spam_as_spam_rate:.1%}",
    ]]

    # Causative Availability: the paper's usenet dictionary attack.
    dictionary = UsenetDictionaryAttack.from_vocabulary(corpus.vocabulary)
    batch = dictionary.generate(attack_count, spawner.rng("dict"))
    batch.train_into(classifier)
    poisoned = evaluate_dataset(classifier, held_out)
    rows.append([
        "dictionary (paper)", dictionary.taxonomy.describe(),
        f"{poisoned.ham_misclassified_rate:.1%}", f"{poisoned.spam_as_spam_rate:.1%}",
    ])
    batch.untrain_from(classifier)

    # Causative Integrity: ham-labeled contamination (§2.2 extension).
    whitewash = HamLabeledAttack.from_vocabulary(corpus.vocabulary)
    ham_batch = whitewash.generate(attack_count, spawner.rng("white"))
    ham_batch.train_into(classifier)
    whitewashed = evaluate_dataset(classifier, held_out)
    rows.append([
        "ham-labeled (§2.2 ext.)", whitewash.taxonomy.describe(),
        f"{whitewashed.ham_misclassified_rate:.1%}", f"{whitewashed.spam_as_spam_rate:.1%}",
    ])
    ham_batch.untrain_from(classifier)

    # Exploratory Integrity: good-word padding against the clean filter.
    oracle = OracleGoodWordAttack(
        classifier, corpus.vocabulary.core[:2_000] + corpus.vocabulary.ham_topic
    )
    budget = 100
    evaded = 0
    for message in test_spam:
        padded = oracle.pad(message.email, budget).padded
        score = classifier.score(DEFAULT_TOKENIZER.tokenize(padded))
        if score <= classifier.options.spam_cutoff:
            evaded += 1
    rows.append([
        f"good-word x{budget} (L&M)", oracle.taxonomy.describe(),
        f"{clean.ham_misclassified_rate:.1%}",
        f"{(len(test_spam) - evaded) / len(test_spam):.1%}",
    ])
    return rows, clean, poisoned, whitewashed, evaded, len(test_spam)


def bench_taxonomy_quadrants(benchmark, artifacts, scale):
    rows, clean, poisoned, whitewashed, evaded, n_spam = benchmark.pedantic(
        _run, args=(scale,), rounds=1, iterations=1
    )

    # Quadrant signatures: Availability hurts ham, Integrity hurts spam
    # detection, Exploratory leaves training untouched by construction.
    assert poisoned.ham_misclassified_rate > clean.ham_misclassified_rate + 0.3
    assert whitewashed.spam_as_spam_rate < clean.spam_as_spam_rate
    assert whitewashed.ham_misclassified_rate <= clean.ham_misclassified_rate + 0.02
    assert evaded > 0, "good words must slip some spam through"

    table = format_table(
        ["attack", "taxonomy (Sec 3.1)", "ham lost (availability)", "spam caught (integrity)"],
        rows,
    )
    artifacts.add(
        "taxonomy-quadrants",
        f"E-A3 taxonomy quadrants (scale={scale}; 5% contamination where causative; "
        f"good words evaded {evaded}/{n_spam} spam)\n\n{table}"
        + "\n\nreading: each quadrant of the Section 3.1 taxonomy damages a different"
        + "\nmetric — Availability attacks destroy ham delivery, Integrity attacks"
        + "\n(whether Causative ham-labeled training or Exploratory good-word padding)"
        + "\nerode spam catching, confirming the paper's §2.2 conjecture in code.",
    )
