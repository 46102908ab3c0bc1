"""E-A5 — ablation: does ranking survive the attack?

The dynamic threshold defense's premise (Section 5.2) is that
score-shifting attacks ruin absolute scores but largely preserve the
ham/spam *ranking*.  This bench measures exactly that: held-out
ham/spam ROC-AUC of the same classifier before and after dictionary
contamination.  A large AUC drop would falsify the defense's premise;
a small one explains why re-fitted thresholds keep working.
"""

from __future__ import annotations

from repro.analysis.score_distributions import auc, score_histogram
from repro.attacks.dictionary import UsenetDictionaryAttack
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE
from repro.corpus.dataset import train_grouped
from repro.engine.sweep import attack_message_count
from repro.experiments.reporting import format_table
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier


def _run(scale: str):
    if scale == "paper":
        corpus = TrecStyleCorpus.generate(
            n_ham=6_000, n_spam=6_000, profile=PAPER_PROFILE, seed=15
        )
        inbox_size = 10_000
    else:
        corpus = TrecStyleCorpus.generate(
            n_ham=700, n_spam=700, profile=SMALL_PROFILE, seed=15
        )
        inbox_size = 1_000
    spawner = SeedSpawner(15).spawn("score-rankings")
    inbox = corpus.dataset.sample_inbox(inbox_size, 0.5, spawner.rng("inbox"))
    inbox_ids = {m.msgid for m in inbox}
    held_out = [m for m in corpus.dataset if m.msgid not in inbox_ids][:400]
    ham = [m for m in held_out if not m.is_spam]
    spam = [m for m in held_out if m.is_spam]

    classifier = Classifier()
    train_grouped(classifier, inbox)
    attack = UsenetDictionaryAttack.from_vocabulary(corpus.vocabulary)

    rows = []
    details = {}
    for fraction in (0.0, 0.01, 0.05, 0.10):
        count = attack_message_count(inbox_size, fraction)
        working = classifier.copy()
        if count:
            attack.generate(count, spawner.rng(f"a{fraction}")).train_into(working)
        ham_scores = [working.score(m.tokens()) for m in ham]
        spam_scores = [working.score(m.tokens()) for m in spam]
        area = auc(ham_scores, spam_scores)
        mean_ham = sum(ham_scores) / len(ham_scores)
        mean_spam = sum(spam_scores) / len(spam_scores)
        rows.append(
            [f"{fraction:.1%}", f"{mean_ham:.3f}", f"{mean_spam:.3f}", f"{area:.3f}"]
        )
        details[fraction] = (area, score_histogram(ham_scores, 10), score_histogram(spam_scores, 10))
    return rows, details


def bench_score_ranking_survival(benchmark, artifacts, scale):
    rows, details = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)

    clean_auc = details[0.0][0]
    attacked_auc = details[0.10][0]
    # Absolute ham scores explode, yet the ranking largely survives —
    # the dynamic threshold defense's premise.
    assert clean_auc > 0.95
    assert attacked_auc > 0.75
    assert float(rows[-1][1]) > float(rows[0][1]) + 0.3, "ham scores shifted up"

    table = format_table(
        ["attack fraction", "mean ham score", "mean spam score", "ham/spam ROC-AUC"],
        rows,
    )
    histogram_lines = []
    for fraction, (area, ham_hist, spam_hist) in details.items():
        histogram_lines.append(
            f"  f={fraction:.1%}: ham {ham_hist}  spam {spam_hist}"
        )
    artifacts.add(
        "score-ranking-survival",
        f"E-A5 ranking survival under dictionary attack (scale={scale})\n\n{table}\n\n"
        "held-out score histograms (10 bins over [0,1]):\n"
        + "\n".join(histogram_lines)
        + "\n\nreading: mean ham score is destroyed by the attack, but the ROC-AUC"
        + "\ndecays slowly — rankings survive shifts, which is the premise that"
        + "\nmakes the Section 5.2 dynamic threshold defense workable at all.",
    )
