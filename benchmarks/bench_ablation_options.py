"""E-A7 — ablation: learner hyper-parameters vs attack damage.

DESIGN.md pins the paper's learner configuration (s = 0.45, 150
discriminators, θ = (0.15, 0.9)).  This ablation asks whether those
choices matter to the attack's success: smoothing strength ``s``
controls how fast a token's score moves per attack occurrence, and
``max_discriminators`` bounds how much poisoned evidence one message
can contribute.  The result quantifies the (non-)robustness knobs a
defender might hope to hide behind.
"""

from __future__ import annotations

from repro.attacks.dictionary import UsenetDictionaryAttack
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE
from repro.corpus.dataset import train_grouped
from repro.engine.sweep import attack_message_count, evaluate_dataset
from repro.experiments.reporting import format_table
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions


def _run(scale: str):
    if scale == "paper":
        corpus = TrecStyleCorpus.generate(
            n_ham=6_000, n_spam=6_000, profile=PAPER_PROFILE, seed=17
        )
        inbox_size = 10_000
    else:
        corpus = TrecStyleCorpus.generate(
            n_ham=700, n_spam=700, profile=SMALL_PROFILE, seed=17
        )
        inbox_size = 1_000
    spawner = SeedSpawner(17).spawn("ablation-options")
    inbox = corpus.dataset.sample_inbox(inbox_size, 0.5, spawner.rng("inbox"))
    inbox_ids = {m.msgid for m in inbox}
    held_out = [m for m in corpus.dataset if m.msgid not in inbox_ids][:300]
    attack = UsenetDictionaryAttack.from_vocabulary(corpus.vocabulary)
    count = attack_message_count(inbox_size, 0.01)

    variants = {
        "paper (s=0.45, 150 disc)": ClassifierOptions(),
        "strong prior (s=4.5)": ClassifierOptions(unknown_word_strength=4.5),
        "weak prior (s=0.045)": ClassifierOptions(unknown_word_strength=0.045),
        "27 discriminators": ClassifierOptions(max_discriminators=27),
        "unbounded discriminators": ClassifierOptions(max_discriminators=100_000),
        "wide unsure (θ=0.05/0.95)": ClassifierOptions(ham_cutoff=0.05, spam_cutoff=0.95),
    }
    rows = []
    damages = {}
    for name, options in variants.items():
        classifier = Classifier(options)
        train_grouped(classifier, inbox)
        clean = evaluate_dataset(classifier, held_out)
        attack.generate(count, spawner.rng(name)).train_into(classifier)
        attacked = evaluate_dataset(classifier, held_out)
        rows.append(
            [
                name,
                f"{clean.ham_misclassified_rate:.1%}",
                f"{clean.spam_as_spam_rate:.1%}",
                f"{attacked.ham_misclassified_rate:.1%}",
                f"{attacked.ham_as_spam_rate:.1%}",
            ]
        )
        damages[name] = attacked.ham_misclassified_rate
    return rows, damages


def bench_ablation_learner_options(benchmark, artifacts, scale):
    rows, damages = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)

    # No hyper-parameter setting saves the filter at 1% contamination —
    # the attack exploits the learning rule itself, not a tuning choice.
    for name, damage in damages.items():
        assert damage > 0.3, f"{name} unexpectedly resisted the attack"

    table = format_table(
        [
            "learner configuration",
            "clean ham lost",
            "clean spam caught",
            "@1% ham lost",
            "@1% ham-as-spam",
        ],
        rows,
    )
    artifacts.add(
        "ablation-learner-options",
        f"E-A7 learner hyper-parameter ablation (scale={scale}, usenet @1%)\n\n{table}"
        + "\n\nreading: smoothing strength, discriminator budget and threshold"
        + "\nplacement all fail to blunt a 1%-control dictionary attack — the"
        + "\nvulnerability is in Robinson's per-token statistics themselves,"
        + "\nwhich is why the paper reaches for training-time (RONI) and"
        + "\nthreshold-refit defenses instead of hyper-parameter hardening.",
    )
