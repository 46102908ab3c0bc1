"""E-F4 — Figure 4: token score movement under the focused attack.

Paper (Section 4.3): three representative targets — one misclassified
as spam, one as unsure, one still ham — each shown as a before/after
scatter of token scores.  Tokens included in the attack jump toward
1.0; excluded tokens dip slightly.

We run the focused attack over a pool of candidate targets, pick one
representative per outcome, and render the three panels.
"""

from __future__ import annotations

from repro.analysis.token_shift import token_shift_analysis
from repro.attacks.focused import FocusedAttack
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE
from repro.corpus.dataset import train_grouped
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier


def _run(scale: str):
    if scale == "paper":
        corpus = TrecStyleCorpus.generate(
            n_ham=3_100, n_spam=3_100, profile=PAPER_PROFILE, seed=4
        )
        inbox_size, attack_count, candidates = 5_000, 300, 60
    else:
        corpus = TrecStyleCorpus.generate(
            n_ham=700, n_spam=700, profile=SMALL_PROFILE, seed=4
        )
        inbox_size, attack_count, candidates = 1_000, 60, 40
    spawner = SeedSpawner(4).spawn("figure4")
    inbox = corpus.dataset.sample_inbox(inbox_size, 0.5, spawner.rng("inbox"))
    classifier = Classifier()
    train_grouped(classifier, inbox)
    inbox_ids = {message.msgid for message in inbox}
    targets = [m for m in corpus.dataset.ham if m.msgid not in inbox_ids][:candidates]
    header_pool = [message.email for message in inbox.spam]
    reports = []
    rng = spawner.rng("attacks")
    for target in targets:
        email = target.email
        attack = FocusedAttack(email, guess_probability=0.5, header_pool=header_pool)
        batch = attack.generate(attack_count, rng)
        reports.append(token_shift_analysis(classifier, email, batch))
    return reports


def bench_figure4_token_shift(benchmark, artifacts, scale):
    reports = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)

    # The core Figure 4 observation must hold on every target.
    for report in reports:
        if report.included_shifts:
            assert report.mean_delta(included=True) > 0.0, "included tokens rise"
        if report.excluded_shifts:
            assert report.mean_delta(included=False) < 0.10, "excluded tokens do not rise much"

    # One representative panel per outcome, like the paper's three.
    panels = []
    for outcome in ("spam", "unsure", "ham"):
        match = next((r for r in reports if r.label_after.value == outcome), None)
        if match is not None:
            panels.append(match.render())
    by_outcome = {
        outcome: sum(1 for r in reports if r.label_after.value == outcome)
        for outcome in ("spam", "unsure", "ham")
    }
    artifacts.add(
        "figure4-token-shift",
        f"Figure 4 (scale={scale}; outcomes over {len(reports)} targets: {by_outcome})\n\n"
        + "\n\n".join(panels)
        + "\n\npaper claim: included tokens (x) jump toward 1.0, excluded (o) dip slightly;"
        + "\nthe outcome (spam/unsure/ham) depends on how much was guessed.",
    )
