"""The dynamic threshold defense (Section 5.2).

Distribution-shifting attacks raise the score of *everything* —
ham and spam alike.  Rankings, however, are largely invariant to such
shifts, so decision thresholds re-derived from the (possibly poisoned)
data can keep separating the classes where the static θ0 = 0.15,
θ1 = 0.9 fail.

Protocol, as in the paper: split the full training set in half; train
a filter ``F`` on one half; score every message of the other half
``V`` with ``F``; then choose thresholds through the utility

    g(t) = N_{S,<}(t) / (N_{S,<}(t) + N_{H,>}(t))

where ``N_{S,<}(t)`` counts spam in ``V`` scoring below ``t`` and
``N_{H,>}(t)`` counts ham scoring above.  ``g`` rises from 0 at t=0 to
1 at t=1; θ0 is placed where g reaches the lower quantile ``q`` (0.05
or 0.10) and θ1 where it reaches ``1 - q``.  The deployed filter is
trained on the full set with the fitted thresholds installed.

The fit runs on encoded token IDs over the caller's interning table:
grouped training, then one scoring row per distinct validation token
set (see :meth:`DynamicThresholdDefense.fit`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.corpus.dataset import Dataset, LabeledMessage, group_token_ids, train_grouped
from repro.errors import DefenseError
from repro.spambayes.classifier import Classifier
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

__all__ = ["DynamicThresholdConfig", "ThresholdFit", "DynamicThresholdDefense"]

# Token entries the fit scores in one kernel call: bounds the
# classifier's per-batch intermediates as a stream's trained history grows.
_SCORE_ENTRY_BUDGET = 1 << 16


@dataclass(frozen=True, slots=True)
class DynamicThresholdConfig:
    """Parameters of the threshold fit.

    ``quantile`` is the paper's g-target: 0.05 gives the wider unsure
    band ("Threshold-.05"), 0.10 the narrower ("Threshold-.10").
    """

    quantile: float = 0.05
    split_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 0.5:
            raise DefenseError(f"quantile must be in (0, 0.5), got {self.quantile}")
        if not 0.0 < self.split_fraction < 1.0:
            raise DefenseError(
                f"split_fraction must be in (0, 1), got {self.split_fraction}"
            )


@dataclass(frozen=True, slots=True)
class ThresholdFit:
    """Outcome of one threshold calibration."""

    ham_cutoff: float
    spam_cutoff: float
    quantile: float
    validation_size: int


def _utility_curve(ham_scores: list[float], spam_scores: list[float]):
    """Return ``g(t)`` over the pooled score values.

    Both inputs must be sorted.  ``g`` is evaluated *between* observed
    scores (at midpoints), which is where thresholds belong.
    """
    ham_scores = sorted(ham_scores)
    spam_scores = sorted(spam_scores)

    def g(threshold: float) -> float:
        spam_below = bisect_left(spam_scores, threshold)
        ham_above = len(ham_scores) - bisect_right(ham_scores, threshold)
        denominator = spam_below + ham_above
        if denominator == 0:
            # No boundary errors at all near t: treat as the midpoint of
            # the curve so the search keeps moving monotonically.
            return 0.5
        return spam_below / denominator

    return g


class DynamicThresholdDefense:
    """Fits θ0/θ1 from data and builds defended filters."""

    def __init__(
        self,
        config: DynamicThresholdConfig = DynamicThresholdConfig(),
        options: ClassifierOptions = DEFAULT_OPTIONS,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ) -> None:
        self.config = config
        self.options = options
        self.tokenizer = tokenizer

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit_from_scores(self, ham_scores: list[float], spam_scores: list[float]) -> ThresholdFit:
        """Choose thresholds from held-out validation scores."""
        if not ham_scores or not spam_scores:
            raise DefenseError("threshold fit needs both ham and spam validation scores")
        g = _utility_curve(ham_scores, spam_scores)
        # Candidate thresholds: midpoints between adjacent distinct
        # pooled scores, plus the extremes.
        pooled = sorted(set(ham_scores) | set(spam_scores))
        candidates = [0.0]
        candidates.extend(
            (a + b) / 2.0 for a, b in zip(pooled, pooled[1:])
        )
        candidates.append(1.0)
        q = self.config.quantile
        ham_cutoff = max(
            (t for t in candidates if g(t) <= q),
            default=candidates[0],
        )
        spam_cutoff = min(
            (t for t in candidates if g(t) >= 1.0 - q),
            default=candidates[-1],
        )
        if spam_cutoff < ham_cutoff:
            # Heavily overlapped score distributions can cross the two
            # quantile targets; collapse to a single boundary rather
            # than emit an invalid (θ0 > θ1) pair.
            midpoint = (spam_cutoff + ham_cutoff) / 2.0
            ham_cutoff = spam_cutoff = midpoint
        return ThresholdFit(
            ham_cutoff=ham_cutoff,
            spam_cutoff=spam_cutoff,
            quantile=q,
            validation_size=len(ham_scores) + len(spam_scores),
        )

    def fit(
        self, training: Dataset, rng: random.Random, table: TokenTable | None = None
    ) -> ThresholdFit:
        """Run the paper's split/train/score/fit pipeline on a dataset.

        ``training`` is the *full* (possibly poisoned) training set —
        attack messages ride along labeled as spam, exactly as they
        would in deployment.  ``table`` is the interning table the fit
        filter shares; pass the one ``training`` is already encoded
        against (a stream's or a sweep's): the fit then interns nothing
        and reuses the messages' cached ID arrays.  Omitted, the fit
        gets a private table and those caches are re-keyed to it.
        """
        half_f, half_v = training.split(self.config.split_fraction, rng)
        if not half_f.ham or not half_f.spam or not half_v.ham or not half_v.spam:
            raise DefenseError("both halves need ham and spam to fit thresholds")
        classifier = create_classifier(self.options, table=table)
        train_grouped(classifier, half_f, self.tokenizer)
        ham, spam = half_v.ham, half_v.spam
        scores = _score_distinct(classifier, ham + spam, self.tokenizer)
        return self.fit_from_scores(scores[: len(ham)], scores[len(ham) :])

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------


def _score_distinct(
    classifier: Classifier, messages: list[LabeledMessage], tokenizer: Tokenizer
) -> list[float]:
    """Score ``messages`` in order, each distinct (label, ID row) once.

    Rows are the groups of :func:`~repro.corpus.dataset.group_token_ids`.
    Attack mail shares one encoded row per group, so a poisoned half
    adds one row per attack group, not one dictionary-sized row per
    attack message.  The distinct rows go through ``score_many_ids`` in
    batches of about :data:`_SCORE_ENTRY_BUDGET` token entries, then the
    scores are expanded back to message order.  Validation tokens the fit
    filter never trained are zero-count IDs, which score exactly like
    the unseen tokens of string scoring (the prior, tie-broken by
    text), so the floats are the per-message :meth:`Classifier.score`.
    """
    groups, slots = group_token_ids(messages, classifier.table, tokenizer)
    scores: list[float] = []
    batch: list = []
    entries = 0
    for row, _, _ in groups:
        batch.append(row)
        entries += len(row)
        if entries >= _SCORE_ENTRY_BUDGET:
            scores.extend(classifier.score_many_ids(batch))
            batch, entries = [], 0
    if batch:
        scores.extend(classifier.score_many_ids(batch))
    return [scores[slot] for slot in slots]
