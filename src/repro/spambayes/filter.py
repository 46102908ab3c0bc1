"""The three-way spam filter: tokenizer + classifier + thresholds.

:class:`SpamFilter` is the facade most code should use.  It owns a
:class:`Tokenizer` and a :class:`Classifier` and applies the θ0/θ1
thresholding of Section 2.3: a message with score ``I(E)`` is labeled

* ``ham``    when ``I(E) <= θ0``  (default 0.15),
* ``unsure`` when ``θ0 < I(E) <= θ1``,
* ``spam``   when ``I(E) > θ1``   (default 0.9).

The *unsure* band is central to the paper's threat model: flooding it
is almost as damaging to the victim as outright false positives
(Section 2.1), which is why every experiment reports both
"ham-as-spam" and "ham-as-(spam-or-unsure)".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.spambayes.classifier import Classifier, TokenScore
from repro.spambayes.message import Email
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

__all__ = ["Label", "ClassifiedMessage", "SpamFilter"]


class Label(enum.Enum):
    """The three SpamBayes verdicts."""

    HAM = "ham"
    UNSURE = "unsure"
    SPAM = "spam"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class ClassifiedMessage:
    """Outcome of classifying one message."""

    label: Label
    score: float
    evidence: tuple[TokenScore, ...] = ()


class SpamFilter:
    """End-to-end SpamBayes filter over :class:`Email` objects."""

    def __init__(
        self,
        options: ClassifierOptions = DEFAULT_OPTIONS,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        classifier: Classifier | None = None,
    ) -> None:
        self.tokenizer = tokenizer
        self.classifier = classifier if classifier is not None else Classifier(options)

    # ------------------------------------------------------------------
    # Options / thresholds
    # ------------------------------------------------------------------

    @property
    def options(self) -> ClassifierOptions:
        return self.classifier.options

    @property
    def ham_cutoff(self) -> float:
        return self.classifier.options.ham_cutoff

    @property
    def spam_cutoff(self) -> float:
        return self.classifier.options.spam_cutoff

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, email: Email, is_spam: bool) -> None:
        """Tokenize and learn one message."""
        self.classifier.learn(self.tokenizer.tokenize(email), is_spam)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def score(self, email: Email) -> float:
        """I(E) for ``email`` without thresholding."""
        return self.classifier.score(self.tokenizer.tokenize(email))

    def classify(self, email: Email, with_evidence: bool = False) -> ClassifiedMessage:
        """Classify ``email`` into ham/unsure/spam."""
        tokens = self.tokenizer.tokenize(email)
        if with_evidence:
            score, evidence = self.classifier.score_with_evidence(tokens)
            return ClassifiedMessage(self.label_for_score(score), score, tuple(evidence))
        score = self.classifier.score(tokens)
        return ClassifiedMessage(self.label_for_score(score), score)

    def label_for_score(self, score: float) -> Label:
        """Apply the θ0/θ1 thresholds to a raw score."""
        opts = self.classifier.options
        if score <= opts.ham_cutoff:
            return Label.HAM
        if score <= opts.spam_cutoff:
            return Label.UNSURE
        return Label.SPAM

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self) -> "SpamFilter":
        """Independent copy sharing the (stateless) tokenizer."""
        return SpamFilter(tokenizer=self.tokenizer, classifier=self.classifier.copy())

    def __repr__(self) -> str:
        return f"SpamFilter({self.classifier!r})"
