"""Three-way confusion accounting.

SpamBayes' *unsure* label breaks the usual binary confusion matrix:
Section 2.3 is explicit that evaluation "must also consider
spam-as-unsure and ham-as-unsure emails", and every figure in the
paper reports two curves — ham-as-spam (dashed) and
ham-as-(spam-or-unsure) (solid).  :class:`ConfusionCounts` is the
2 (true) × 3 (predicted) matrix with exactly those derived rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.spambayes.filter import Label

__all__ = ["ConfusionCounts"]


@dataclass
class ConfusionCounts:
    """Counts of (true class, predicted label) outcomes."""

    ham_as_ham: int = 0
    ham_as_unsure: int = 0
    ham_as_spam: int = 0
    spam_as_ham: int = 0
    spam_as_unsure: int = 0
    spam_as_spam: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, is_spam: bool, label: Label) -> None:
        """Tally one classified message."""
        if is_spam:
            if label is Label.HAM:
                self.spam_as_ham += 1
            elif label is Label.UNSURE:
                self.spam_as_unsure += 1
            else:
                self.spam_as_spam += 1
        else:
            if label is Label.HAM:
                self.ham_as_ham += 1
            elif label is Label.UNSURE:
                self.ham_as_unsure += 1
            else:
                self.ham_as_spam += 1

    def merge(self, other: "ConfusionCounts") -> None:
        """Accumulate ``other`` into this matrix (cross-fold pooling)."""
        self.ham_as_ham += other.ham_as_ham
        self.ham_as_unsure += other.ham_as_unsure
        self.ham_as_spam += other.ham_as_spam
        self.spam_as_ham += other.spam_as_ham
        self.spam_as_unsure += other.spam_as_unsure
        self.spam_as_spam += other.spam_as_spam

    @classmethod
    def pooled(cls, parts: Iterable["ConfusionCounts"]) -> "ConfusionCounts":
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------

    @property
    def ham_total(self) -> int:
        return self.ham_as_ham + self.ham_as_unsure + self.ham_as_spam

    @property
    def spam_total(self) -> int:
        return self.spam_as_ham + self.spam_as_unsure + self.spam_as_spam

    @property
    def total(self) -> int:
        return self.ham_total + self.spam_total

    # ------------------------------------------------------------------
    # The paper's rates
    # ------------------------------------------------------------------

    @property
    def ham_as_spam_rate(self) -> float:
        """False positives proper — the figures' dashed lines."""
        return self.ham_as_spam / self.ham_total if self.ham_total else 0.0

    @property
    def ham_misclassified_rate(self) -> float:
        """Ham as spam *or* unsure — the figures' solid lines."""
        if not self.ham_total:
            return 0.0
        return (self.ham_as_spam + self.ham_as_unsure) / self.ham_total

    @property
    def spam_as_spam_rate(self) -> float:
        return self.spam_as_spam / self.spam_total if self.spam_total else 0.0

    @property
    def spam_as_unsure_rate(self) -> float:
        return self.spam_as_unsure / self.spam_total if self.spam_total else 0.0

    @property
    def errors(self) -> int:
        """Messages not classified as their true class (unsure counts)."""
        return self.total - self.ham_as_ham - self.spam_as_spam

    def as_dict(self) -> dict[str, int]:
        return {
            "ham_as_ham": self.ham_as_ham,
            "ham_as_unsure": self.ham_as_unsure,
            "ham_as_spam": self.ham_as_spam,
            "spam_as_ham": self.spam_as_ham,
            "spam_as_unsure": self.spam_as_unsure,
            "spam_as_spam": self.spam_as_spam,
        }

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "ConfusionCounts":
        return cls(**{key: int(value) for key, value in data.items()})
