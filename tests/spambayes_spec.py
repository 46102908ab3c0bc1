"""A formula oracle for the SpamBayes learner (Section 2.3, Eqs. 2-4).

Per-token (spam, ham) message counts in two ``Counter`` objects, the
global ``nspam``/``nham``, and the paper's three formulas written out
once: Robinson's smoothed f(w), the δ(E) selection and Fisher's
chi-square combining.  It shares no code with the classifier;
it imports only the options bundle and ``chi2.fisher_combine``, which
``tests/test_chi2.py`` checks on its own.  Tests hold the classifier to
it with ``==``, never ``approx``.

Where it departs from upstream SpamBayes ``classifier.py`` (Tim Peters
et al.), it departs as the classifier under test does:

* no HAMBIAS/SPAMBIAS: upstream once boosted ham counts by 2.0 (Graham's
  choice); the chi-squared classifier the paper attacks counts every
  message once;
* no [0.01, 0.99] MIN/MAX_SPAMPROB clamp: that is Graham's rule, not
  the chi-squared classifier's;
* a token never trained scores the prior ``x`` (``unknown_word_prob``),
  and δ(E) ties break on token text, strongest first; upstream sorts
  ``(distance, prob, word)`` ascending and keeps the tail.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.spambayes.chi2 import fisher_combine
from repro.spambayes.options import DEFAULT_OPTIONS, ClassifierOptions


class SpecClassifier:
    """Counts plus formulas; no caches, tables or validation."""

    def __init__(self, options: ClassifierOptions = DEFAULT_OPTIONS) -> None:
        self.options = options
        self.spamcount: Counter = Counter()
        self.hamcount: Counter = Counter()
        self.nspam = 0
        self.nham = 0

    def learn(self, tokens: Iterable[str], is_spam: bool, count: int = 1) -> None:
        """Train ``count`` copies of one message (duplicates collapse)."""
        counts = self.spamcount if is_spam else self.hamcount
        for token in set(tokens):
            counts[token] += count
        if is_spam:
            self.nspam += count
        else:
            self.nham += count

    def unlearn(self, tokens: Iterable[str], is_spam: bool, count: int = 1) -> None:
        self.learn(tokens, is_spam, -count)

    def counts(self) -> dict[str, tuple[int, int]]:
        """``{token: (spamcount, hamcount)}`` for every token with a count."""
        return {t: (self.spamcount[t], self.hamcount[t]) for t in self.spamcount | self.hamcount}

    def spam_prob(self, token: str) -> float:
        """f(w) = (s·x + n·PS(w)) / (s + n) of Eq. 2."""
        x = self.options.unknown_word_prob
        s = self.options.unknown_word_strength
        spam, ham = self.spamcount[token], self.hamcount[token]
        n = spam + ham
        if n == 0:
            return x
        spam_ratio = spam / self.nspam if self.nspam else 0.0
        ham_ratio = ham / self.nham if self.nham else 0.0
        return (s * x + n * (spam_ratio / (spam_ratio + ham_ratio))) / (s + n)

    def significant(self, tokens: Iterable[str]) -> list[tuple[str, float]]:
        """δ(E): at most ``max_discriminators`` ``(token, f(w))`` pairs
        with ``|f(w) - 0.5| >= minimum_prob_strength``, strongest first."""
        probs = ((token, self.spam_prob(token)) for token in set(tokens))
        ranked = sorted((-abs(p - 0.5), t, p) for t, p in probs)
        minimum = self.options.minimum_prob_strength
        kept = [(t, p) for negated, t, p in ranked if -negated >= minimum]
        return kept[: self.options.max_discriminators]

    def score(self, tokens: Iterable[str]) -> float:
        """I(E) = (1 + H(E) - S(E)) / 2 of Eqs. 3-4 (0.5 when δ(E) is empty)."""
        probs = [p for _, p in self.significant(tokens)]
        h = fisher_combine(probs)
        s = fisher_combine([1.0 - p for p in probs])
        return (1.0 + h - s) / 2.0
