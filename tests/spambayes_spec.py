"""A formula oracle for the SpamBayes learner (Section 2.3, Eqs. 2-4).

Per-token (spam, ham) message counts in two ``Counter`` objects, the
global ``nspam``/``nham``, and the paper's three formulas written out
once: Robinson's smoothed f(w), the δ(E) selection and Fisher's
chi-square combining (the frexp-guarded log-product and the even-dof
survival series, as SpamBayes ships them).  It shares no code with the
classifier; it imports only the options bundle.  Tests hold the
classifier to it with ``==``, never ``approx``.

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

import math
from collections import Counter
from typing import Iterable

from repro.spambayes.options import DEFAULT_OPTIONS, ClassifierOptions


def ln_product(values: list[float]) -> float:
    """``sum(ln v)``, the product kept in frexp form below 1e-200."""
    mantissa, exponent = 1.0, 0
    for value in values:
        if value <= 0.0:
            raise ValueError(f"ln_product requires positive values, got {value}")
        mantissa *= value
        if mantissa < 1e-200:
            mantissa, shift = math.frexp(mantissa)
            exponent += shift
    return math.log(mantissa) + exponent * math.log(2.0)


def chi2_survival(x2: float, degrees: int) -> float:
    """P[X >= x2] for X ~ chi^2(degrees), degrees even:
    ``exp(-m) * sum_{i<degrees/2} m^i / i!`` with ``m = x2 / 2``."""
    if x2 <= 0.0:
        return 1.0
    half = x2 / 2.0
    if half > 708.0:
        return 0.0
    term = math.exp(-half)
    total = term
    for i in range(1, degrees // 2):
        term *= half / i
        total += term
    return min(total, 1.0)


def fisher_combine(probs: list[float]) -> float:
    """Fisher's method: Q(-2 sum ln p, 2n); 1.0 carries no evidence."""
    if not probs:
        return 1.0
    return chi2_survival(-2.0 * ln_product(probs), 2 * len(probs))


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

    def spam_probs(self, tokens: Iterable[str]) -> list[float]:
        """f(w) for every token, one at a time."""
        return [self.spam_prob(token) for token in tokens]

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
