"""Graham's original combining scheme ("A Plan for Spam", 2002).

Section 2.3 notes that SpamBayes' Robinson/Fisher scoring is "based on
ideas by Graham".  Early SpamBayes (and Paul Graham's own filter)
scored messages quite differently:

* token probability with asymmetric counting — ham occurrences count
  double (Graham's bias against false positives) — and hard clamping
  into [0.01, 0.99]; unknown tokens get 0.4;
* message score as a naive-Bayes odds product over only the **15**
  most extreme tokens:  ``P = prod(p) / (prod(p) + prod(1-p))``.

Having both combiners share one training state lets the ablation bench
ask a question the paper leaves open: is the attack an artifact of
Fisher-style combining, or does it break Graham-style filters just as
hard?  (It breaks both — the poisoned quantity is the per-token
statistic both schemes consume.)

:class:`GrahamClassifier` is a drop-in :class:`Classifier` subclass:
same learn/unlearn, same persistence, same interned-ID count columns,
different scoring.  It overrides exactly two hooks — the per-ID token
probability (:meth:`Classifier._prob_for_id`) and the combiner — so it
inherits the one pure scoring loop, the significance memo and
snapshot/restore unchanged.  It subclasses the pure kernel only: the
NumPy kernel computes f(w) vectorized and rejects subclasses that
override the probability hook.
"""

from __future__ import annotations

from repro.spambayes.chi2 import ln_product
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions
from repro.spambayes.token_table import TokenTable

__all__ = ["GRAHAM_OPTIONS", "GrahamClassifier"]

import math

GRAHAM_OPTIONS = ClassifierOptions(
    unknown_word_prob=0.4,
    unknown_word_strength=0.0,
    minimum_prob_strength=0.0,
    max_discriminators=15,
    ham_cutoff=0.15,
    spam_cutoff=0.90,
)
"""Graham's constants: 0.4 for unknowns, 15 discriminators, no
Robinson smoothing (the clamps do that job)."""

_CLAMP_LOW = 0.01
_CLAMP_HIGH = 0.99


class GrahamClassifier(Classifier):
    """The 2002-vintage scoring rule over the same token statistics."""

    def __init__(
        self,
        options: ClassifierOptions = GRAHAM_OPTIONS,
        table: TokenTable | None = None,
    ) -> None:
        super().__init__(options, table=table)

    def _prob_for_id(self, token_id: int) -> float:
        """Graham's token probability with double-counted ham.

        ``p = (b/nbad) / (b/nbad + 2g/ngood)`` clamped to
        ``[0.01, 0.99]``; tokens seen fewer than GRAHAM-minimum times
        overall (fewer than 1 here — Graham used 5 in production, but
        the paper-era SpamBayes port used 1) fall back to 0.4.
        """
        spamcount = self._spam[token_id]
        hamcount = self._ham[token_id]
        nspam = self._nspam
        nham = self._nham
        if (spamcount == 0 and hamcount == 0) or (nspam == 0 and nham == 0):
            return self.options.unknown_word_prob
        bad_ratio = spamcount / nspam if nspam else 0.0
        good_ratio = (2.0 * hamcount) / nham if nham else 0.0
        denominator = bad_ratio + good_ratio
        if denominator == 0.0:
            return self.options.unknown_word_prob
        prob = bad_ratio / denominator
        return max(_CLAMP_LOW, min(_CLAMP_HIGH, prob))

    @staticmethod
    def _combine(probs) -> float:
        """Naive-Bayes odds product, computed in log space.

        ``prod(p)`` underflows for long clue lists, so compare
        ``sum(ln p)`` against ``sum(ln (1-p))`` and convert back
        through the logistic form.
        """
        if not probs:
            return 0.5
        log_spam = ln_product(probs)
        log_ham = ln_product([1.0 - p for p in probs])
        # P = e^s / (e^s + e^h) = 1 / (1 + e^(h - s))
        difference = log_ham - log_spam
        if difference > 700.0:
            return 0.0
        if difference < -700.0:
            return 1.0
        return 1.0 / (1.0 + math.exp(difference))
