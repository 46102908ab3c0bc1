"""The retained str-keyed classifier core (executable specification).

This is the PR-1 implementation of :class:`Classifier`, verbatim: a
``dict[str, WordInfo]`` object store, a string-keyed probability cache,
and a per-call significance memo in ``score_many``.  The interned
token-ID core in :mod:`repro.spambayes.classifier` replaced it on every
hot path, but the arithmetic contract is *bit-exactness*, and a claim
like that needs something to be exact against.

So this module stays for the differential suite
(``tests/test_token_table.py``), which runs both cores side by side on
randomized corpora and asserts identical scores, snapshots and
persistence round-trips.

Do not "optimize" this file; its value is that it does not change.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import TrainingError
from repro.spambayes.chi2 import fisher_combine
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.wordinfo import WordInfo

__all__ = ["ReferenceClassifier", "ReferenceSnapshot"]


class ReferenceSnapshot:
    """Copy-on-write checkpoint of a :class:`ReferenceClassifier`."""

    __slots__ = ("owner", "nspam", "nham", "log", "active")

    def __init__(self, owner: "ReferenceClassifier", nspam: int, nham: int) -> None:
        self.owner = owner
        self.nspam = nspam
        self.nham = nham
        # token -> original WordInfo copy, or None if the token was
        # absent when the snapshot was taken.
        self.log: dict[str, WordInfo | None] = {}
        self.active = True


class ReferenceClassifier:
    """Incremental SpamBayes classifier over a ``dict[str, WordInfo]``."""

    def __init__(self, options: ClassifierOptions = DEFAULT_OPTIONS) -> None:
        self.options = options
        self._wordinfo: dict[str, WordInfo] = {}
        self._nspam = 0
        self._nham = 0
        self._prob_cache: dict[str, float] = {}
        self._snapshot: ReferenceSnapshot | None = None

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------

    @property
    def nspam(self) -> int:
        return self._nspam

    @property
    def nham(self) -> int:
        return self._nham

    @property
    def vocabulary_size(self) -> int:
        return len(self._wordinfo)

    def word_info(self, token: str) -> WordInfo | None:
        return self._wordinfo.get(token)

    def iter_vocabulary(self) -> Iterable[str]:
        return iter(self._wordinfo)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def learn(self, tokens: Iterable[str], is_spam: bool) -> None:
        unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
        if is_spam:
            self._nspam += 1
        else:
            self._nham += 1
        wordinfo = self._wordinfo
        log = None if self._snapshot is None else self._snapshot.log
        for token in unique:
            record = wordinfo.get(token)
            if log is not None and token not in log:
                log[token] = None if record is None else record.copy()
            if record is None:
                record = wordinfo[token] = WordInfo()
            if is_spam:
                record.spamcount += 1
            else:
                record.hamcount += 1
        self._prob_cache.clear()

    def unlearn(self, tokens: Iterable[str], is_spam: bool) -> None:
        unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
        if is_spam:
            if self._nspam < 1:
                raise TrainingError("unlearn(spam) with no spam trained")
        else:
            if self._nham < 1:
                raise TrainingError("unlearn(ham) with no ham trained")
        wordinfo = self._wordinfo
        for token in unique:
            record = wordinfo.get(token)
            count = 0 if record is None else (record.spamcount if is_spam else record.hamcount)
            if count < 1:
                raise TrainingError(
                    f"unlearn would drive count of token {token!r} negative; "
                    "message was not learned with this label"
                )
        log = None if self._snapshot is None else self._snapshot.log
        if is_spam:
            self._nspam -= 1
        else:
            self._nham -= 1
        for token in unique:
            record = wordinfo[token]
            if log is not None and token not in log:
                log[token] = record.copy()
            if is_spam:
                record.spamcount -= 1
            else:
                record.hamcount -= 1
            if record.is_empty():
                del wordinfo[token]
        self._prob_cache.clear()

    def learn_repeated(self, tokens: Iterable[str], is_spam: bool, count: int) -> None:
        if count < 0:
            raise TrainingError(f"learn_repeated needs count >= 0, got {count}")
        if count == 0:
            return
        unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
        if is_spam:
            self._nspam += count
        else:
            self._nham += count
        wordinfo = self._wordinfo
        log = None if self._snapshot is None else self._snapshot.log
        for token in unique:
            record = wordinfo.get(token)
            if log is not None and token not in log:
                log[token] = None if record is None else record.copy()
            if record is None:
                record = wordinfo[token] = WordInfo()
            if is_spam:
                record.spamcount += count
            else:
                record.hamcount += count
        self._prob_cache.clear()

    def unlearn_repeated(self, tokens: Iterable[str], is_spam: bool, count: int) -> None:
        if count < 0:
            raise TrainingError(f"unlearn_repeated needs count >= 0, got {count}")
        if count == 0:
            return
        unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
        if is_spam and self._nspam < count:
            raise TrainingError(f"unlearn_repeated(spam, {count}) with only {self._nspam} trained")
        if not is_spam and self._nham < count:
            raise TrainingError(f"unlearn_repeated(ham, {count}) with only {self._nham} trained")
        wordinfo = self._wordinfo
        for token in unique:
            record = wordinfo.get(token)
            current = 0 if record is None else (record.spamcount if is_spam else record.hamcount)
            if current < count:
                raise TrainingError(
                    f"unlearn_repeated would drive count of token {token!r} negative"
                )
        if is_spam:
            self._nspam -= count
        else:
            self._nham -= count
        log = None if self._snapshot is None else self._snapshot.log
        for token in unique:
            record = wordinfo[token]
            if log is not None and token not in log:
                log[token] = record.copy()
            if is_spam:
                record.spamcount -= count
            else:
                record.hamcount -= count
            if record.is_empty():
                del wordinfo[token]
        self._prob_cache.clear()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> ReferenceSnapshot:
        if self._snapshot is not None:
            raise TrainingError("a snapshot is already active; restore it first")
        snap = ReferenceSnapshot(self, self._nspam, self._nham)
        self._snapshot = snap
        return snap

    def restore(self, snap: ReferenceSnapshot) -> None:
        if snap.owner is not self:
            raise TrainingError("snapshot belongs to a different classifier")
        if not snap.active or self._snapshot is not snap:
            raise TrainingError("snapshot is not active on this classifier")
        wordinfo = self._wordinfo
        for token, original in snap.log.items():
            if original is None:
                wordinfo.pop(token, None)
            else:
                wordinfo[token] = original
        self._nspam = snap.nspam
        self._nham = snap.nham
        snap.active = False
        self._snapshot = None
        self._prob_cache.clear()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def spam_prob(self, token: str) -> float:
        cached = self._prob_cache.get(token)
        if cached is not None:
            return cached
        record = self._wordinfo.get(token)
        opts = self.options
        if record is None or record.total == 0:
            prob = opts.unknown_word_prob
        else:
            n = record.total
            ps = self._raw_score(record)
            s = opts.unknown_word_strength
            prob = (s * opts.unknown_word_prob + n * ps) / (s + n)
        self._prob_cache[token] = prob
        return prob

    def _raw_score(self, record: WordInfo) -> float:
        nham = self._nham
        nspam = self._nspam
        if nspam == 0 and nham == 0:
            return self.options.unknown_word_prob
        spam_ratio = record.spamcount / nspam if nspam else 0.0
        ham_ratio = record.hamcount / nham if nham else 0.0
        denominator = spam_ratio + ham_ratio
        if denominator == 0.0:
            return self.options.unknown_word_prob
        return spam_ratio / denominator

    def significant_tokens(self, tokens: Iterable[str]) -> list[tuple[str, float]]:
        opts = self.options
        minimum = opts.minimum_prob_strength
        scored = []
        for token in set(tokens):
            prob = self.spam_prob(token)
            strength = abs(prob - 0.5)
            if strength >= minimum:
                scored.append((strength, token, prob))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [(token, prob) for _, token, prob in scored[: opts.max_discriminators]]

    def score(self, tokens: Iterable[str]) -> float:
        return self._combine([prob for _, prob in self.significant_tokens(tokens)])

    def score_many(self, token_sets: Iterable[Iterable[str]]) -> list[float]:
        """The PR-1 bulk path: per-call string-keyed significance memo."""
        opts = self.options
        minimum = opts.minimum_prob_strength
        max_discriminators = opts.max_discriminators
        combine = self._combine
        wordinfo = self._wordinfo
        prob_cache = self._prob_cache
        unknown = opts.unknown_word_prob
        strength_s = opts.unknown_word_strength
        nspam = self._nspam
        nham = self._nham
        memo: dict[str, tuple[float, str, float] | None] = {}
        missing = (0.0, "", 0.0)
        results: list[float] = []
        for tokens in token_sets:
            unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
            scored = []
            for token in unique:
                entry = memo.get(token, missing)
                if entry is missing:
                    prob = prob_cache.get(token)
                    if prob is None:
                        record = wordinfo.get(token)
                        if record is None or record.total == 0:
                            prob = unknown
                        else:
                            n = record.total
                            if nspam == 0 and nham == 0:
                                ps = unknown
                            else:
                                spam_ratio = record.spamcount / nspam if nspam else 0.0
                                ham_ratio = record.hamcount / nham if nham else 0.0
                                denominator = spam_ratio + ham_ratio
                                ps = unknown if denominator == 0.0 else spam_ratio / denominator
                            prob = (strength_s * unknown + n * ps) / (strength_s + n)
                        prob_cache[token] = prob
                    strength = abs(prob - 0.5)
                    entry = (-strength, token, prob) if strength >= minimum else None
                    memo[token] = entry
                if entry is not None:
                    scored.append(entry)
            scored.sort()
            results.append(combine([item[2] for item in scored[:max_discriminators]]))
        return results

    @staticmethod
    def _combine(probs: Sequence[float]) -> float:
        if not probs:
            return 0.5
        spam_evidence = fisher_combine(probs)
        ham_evidence = fisher_combine([1.0 - p for p in probs])
        return (1.0 + spam_evidence - ham_evidence) / 2.0

    def copy(self) -> "ReferenceClassifier":
        clone = ReferenceClassifier(self.options)
        clone._nspam = self._nspam
        clone._nham = self._nham
        clone._wordinfo = {token: record.copy() for token, record in self._wordinfo.items()}
        return clone

    def __repr__(self) -> str:
        return (
            f"ReferenceClassifier(nspam={self._nspam}, nham={self._nham}, "
            f"vocabulary={len(self._wordinfo)})"
        )
