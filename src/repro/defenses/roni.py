"""The Reject On Negative Impact (RONI) defense (Section 5.1).

Causative attacks only work because training on attack email degrades
the filter.  RONI turns that observation into a test: before accepting
a candidate training message ``Q``, measure how training on it changes
classification quality on held-out mail, and reject it when the change
is significantly negative.

Protocol, exactly as in the paper:

* sample ``trials`` (default 5) independent pairs of a ``train_size``
  (20) message training set ``T`` and a ``validation_size`` (50)
  message validation set ``V`` from the pool of email already given to
  SpamBayes for training;
* for each pair, compare classification of ``V`` under a filter
  trained on ``T`` versus one trained on ``T ∪ {Q}``;
* average the per-trial change and reject ``Q`` when the average drop
  in correctly classified ham ("ham-as-ham") exceeds a threshold.

The paper reports a clean separability region: every dictionary-attack
email costs ≥ 6.8 ham-as-ham messages on average, while non-attack
spam costs at most 4.4 — so any threshold in between identifies 100%
of attack emails with zero false positives.  The default threshold
sits at the midpoint, 5.6, and is configurable for the ablation bench.

Implementation notes:

* **Trials.** The ``trials`` baseline filters are trained once and
  share one interning :class:`TokenTable` (pass the pool's table to
  share encodings across defenses).  Each trial holds its validation
  set as a :class:`~repro.spambayes.classifier.ScoringWorkspace`: the
  rows' CSR encoding, distinct token IDs, inverse index and text
  order are built once and never go stale (the rows are fixed and
  the table is append-only).
* **One measurement per distinct candidate.**
  :meth:`RoniDefense.measure_many` groups a batch by ``(is_spam, ID
  row)`` (:func:`~repro.corpus.dataset.group_token_ids`; a dictionary
  attack's copies share one encoded payload), encoding in per-message
  order, then makes one
  :meth:`Classifier.score_under_candidates` call per trial, which
  scores chunks of ``_CANDIDATE_ENTRY_BUDGET`` (candidate, entry) pairs
  in vectorized passes that never touch a count, bit-identical to a
  learn / score / unlearn loop per candidate
  (``tests/test_roni_batched.py`` holds it to that loop).
* **Encoded entry points.** Attack payloads that are already ID-native
  enter through :meth:`RoniDefense.measure_ids` /
  :meth:`RoniDefense.measure_batch` (fed by
  :meth:`repro.attacks.base.AttackBatch.encode`), so the gate consumes
  the attack layer's encoded arrays directly instead of re-interning
  string frozensets.
* **Exactness.** Per-trial count deltas are summed trial-major, in
  trial order, for every candidate — so a batch gives the same
  floats as measuring each candidate alone.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.corpus.dataset import Dataset, LabeledMessage, group_token_ids
from repro.defenses.base_types import DefenseVerdict
from repro.errors import DefenseError
from repro.spambayes.classifier import Classifier, ScoringWorkspace
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

__all__ = ["RoniConfig", "RoniMeasurement", "RoniVerdict", "RoniDefense"]


@dataclass(frozen=True, slots=True)
class RoniConfig:
    """Parameters of the RONI protocol (paper defaults)."""

    train_size: int = 20
    validation_size: int = 50
    trials: int = 5
    spam_fraction: float = 0.5
    ham_as_ham_threshold: float = 5.6
    """Reject when the mean drop in correctly classified ham across
    trials is at least this many messages (paper margin: (4.4, 6.8))."""

    def __post_init__(self) -> None:
        if self.train_size < 2:
            raise DefenseError(f"train_size must be >= 2, got {self.train_size}")
        if self.validation_size < 2:
            raise DefenseError(f"validation_size must be >= 2, got {self.validation_size}")
        if self.trials < 1:
            raise DefenseError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.spam_fraction < 1.0:
            raise DefenseError(f"spam_fraction must be in (0, 1), got {self.spam_fraction}")
        if self.ham_as_ham_threshold < 0.0:
            raise DefenseError("ham_as_ham_threshold must be >= 0")


@dataclass(frozen=True, slots=True)
class RoniMeasurement:
    """Averaged incremental impact of one candidate training message.

    All deltas are "after minus before" counts on the validation set,
    averaged over trials; negative ``ham_as_ham_delta`` means training
    on the candidate *lost* correctly classified ham.
    """

    ham_as_ham_delta: float
    ham_as_spam_delta: float
    ham_as_unsure_delta: float
    spam_as_spam_delta: float
    trials: int

    @property
    def ham_as_ham_decrease(self) -> float:
        """The paper's headline statistic (positive = damage)."""
        return -self.ham_as_ham_delta


@dataclass(frozen=True, slots=True)
class RoniVerdict:
    """Measurement plus the accept/reject decision."""

    measurement: RoniMeasurement
    rejected: bool

    @property
    def verdict(self) -> DefenseVerdict:
        return DefenseVerdict.REJECT if self.rejected else DefenseVerdict.ACCEPT


class _Trial:
    """One (T, V) resample: baseline filter + validation workspace."""

    __slots__ = ("classifier", "workspace", "is_spam", "baseline_counts")

    def __init__(
        self,
        classifier: Classifier,
        validation_ids: list[array],
        validation_labels: list[bool],
    ) -> None:
        self.classifier = classifier
        self.workspace = ScoringWorkspace(validation_ids)
        self.is_spam = np.array(validation_labels, dtype=bool)
        self.baseline_counts = self.counts([classifier.score_workspace(self.workspace)])[0]

    def counts(self, score_rows: Sequence[Sequence[float]]) -> np.ndarray:
        """Validation outcome tallies, one row per row of scores.

        Columns are ham-as-ham, ham-as-spam, ham-as-unsure and
        spam-as-spam counts, each score labelled as
        :meth:`~repro.spambayes.filter.SpamFilter.classify` would label
        it: ham at or below θ0, else unsure at or below θ1, else spam.
        """
        options = self.classifier.options
        scores = np.array(score_rows, dtype=np.float64).reshape(
            len(score_rows), self.is_spam.shape[0]
        )
        ham = scores <= options.ham_cutoff
        spam = ~ham & (scores > options.spam_cutoff)
        unsure = ~(ham | spam)
        is_ham = ~self.is_spam
        return np.stack(
            [
                (ham & is_ham).sum(axis=1),
                (spam & is_ham).sum(axis=1),
                (unsure & is_ham).sum(axis=1),
                (spam & self.is_spam).sum(axis=1),
            ],
            axis=1,
        )


class RoniDefense:
    """A calibrated RONI gate over candidate training messages."""

    def __init__(
        self,
        pool: Dataset,
        rng: random.Random,
        config: RoniConfig = RoniConfig(),
        options: ClassifierOptions = DEFAULT_OPTIONS,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        table: TokenTable | None = None,
    ) -> None:
        """Build the ``trials`` baseline (T, V) resamples from ``pool``.

        ``pool`` is the email already available for training (assumed
        clean — the paper samples from the initial inbox).  ``table``
        is the interning table the trial filters share; pass the pool's
        pre-encoded table so messages are not re-encoded per defense.
        """
        self.config = config
        self.tokenizer = tokenizer
        self._table = table if table is not None else TokenTable()
        needed = config.train_size + config.validation_size
        n_ham, n_spam = pool.counts()
        if n_ham + n_spam < needed:
            raise DefenseError(
                f"RONI needs at least {needed} pool messages, got {len(pool)}"
            )
        self._trials: list[_Trial] = []
        for _ in range(config.trials):
            sample = pool.sample_inbox(needed, config.spam_fraction, rng)
            train = sample.messages[: config.train_size]
            validation = sample.messages[config.train_size :]
            classifier = create_classifier(options, table=self._table)
            for message in train:
                classifier.learn_ids(
                    message.token_ids(self._table, tokenizer), message.is_spam
                )
            validation_ids = [
                message.token_ids(self._table, tokenizer) for message in validation
            ]
            validation_labels = [message.is_spam for message in validation]
            self._trials.append(_Trial(classifier, validation_ids, validation_labels))

    @property
    def table(self) -> TokenTable:
        """The interning table shared by the trial filters."""
        return self._table

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def _measure_encoded(self, encoded: Sequence[tuple[array, bool]]) -> list[RoniMeasurement]:
        """Averaged incremental impact for a batch of encoded candidates.

        One :meth:`Classifier.score_under_candidates` call per trial
        scores the trial's validation set under every candidate; the
        per-trial deltas then accumulate trial-major, exactly as
        per-candidate :meth:`measure_tokens` would sum them.
        """
        totals = np.zeros((len(encoded), 4))
        for trial in self._trials:
            per_candidate = trial.classifier.score_under_candidates(trial.workspace, encoded)
            totals += trial.counts(per_candidate) - trial.baseline_counts
        n = len(self._trials)
        return [
            RoniMeasurement(*deltas, trials=n) for deltas in (totals / n).tolist()
        ]

    def measure_tokens(self, tokens: Iterable[str], is_spam: bool = True) -> RoniMeasurement:
        """Average incremental impact of one candidate message.

        Re-scores each trial's validation set as if the candidate had
        been learned into that trial's filter — leaving the trial
        baselines untouched for the next query.
        """
        return self.measure_ids(self._table.encode_unique(tokens), is_spam)

    def measure_ids(self, ids: array, is_spam: bool = True) -> RoniMeasurement:
        """:meth:`measure_tokens` for a pre-encoded candidate.

        ``ids`` must be duplicate-free token IDs from this defense's
        :attr:`table` — e.g. one entry of
        :meth:`repro.attacks.base.AttackBatch.encode` — so the gate
        never re-interns a payload the attack layer already encoded.
        """
        return self._measure_encoded([(ids, is_spam)])[0]

    def measure_batch(self, batch) -> list[RoniMeasurement]:
        """Measure an :class:`~repro.attacks.base.AttackBatch`, one
        measurement per group (order preserved).

        The batch is encoded once against the defense's table (cached
        on the batch) and measured trial-major through the bulk path —
        identical numbers to per-group :meth:`measure_tokens` over
        ``training_tokens``.
        """
        encoded = [(ids, True) for ids, _ in batch.encode(self._table)]
        return self._measure_encoded(encoded)

    def measure(self, message: LabeledMessage) -> RoniMeasurement:
        return self._measure_encoded(
            [(message.token_ids(self._table, self.tokenizer), message.is_spam)]
        )[0]

    def measure_many(self, candidates: Sequence[LabeledMessage]) -> list[RoniMeasurement]:
        """:meth:`measure` for a whole candidate batch in one sweep.

        Candidates sharing a label and ID row (the copies of one attack
        payload) are measured once, in first-seen order; candidates are
        encoded in order, so the shared table grows exactly as
        per-message :meth:`measure` calls would grow it.  Returns one measurement
        per candidate, in order, identical to per-message :meth:`measure`.
        """
        groups, slots = group_token_ids(candidates, self._table, self.tokenizer)
        measured = self._measure_encoded([(ids, is_spam) for ids, is_spam, _ in groups])
        return [measured[slot] for slot in slots]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _verdict(self, measurement: RoniMeasurement) -> RoniVerdict:
        rejected = measurement.ham_as_ham_decrease >= self.config.ham_as_ham_threshold
        return RoniVerdict(measurement=measurement, rejected=rejected)
