"""Tests for the dynamic threshold defense."""

from __future__ import annotations

import random

import pytest

from repro.attacks.dictionary import UsenetDictionaryAttack
from repro.corpus.dataset import Dataset, train_grouped
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.defenses import threshold
from repro.defenses.threshold import (
    DynamicThresholdConfig,
    DynamicThresholdDefense,
    ThresholdFit,
    _utility_curve,
)
from repro.engine.sweep import evaluate_dataset
from repro.errors import DefenseError
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions
from repro.spambayes.token_table import TokenTable
from spambayes_spec import SpecClassifier


class TestConfig:
    @pytest.mark.parametrize("quantile", [0.0, 0.5, 0.7, -0.1])
    def test_invalid_quantile_rejected(self, quantile):
        with pytest.raises(DefenseError):
            DynamicThresholdConfig(quantile=quantile)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_invalid_split_rejected(self, fraction):
        with pytest.raises(DefenseError):
            DynamicThresholdConfig(split_fraction=fraction)


class TestUtilityCurve:
    def test_boundary_values(self):
        g = _utility_curve([0.1, 0.2], [0.8, 0.9])
        assert g(0.0) == 0.0  # no spam below, both ham above -> 0
        assert g(1.0) == 1.0  # all spam below, no ham above -> 1

    def test_monotone_nondecreasing(self):
        ham = [0.05, 0.1, 0.3, 0.4]
        spam = [0.6, 0.7, 0.85, 0.95]
        g = _utility_curve(ham, spam)
        values = [g(t / 20) for t in range(21)]
        assert values == sorted(values)

    def test_no_boundary_errors_returns_half(self):
        g = _utility_curve([0.5], [0.5])
        assert g(0.5) == 0.5


class TestFitFromScores:
    def _defense(self, quantile=0.05) -> DynamicThresholdDefense:
        return DynamicThresholdDefense(DynamicThresholdConfig(quantile=quantile))

    def test_separable_scores_bracket_the_gap(self):
        # Ham at 0.01..0.29, spam at 0.70..0.99: θ0 hugs the top of the
        # ham distribution, θ1 the bottom of the spam distribution (the
        # utility is 0/0 deep in the gap, where our g returns the 0.5
        # sentinel, so thresholds stay next to observed scores).
        ham = [0.01 * i for i in range(1, 30)]       # 0.01 .. 0.29
        spam = [0.7 + 0.01 * i for i in range(30)]   # 0.70 .. 0.99
        fit = self._defense().fit_from_scores(ham, spam)
        assert 0.27 <= fit.ham_cutoff <= 0.70
        assert 0.29 <= fit.spam_cutoff <= 0.72
        assert fit.ham_cutoff <= fit.spam_cutoff

    def test_shifted_scores_shift_thresholds(self):
        """The defense's premise: shift all scores up, thresholds follow."""
        ham = [0.5 + 0.01 * i for i in range(20)]    # 0.50 .. 0.69
        spam = [0.9 + 0.004 * i for i in range(20)]  # 0.90 .. 0.976
        fit = self._defense().fit_from_scores(ham, spam)
        assert fit.ham_cutoff > 0.5
        assert fit.spam_cutoff > fit.ham_cutoff

    def test_collapse_on_heavy_overlap(self):
        # Identical distributions: the quantile targets cross; the fit
        # must still return a valid ordered pair.
        scores = [0.4, 0.5, 0.6] * 10
        fit = self._defense(quantile=0.4).fit_from_scores(list(scores), list(scores))
        assert fit.ham_cutoff <= fit.spam_cutoff

    def test_quantile_010_narrower_than_005(self):
        ham = [0.01 * i for i in range(1, 50)]
        spam = [0.5 + 0.01 * i for i in range(50)]
        wide = self._defense(0.05).fit_from_scores(ham, spam)
        narrow = self._defense(0.10).fit_from_scores(ham, spam)
        wide_band = wide.spam_cutoff - wide.ham_cutoff
        narrow_band = narrow.spam_cutoff - narrow.ham_cutoff
        assert narrow_band <= wide_band

    def test_empty_scores_rejected(self):
        with pytest.raises(DefenseError):
            self._defense().fit_from_scores([], [0.5])
        with pytest.raises(DefenseError):
            self._defense().fit_from_scores([0.5], [])

    def test_validation_size_recorded(self):
        fit = self._defense().fit_from_scores([0.1, 0.2], [0.8, 0.9])
        assert fit.validation_size == 4


class TestFitOnDataset:

    def test_clean_data_gives_sane_thresholds(self, small_corpus):
        training = small_corpus.dataset.sample_inbox(300, 0.5, SeedSpawner(32).rng("t"))
        fit = DynamicThresholdDefense().fit(training, SeedSpawner(32).rng("f"))
        # On clean, separable data the fitted band sits in the middle.
        assert 0.0 < fit.ham_cutoff < 1.0
        assert 0.0 < fit.spam_cutoff <= 1.0

    def test_poisoned_training_moves_thresholds_up(self, small_corpus):
        pool = small_corpus.dataset.sample_inbox(200, 0.5, SeedSpawner(41).rng("pool"))
        attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        batch = attack.generate(20, SeedSpawner(47).rng("a"))
        poisoned = Dataset(pool.messages + attack_messages_as_dataset(batch))
        defense = DynamicThresholdDefense()
        clean_fit = defense.fit(pool, SeedSpawner(48).rng("t"))
        poisoned_fit = defense.fit(poisoned, SeedSpawner(48).rng("t"))
        assert poisoned_fit.ham_cutoff > clean_fit.ham_cutoff

    def test_missing_class_rejected(self, small_corpus):
        ham_only = Dataset(small_corpus.dataset.ham[:50])
        with pytest.raises(DefenseError):
            DynamicThresholdDefense().fit(ham_only, SeedSpawner(33).rng("f"))

    def test_defended_filter_still_classifies_clean_data(self, small_corpus):
        training = small_corpus.dataset.sample_inbox(300, 0.5, SeedSpawner(34).rng("t"))
        fit = DynamicThresholdDefense().fit(training, SeedSpawner(34).rng("f"))
        classifier = Classifier()
        train_grouped(classifier, training)
        inbox_ids = {m.msgid for m in training}
        held_out = [m for m in small_corpus.dataset if m.msgid not in inbox_ids][:100]
        counts = evaluate_dataset(
            classifier, held_out, cutoffs=(fit.ham_cutoff, fit.spam_cutoff)
        )
        assert counts.ham_as_ham + counts.spam_as_spam > 60


@pytest.fixture(scope="module")
def fit_corpus() -> TrecStyleCorpus:
    # A private corpus: the fits below re-key its messages' ID caches.
    return TrecStyleCorpus.generate(n_ham=90, n_spam=90, profile=TINY_PROFILE, seed=13)


def _training(corpus: TrecStyleCorpus, attack_count: int) -> Dataset:
    messages = list(corpus.dataset)
    if attack_count:
        attack = UsenetDictionaryAttack.from_vocabulary(corpus.vocabulary)
        batch = attack.generate(attack_count, random.Random(4))
        messages += attack_messages_as_dataset(batch)
    return Dataset(messages, name="training")


def _reference_fit(defense: DynamicThresholdDefense, training: Dataset, rng) -> ThresholdFit:
    """The fit spelled out on the formula oracle: trained message by
    message, and one ``score(tokens)`` per validation message."""
    half_f, half_v = training.split(defense.config.split_fraction, rng)
    classifier = SpecClassifier(defense.options)
    for message in half_f:
        classifier.learn(message.tokens(), message.is_spam)
    return defense.fit_from_scores(
        [classifier.score(message.tokens()) for message in half_v.ham],
        [classifier.score(message.tokens()) for message in half_v.spam],
    )


class TestSharedTableFit:
    """The fit scores on encoded IDs over the caller's table; the
    fitted thresholds are exactly the string path's."""

    @pytest.mark.parametrize("attack_count", [0, 300], ids=["clean", "poisoned"])
    @pytest.mark.parametrize(
        "options",
        [
            ClassifierOptions(),
            ClassifierOptions(minimum_prob_strength=0.0),
            # Graham's unknown-word prior.
            ClassifierOptions(unknown_word_prob=0.4, minimum_prob_strength=0.0),
            # A tight δ(E) cap, and weak smoothing that lets the
            # poisoned counts swing one-class tokens toward 0 and 1.
            ClassifierOptions(max_discriminators=15),
            ClassifierOptions(unknown_word_strength=0.2),
        ],
        ids=[
            "default-prior", "prior-0.5-significant", "prior-0.4-significant",
            "capped-15", "weak-smoothing",
        ],
    )
    def test_shared_private_and_reference_fits_agree(self, fit_corpus, attack_count, options):
        training = _training(fit_corpus, attack_count)
        attack = training.messages[len(fit_corpus.dataset) :]
        # Poisoned means grouped: hundreds of attack messages, one
        # frozenset between them.
        assert len({id(message.tokens()) for message in attack}) == min(attack_count, 1)
        table = TokenTable()
        training.encode(table)
        table_size = len(table)
        defense = DynamicThresholdDefense(options=options)
        shared = defense.fit(training, random.Random(9), table=table)
        assert len(table) == table_size  # the fit interned nothing
        private = defense.fit(training, random.Random(9))
        reference = _reference_fit(defense, training, random.Random(9))
        assert shared == private
        assert shared == reference

    def test_batched_scoring_matches_one_pass(self, monkeypatch, fit_corpus):
        """Scoring the distinct rows in many small kernel calls gives
        the fit a one-call pass gives."""
        training = _training(fit_corpus, 300)
        table = TokenTable()
        training.encode(table)
        defense = DynamicThresholdDefense()
        one_pass = defense.fit(training, random.Random(9), table=table)

        batch_sizes = []
        score_many_ids = Classifier.score_many_ids

        def counted(self, rows):
            batch_sizes.append(len(rows))
            return score_many_ids(self, rows)

        monkeypatch.setattr(Classifier, "score_many_ids", counted)
        monkeypatch.setattr(threshold, "_SCORE_ENTRY_BUDGET", 50)
        batched = defense.fit(training, random.Random(9), table=table)
        assert len(batch_sizes) > 10
        assert batched == one_pass

    def test_validation_holds_tokens_the_fit_never_trained(self, fit_corpus):
        """Under a significant prior the agreement above rests on
        zero-count table IDs scoring like unseen tokens — so the
        validation half must actually contain such tokens."""
        training = _training(fit_corpus, 300)
        half_f, half_v = training.split(0.5, random.Random(9))
        trained = set().union(*(message.tokens() for message in half_f))
        assert any(message.tokens() - trained for message in half_v)
