"""Multi-week retraining simulation (the Section 2.1 deployment model).

The paper's threat model is an organization that "retrains SpamBayes
periodically (e.g., weekly)" on everyone's received email.  The
figure experiments compress that into one poisoned training set; this
module plays the loop out over time so the *dynamics* are visible:

* weeks of clean mail accumulate a healthy filter,
* the attacker starts mailing dictionary payloads in week ``k``,
* each weekly retrain ingests arrivals (attack email trained as spam,
  per the contamination assumption),
* optionally, a RONI gate — recalibrated each week on previously
  accepted mail — screens every arrival before it is trained.

The per-week output (held-out ham/spam rates, attack messages trained
vs. rejected) shows the filter degrading week by week without the
defense and shrugging the attack off with it.  Used by
``examples/retraining_simulation.py`` and the durability tests.

Since the streaming engine landed, this module is the *definition*
(config and result shapes) plus two executables:

* :func:`run_retraining_simulation` — a thin delegation onto
  :class:`repro.stream.StreamRunner` (the weekly loop is a
  constant-ramp :class:`~repro.stream.spec.StreamSpec`);
* :func:`sequential_reference_retraining` — the original inline
  weekly loop, retained verbatim as the executable specification.
  ``tests/test_stream_vs_retraining.py`` holds the two side by side
  and asserts the weekly outcomes identical, field for field, under
  both defenses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.dataset import Dataset, LabeledMessage, train_grouped
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import VocabularyProfile, SMALL_PROFILE
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.errors import ExperimentError
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.experiments.crossval import evaluate_dataset
from repro.experiments.dictionary_exp import build_attack_variants
from repro.experiments.metrics import ConfusionCounts
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS

__all__ = [
    "RetrainingConfig",
    "WeeklyOutcome",
    "RetrainingResult",
    "run_retraining_simulation",
    "sequential_reference_retraining",
]


@dataclass(frozen=True)
class RetrainingConfig:
    """Shape of the weekly retraining scenario."""

    weeks: int = 8
    ham_per_week: int = 60
    spam_per_week: int = 60
    attack_start_week: int = 4
    attack_per_week: int = 12
    attack_variant: str = "usenet"
    defense: str = "none"
    """"none" or "roni"."""
    roni: RoniConfig = RoniConfig()
    roni_calibration_size: int = 120
    test_size: int = 200
    profile: VocabularyProfile = SMALL_PROFILE
    seed: int = 0
    options: ClassifierOptions = DEFAULT_OPTIONS

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise ExperimentError("need at least one week")
        if self.defense not in ("none", "roni"):
            raise ExperimentError(f"unknown defense {self.defense!r}")
        if not 1 <= self.attack_start_week:
            raise ExperimentError("attack_start_week must be >= 1")


@dataclass
class WeeklyOutcome:
    """State of the world after one week's retrain."""

    week: int
    trained_messages: int
    attack_sent: int
    attack_trained: int
    attack_rejected: int
    legitimate_rejected: int
    confusion: ConfusionCounts


@dataclass
class RetrainingResult:
    config: RetrainingConfig
    weeks: list[WeeklyOutcome] = field(default_factory=list)

    def week(self, number: int) -> WeeklyOutcome:
        for outcome in self.weeks:
            if outcome.week == number:
                return outcome
        raise ExperimentError(f"no week {number} in result")

    def final_ham_misclassification(self) -> float:
        return self.weeks[-1].confusion.ham_misclassified_rate


def run_retraining_simulation(config: RetrainingConfig = RetrainingConfig()) -> RetrainingResult:
    """Play the weekly loop and return per-week outcomes.

    Delegates to the streaming engine: the weekly loop is exactly a
    constant-ramp :class:`~repro.stream.spec.StreamSpec`
    (:meth:`~repro.stream.spec.StreamSpec.from_retraining`), and the
    stream runner inherits this loop's seed-stream labels — so the
    outcomes are identical, field for field, to the retained
    :func:`sequential_reference_retraining`.
    """
    # Late import: repro.stream imports the experiments layer.
    from repro.stream import StreamRunner, StreamSpec

    stream_result = StreamRunner(StreamSpec.from_retraining(config)).run()
    result = RetrainingResult(config=config)
    result.weeks = [
        WeeklyOutcome(
            week=outcome.tick,
            trained_messages=outcome.trained_messages,
            attack_sent=outcome.attack_sent,
            attack_trained=outcome.attack_trained,
            attack_rejected=outcome.attack_rejected,
            legitimate_rejected=outcome.legitimate_rejected,
            confusion=outcome.confusion,
        )
        for outcome in stream_result.ticks
    ]
    return result


def sequential_reference_retraining(
    config: RetrainingConfig = RetrainingConfig(),
) -> RetrainingResult:
    """The original strictly sequential weekly loop, verbatim.

    Retained as the executable specification of the Section 2.1
    dynamics: ``tests/test_stream_vs_retraining.py`` runs it against
    the stream-engine delegation and asserts every weekly outcome
    identical, under both defenses.  New callers should use
    :func:`run_retraining_simulation` (or a richer
    :class:`~repro.stream.spec.StreamSpec` directly).
    """
    spawner = SeedSpawner(config.seed).spawn("retraining")
    needed_ham = config.weeks * config.ham_per_week + config.test_size
    needed_spam = config.weeks * config.spam_per_week + config.test_size
    corpus = TrecStyleCorpus.generate(
        n_ham=needed_ham,
        n_spam=needed_spam,
        profile=config.profile,
        seed=spawner.child_seed("corpus"),
    )
    ham_stream = corpus.dataset.ham
    spam_stream = corpus.dataset.spam
    test = Dataset(
        ham_stream[-config.test_size // 2 :] + spam_stream[-config.test_size // 2 :],
        name="held-out",
    )
    test.tokenize_all()
    ham_stream = ham_stream[: -config.test_size // 2]
    spam_stream = spam_stream[: -config.test_size // 2]

    attack = build_attack_variants(corpus, (config.attack_variant,), seed=config.seed)[
        config.attack_variant
    ]
    classifier = Classifier(config.options)
    accepted_history: list[LabeledMessage] = []
    result = RetrainingResult(config=config)

    for week in range(1, config.weeks + 1):
        week_rng = spawner.rng(f"week[{week}]")
        start_ham = (week - 1) * config.ham_per_week
        start_spam = (week - 1) * config.spam_per_week
        arrivals: list[LabeledMessage] = list(
            ham_stream[start_ham : start_ham + config.ham_per_week]
        ) + list(spam_stream[start_spam : start_spam + config.spam_per_week])
        attack_sent = config.attack_per_week if week >= config.attack_start_week else 0
        attack_arrivals: list[LabeledMessage] = []
        if attack_sent:
            batch = attack.generate(attack_sent, week_rng)
            attack_arrivals = attack_messages_as_dataset(batch, start=week * 10_000)

        attack_trained = attack_rejected = legitimate_rejected = 0
        if config.defense == "roni" and len(accepted_history) >= (
            config.roni.train_size + config.roni.validation_size
        ):
            calibration_pool = Dataset(accepted_history, name=f"accepted-through-week{week - 1}")
            sample_size = min(config.roni_calibration_size, len(calibration_pool))
            pool = calibration_pool.subset(
                week_rng.sample(range(len(calibration_pool)), sample_size)
            )
            defense = RoniDefense(pool, week_rng, config=config.roni, options=config.options)
            to_train: list[LabeledMessage] = []
            for message in arrivals:
                if defense.judge(message).rejected:
                    legitimate_rejected += 1
                else:
                    to_train.append(message)
            for message in attack_arrivals:
                if defense.judge(message).rejected:
                    attack_rejected += 1
                else:
                    to_train.append(message)
                    attack_trained += 1
        else:
            # No gate (or not enough history to calibrate one yet).
            to_train = arrivals + attack_arrivals
            attack_trained = len(attack_arrivals)

        train_grouped(classifier, to_train)
        attack_ids = {id(message) for message in attack_arrivals}
        accepted_history.extend(m for m in to_train if id(m) not in attack_ids)
        confusion = evaluate_dataset(classifier, test)
        result.weeks.append(
            WeeklyOutcome(
                week=week,
                trained_messages=classifier.nspam + classifier.nham,
                attack_sent=attack_sent,
                attack_trained=attack_trained,
                attack_rejected=attack_rejected,
                legitimate_rejected=legitimate_rejected,
                confusion=confusion,
            )
        )
    return result
