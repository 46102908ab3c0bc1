"""The clean-twin counterfactual's bit-exactness contract.

The streaming runner's counterfactual is a *clean twin*: a second
classifier over the stream's shared table, incrementally trained on
exactly the accepted non-attack arrivals.  Because training is integer
count-addition, the twin's state at every tick must equal "the main
classifier with every trained attack message unlearned" — which is
what :class:`UnlearnRunner`, a test-local runner, computes by
snapshot/unlearn-all/restore.  These tests make that equality an
enforced differential contract, not an argument:

* the **scenario differential**: every registered stream scenario,
  scaled down so that it trains attack mail, plus a long-horizon
  focused-attack spec, run twin-vs-unlearn under both kernels —
  records compared as serialized bytes;
* the **twin cost counts**: on the long-horizon spec, each tick's
  twin work is that tick's accepted legitimate mail plus one bulk
  scoring pass, however much attack mail the stream has trained, and
  the profiled phases explain the run's wall time;
* the **pooled leg**: the same differential with the whole stream
  shipped to a :class:`WorkerPool` worker process;
* the **property test**: randomized attack schedules at the classifier
  level — interleaved learn-only twin construction vs
  snapshot/unlearn/restore, full state and scores compared exactly;
* the **hash-seed leg**: the twin/unlearn equality holds under
  explicit ``PYTHONHASHSEED`` values in subprocesses, so it does not
  lean on any incidental set-iteration order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.corpus.dataset import unlearn_grouped
from repro.defenses.roni import RoniConfig
from repro.engine.runner import WorkerPool
from repro.engine.sweep import evaluate_dataset
from repro.scenarios import get_scenario, scenario_names
from repro.spambayes import ndkernel
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.token_table import TokenTable
from repro.stream.runner import StreamRunner, _run_stream_task
from repro.stream.spec import StreamSpec

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

KERNELS = ("nd", "python")

HASH_SEEDS = ("0", "1", "2")


def forced_kernel(name: str):
    """Pin ``REPRO_KERNEL`` for the duration of one comparison arm."""
    return mock.patch.dict(os.environ, {ndkernel.KERNEL_ENV: name})


def _run_under_hash_seed(script: str, hash_seed: str) -> str:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, str(TESTS)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class UnlearnRunner(StreamRunner):
    """The counterfactual the twin replaces, as an O(history) excursion:
    snapshot the main classifier, unlearn every attack message trained
    so far, evaluate the held-out set, restore."""

    def _clean_counterfactual(
        self, classifier, twin, test, workspace, trained_attack, cutoffs, confusion
    ):
        if not trained_attack:
            return super()._clean_counterfactual(
                classifier, twin, test, workspace, trained_attack, cutoffs, confusion
            )
        snap = classifier.snapshot()
        try:
            unlearn_grouped(classifier, trained_attack)
            return evaluate_dataset(classifier, test, cutoffs=cutoffs)
        finally:
            classifier.restore(snap)


# Scaled-down overrides per registered stream scenario: small enough
# to keep 6 scenarios x 2 kernels x 2 runners fast, large enough that
# every scenario trains attack mail (so the twin path actually
# diverges from the copy-the-confusion shortcut) — except the clean
# control, which pins the no-attack degenerate case.
_SCENARIO_SCALE: dict[str, dict] = {
    "stream-dictionary-ramp": dict(
        ticks=4,
        ham_per_tick=14,
        spam_per_tick=14,
        attack_start_tick=2,
        attack_per_tick=8,
        ramp_ticks=2,
        test_size=24,
    ),
    "stream-dictionary-vs-roni": dict(
        ticks=3,
        ham_per_tick=24,
        spam_per_tick=24,
        attack_start_tick=2,
        attack_per_tick=5,
        roni=RoniConfig(train_size=8, validation_size=16, trials=2),
        roni_calibration_size=40,
        test_size=24,
    ),
    "stream-focused-vs-roni": dict(
        ticks=3,
        ham_per_tick=24,
        spam_per_tick=24,
        attack_start_tick=2,
        attack_per_tick=5,
        roni=RoniConfig(train_size=8, validation_size=16, trials=2),
        roni_calibration_size=40,
        test_size=24,
    ),
    "stream-usenet-burst": dict(
        ticks=4,
        ham_per_tick=14,
        spam_per_tick=14,
        attack_start_tick=2,
        attack_per_tick=6,
        ramp_ticks=2,
        test_size=24,
    ),
    "stream-threshold-over-time": dict(
        ticks=3,
        ham_per_tick=16,
        spam_per_tick=16,
        attack_start_tick=2,
        attack_per_tick=6,
        test_size=24,
    ),
    "stream-clean-control": dict(
        ticks=3,
        ham_per_tick=14,
        spam_per_tick=14,
        test_size=24,
    ),
}

CLEAN_CONTROL = "stream-clean-control"

# Driven by the registry, so a newly registered stream scenario is
# parametrized here and fails until it has overrides above.
STREAM_SCENARIOS = tuple(
    sorted(name for name in scenario_names() if get_scenario(name).protocol == "stream")
)

# A long-horizon focused-attack stream: a focused attack draws a
# distinct token set per message, so an unlearn excursion would grow
# with the trained attack history while the twin's cost stays flat.
LONG_HORIZON = "long-horizon-focused"
LONG_HORIZON_SPEC = StreamSpec(
    ticks=8,
    ham_per_tick=10,
    spam_per_tick=10,
    attack_start_tick=2,
    attack_per_tick=24,
    attack_variant="focused",
    test_size=60,
    measure_clean=True,
    profile_phases=True,
    seed=1,
)


def _scaled_spec(name: str) -> StreamSpec:
    if name == LONG_HORIZON:
        return LONG_HORIZON_SPEC
    if name not in _SCENARIO_SCALE:
        pytest.fail(f"{name}: add attack-bearing overrides to _SCENARIO_SCALE")
    spec = get_scenario(name)
    config = spec.build_config(**_SCENARIO_SCALE[name])
    # measure_clean on everywhere: the differential is about the
    # counterfactual, so every scenario must compute one.
    return dataclasses.replace(config, measure_clean=True, seed=23)


def _record_bytes(result) -> bytes:
    return json.dumps(result.to_record().as_dict(), sort_keys=True).encode()


class TestScenarioDifferential:
    @pytest.mark.parametrize("name", STREAM_SCENARIOS + (LONG_HORIZON,))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_twin_record_equals_unlearn_record(self, name, kernel):
        spec = _scaled_spec(name)
        with forced_kernel(kernel):
            twin = StreamRunner(spec).run()
            unlearn = UnlearnRunner(spec).run()
        assert _record_bytes(twin) == _record_bytes(unlearn)
        # Only attack mail that was trained makes the twin diverge from
        # the main line; without it the comparison is vacuous.
        trained = twin.to_record().as_dict()["extras"]["attack_trained"]
        assert (sum(trained) > 0) == (name != CLEAN_CONTROL), trained

    def test_kernels_agree_with_each_other(self):
        # One scenario cross-kernel: the twin path on nd must match
        # the unlearn path on python (and vice versa by transitivity
        # with the per-kernel differentials above).
        spec = _scaled_spec("stream-dictionary-ramp")
        with forced_kernel("nd"):
            nd_twin = StreamRunner(spec).run()
        with forced_kernel("python"):
            py_unlearn = UnlearnRunner(spec).run()
        assert _record_bytes(nd_twin) == _record_bytes(py_unlearn)

    def test_pooled_stream_matches_sequential_both_modes(self):
        # Workers leg: the whole-stream task run in a worker process
        # must produce the same bytes the sequential twin and unlearn
        # runs do.
        spec = _scaled_spec("stream-usenet-burst")
        sequential = _record_bytes(StreamRunner(spec).run())
        reference = _record_bytes(UnlearnRunner(spec).run())
        with WorkerPool(2) as pool:
            (result,) = pool.run(_run_stream_task, spec, [0])
        assert _record_bytes(result) == sequential == reference


# The profiled phases must explain at least this share of a stream's
# wall time, or the phase accounting is not measuring the run.
ACCOUNTED_FLOOR = 0.7


def _group_messages(groups):
    """Messages in a grouped training call (``train_grouped`` passes a
    list, so summing it leaves the groups for the wrapped method)."""
    return sum(count for _, _, count in groups)


class CountingRunner(StreamRunner):
    """Counts the clean twin's work tick by tick.

    The counterfactual hook runs once per tick, after the twin's
    retrain.  On its first call it wraps the twin's count-column
    primitives — the per-message ``_apply_delta``/``_apply_removal``
    and the grouped ``learn_groups``/``unlearn_groups`` (every learn
    and unlearn reaches one of them) — and its ``score_workspace``;
    each later call records the messages the twin learned and
    unlearned since the previous tick and the bulk scoring passes it
    made this tick.  A primitive called inside another counted one
    (the pure kernel's grouped calls end in per-message ones) is not
    counted twice.  Tick 1's training precedes the wrapping, so its
    entries are 0.
    """

    def __init__(self, spec):
        super().__init__(spec)
        self.learned: list[int] = []
        self.unlearned: list[int] = []
        self.passes: list[int] = []
        self._work = {"learn": 0, "unlearn": 0, "score": 0}
        self._inside = False

    def _count(self, twin, name, key, weight):
        method = getattr(twin, name)

        def counted(*args):
            if self._inside:
                return method(*args)
            self._work[key] += weight(*args)
            self._inside = True
            try:
                return method(*args)
            finally:
                self._inside = False

        setattr(twin, name, counted)

    def _clean_counterfactual(
        self, classifier, twin, test, workspace, trained_attack, cutoffs, confusion
    ):
        if not self.passes:
            for name, key in (("_apply_delta", "learn"), ("_apply_removal", "unlearn")):
                self._count(twin, name, key, lambda ids, is_spam, count: count)
            for name, key in (("learn_groups", "learn"), ("unlearn_groups", "unlearn")):
                self._count(twin, name, key, _group_messages)
            self._count(twin, "score_workspace", "score", lambda workspace: 1)
        self.learned.append(self._work["learn"])
        self.unlearned.append(self._work["unlearn"])
        self._work["learn"] = self._work["unlearn"] = 0
        clean = super()._clean_counterfactual(
            classifier, twin, test, workspace, trained_attack, cutoffs, confusion
        )
        self.passes.append(self._work["score"])
        self._work["score"] = 0
        return clean


class TestLongHorizonTwinCost:
    def test_twin_work_per_tick_is_flat_and_phases_explain_the_run(self):
        spec = LONG_HORIZON_SPEC
        runner = CountingRunner(spec)
        result = runner.run()
        outcomes = result.ticks
        assert len(runner.learned) == len(runner.passes) == spec.ticks

        # From the attack's first tick on, the trained attack history
        # grows every tick, so work that tracked it would grow too.
        first = spec.attack_start_tick - 1
        attack_history = []
        trained = 0
        for outcome in outcomes:
            trained += outcome.attack_trained
            attack_history.append(trained)
        assert attack_history[first - 1] == 0 < attack_history[first]
        assert all(
            later > earlier
            for earlier, later in zip(attack_history[first:], attack_history[first + 1 :])
        ), attack_history

        accepted_legitimate = [
            spec.ham_per_tick + spec.spam_per_tick - outcome.legitimate_rejected
            for outcome in outcomes
        ]
        assert runner.learned[first:] == accepted_legitimate[first:]
        assert len(set(runner.learned[first:])) == 1, runner.learned
        assert runner.unlearned[first:] == [0] * (spec.ticks - first)
        assert runner.passes[first:] == [1] * (spec.ticks - first)

        profile = result.phase_profile
        assert profile.accounted_fraction() >= ACCOUNTED_FLOOR, profile.render()


# ----------------------------------------------------------------------
# Classifier-level property test: randomized schedules
# ----------------------------------------------------------------------


def _random_message(rng: random.Random, table: TokenTable):
    tokens = {f"w{rng.randrange(300)}" for _ in range(rng.randint(1, 30))}
    return table.encode_unique(tokens)


def _full_state(classifier):
    return (
        classifier.nspam,
        classifier.nham,
        {
            token: (record.spamcount, record.hamcount)
            for token, record in (
                (t, classifier.word_info(t)) for t in classifier.iter_vocabulary()
            )
        },
    )


@pytest.mark.parametrize("seed", [5, 17, 41])
@pytest.mark.parametrize("kernel", KERNELS)
def test_interleaved_twin_matches_snapshot_unlearn_restore(seed, kernel):
    """Randomized attack schedules: twin == unlearn, byte for byte.

    One shared table; a "stream" of randomly interleaved legitimate
    and attack trainings.  After every simulated tick, the learn-only
    twin's full state and its scores on a fixed test batch must equal
    the main classifier's after unlearning the attack history inside a
    snapshot (restored afterward — the main line must be untouched).
    """
    rng = random.Random(seed)
    with forced_kernel(kernel):
        table = TokenTable()
        main = create_classifier(table=table)
        twin = create_classifier(table=table)
        test_batch = [_random_message(rng, table) for _ in range(12)]
        attack_history: list = []
        for tick in range(8):
            # A random per-tick mix: legit ham, legit spam, attack spam.
            for _ in range(rng.randint(1, 6)):
                ids = _random_message(rng, table)
                is_spam = rng.random() < 0.5
                main.learn_ids(ids, is_spam)
                twin.learn_ids(ids, is_spam)
            for _ in range(rng.randint(0, 4)):
                ids = _random_message(rng, table)
                main.learn_ids(ids, True)
                attack_history.append(ids)

            before = _full_state(main)
            snap = main.snapshot()
            try:
                for ids in attack_history:
                    main.unlearn_ids(ids, True)
                assert _full_state(main) == _full_state(twin)
                unlearn_scores = [main.score_ids(ids) for ids in test_batch]
            finally:
                main.restore(snap)
            assert _full_state(main) == before
            twin_scores = [twin.score_ids(ids) for ids in test_batch]
            assert twin_scores == unlearn_scores


# ----------------------------------------------------------------------
# Hash-seed leg: the equality is not an artifact of set ordering
# ----------------------------------------------------------------------


_TWIN_DIFFERENTIAL_SCRIPT = """
import json
from repro.stream.runner import StreamRunner
from repro.stream.spec import StreamSpec
from test_stream_clean_twin import UnlearnRunner

spec = StreamSpec(
    ticks=3, ham_per_tick=12, spam_per_tick=12,
    attack_start_tick=2, attack_per_tick=5,
    test_size=20, measure_clean=True, seed=13,
)
twin = StreamRunner(spec).run()
unlearn = UnlearnRunner(spec).run()
print(json.dumps({
    "twin": twin.to_record().as_dict(),
    "unlearn": unlearn.to_record().as_dict(),
}, sort_keys=True))
"""


@pytest.mark.slow
def test_twin_differential_identical_across_hash_seeds():
    outputs = [
        _run_under_hash_seed(_TWIN_DIFFERENTIAL_SCRIPT, seed) for seed in HASH_SEEDS
    ]
    parsed = [json.loads(output) for output in outputs]
    for payload in parsed:
        assert payload["twin"] == payload["unlearn"]
    for other in parsed[1:]:
        assert other == parsed[0]
