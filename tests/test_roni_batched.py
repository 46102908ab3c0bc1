"""Differential lockdown of the batched RONI gate.

:meth:`Classifier.score_under_candidates` is the gate's only scoring
primitive: one vectorized pass per candidate chunk that never touches a
count.  These tests hold it, with exact ``==`` on floats, to the
learn / ``score_workspace`` / unlearn loop per candidate it stands for
(spelled out here) and to the formula oracle, under three option sets
and over seeded batches that reach every branch of the vectorized path:
both labels, empty and duplicated candidates, candidates disjoint from
the validation rows or interned after the workspace was built, and a
dictionary-attack candidate that pushes rows past
``max_discriminators``.  The validation rows are built so the
baseline already needs the combiner's frexp renormalization.

The stream gate is then held to the per-message measurement loop it
replaced: same decision, same token-table layout.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from array import array

import pytest

from repro.attacks.dictionary import OptimalDictionaryAttack
from repro.corpus.dataset import Dataset
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.rng import SeedSpawner
from repro.spambayes.classifier import _CANDIDATE_ENTRY_BUDGET, Classifier, ScoringWorkspace
from repro.spambayes.options import DEFAULT_OPTIONS, ClassifierOptions
from repro.spambayes.token_table import TokenTable
from repro.stream.defenses import GateDecision, RoniTickDefense
from repro.stream.spec import StreamSpec
from spambayes_spec import SpecClassifier

HAM_WORDS = [f"ham{i:03d}" for i in range(240)]
SPAM_WORDS = [f"spam{i:03d}" for i in range(240)]
SHARED_WORDS = [f"both{i:02d}" for i in range(60)]
# Seen only in validation mail: the prior (insignificant) until a
# candidate trains them, which is what swells rows past the cap.
RARE_WORDS = [f"rare{i:03d}" for i in range(200)]
TRAIN_ONLY_WORDS = [f"train{i:02d}" for i in range(40)]


def _tokens(rng: random.Random, main: list[str], n_main: int, n_rare: int = 0) -> set[str]:
    tokens = set(rng.sample(main, n_main)) | set(rng.sample(SHARED_WORDS, 8))
    if n_rare:
        tokens |= set(rng.sample(RARE_WORDS, n_rare))
    return tokens


def _trial(seed: int, options: ClassifierOptions = DEFAULT_OPTIONS):
    """A trained trial filter, its validation workspace and a batch.

    Mirrors a RONI trial: one classifier trained on a small set, a
    fixed validation set scored through a workspace, and candidates
    encoded against the same shared table.
    """
    rng = random.Random(seed)
    table = TokenTable()
    classifier = Classifier(options, table=table)
    for _ in range(12):
        ham = _tokens(rng, HAM_WORDS, 170) | set(rng.sample(TRAIN_ONLY_WORDS, 5))
        classifier.learn_ids(table.encode_unique(ham), False)
        classifier.learn_ids(table.encode_unique(_tokens(rng, SPAM_WORDS, 170)), True)
    rows = []
    for _ in range(8):
        # 180 strongly hammy tokens: the spam-side product underflows
        # 1e-200 well before the 150th factor (frexp renormalization).
        rows.append(table.encode_unique(_tokens(rng, HAM_WORDS, 180)))
        rows.append(table.encode_unique(_tokens(rng, HAM_WORDS, 90, n_rare=90)))
        rows.append(table.encode_unique(_tokens(rng, SPAM_WORDS, 90, n_rare=90)))
    rows.append(table.encode_unique(set(rng.sample(HAM_WORDS, 4))))
    rows.append(array("l"))
    workspace = ScoringWorkspace(rows)

    ordinary = []
    for index in range(6):
        main = HAM_WORDS if index % 2 else SPAM_WORDS
        ordinary.append((table.encode_unique(_tokens(rng, main, 60, n_rare=10)), index % 3 == 0))
    disjoint = table.encode_unique(TRAIN_ONLY_WORDS[:20])
    # Interned after the workspace exists: brand-new IDs beyond every
    # validation token, mixed with known ones.
    late = table.encode_unique({f"late{i}" for i in range(15)} | set(HAM_WORDS[:10]))
    dictionary = table.encode_unique(
        set(HAM_WORDS + SPAM_WORDS + SHARED_WORDS + RARE_WORDS) | {"late-dict"}
    )
    candidates = ordinary + [
        (array("l"), True),
        (array("l"), False),
        ordinary[0],
        (array("l", ordinary[1][0]), ordinary[1][1]),
        (disjoint, True),
        (disjoint, False),
        (late, True),
        (late, False),
        (dictionary, True),
        (dictionary, False),
    ]
    rng.shuffle(candidates)
    return classifier, workspace, candidates


def _reference(classifier, workspace, candidates) -> list[list[float]]:
    """The per-candidate learn / score / unlearn loop, spelled out
    (learning and unlearning are exact inverses on integer counts)."""
    scores = []
    for ids, is_spam in candidates:
        classifier.learn_ids(ids, is_spam)
        scores.append(classifier.score_workspace(workspace))
        classifier.unlearn_ids_repeated(ids, is_spam, 1)
    return scores


def _oracle(classifier, workspace, candidates) -> list[list[float]]:
    """The same loop on the formula oracle, trained to the classifier's
    counts and fed decoded token texts."""
    decode = classifier.table.decode
    spec = SpecClassifier(classifier.options)
    for token in classifier.iter_vocabulary():
        info = classifier.word_info(token)
        spec.spamcount[token], spec.hamcount[token] = info.spamcount, info.hamcount
    spec.nspam, spec.nham = classifier.nspam, classifier.nham
    rows = [decode(list(row)) for row in workspace.rows]
    scores = []
    for ids, is_spam in candidates:
        tokens = decode(list(ids))
        spec.learn(tokens, is_spam)
        scores.append([spec.score(row) for row in rows])
        spec.unlearn(tokens, is_spam)
    return scores


def _state(classifier) -> tuple:
    counts = []
    for token in classifier.table:
        info = classifier.word_info(token)
        counts.append(None if info is None else (info.spamcount, info.hamcount))
    return classifier.nspam, classifier.nham, classifier.vocabulary_size, counts


# Beyond the defaults: every token significant under a tight cap (the
# δ(E) cut decides each row), and a hammy prior with weak smoothing
# (rare and candidate-only tokens swing furthest).
GATE_OPTIONS = [
    DEFAULT_OPTIONS,
    ClassifierOptions(minimum_prob_strength=0.0, max_discriminators=40),
    ClassifierOptions(unknown_word_prob=0.4, unknown_word_strength=0.2),
]
GATE_OPTION_IDS = ["default", "capped-significant", "prior-0.4-weak"]


@pytest.mark.parametrize("options", GATE_OPTIONS, ids=GATE_OPTION_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_scores_equal_reference_loop(seed, options):
    classifier, workspace, candidates = _trial(seed, options)
    before = _state(classifier)
    baseline = classifier.score_many_ids(workspace.rows)

    batched = classifier.score_under_candidates(workspace, candidates)

    assert _state(classifier) == before
    assert classifier.score_many_ids(workspace.rows) == baseline
    assert batched == _reference(classifier, workspace, candidates)
    assert _state(classifier) == before


def test_batch_reaches_every_branch():
    """The fixture exercises what the differential test claims."""
    classifier, workspace, candidates = _trial(0)
    options = classifier.options
    nnz = sum(len(row) for row in workspace.rows)
    assert len(candidates) > _CANDIDATE_ENTRY_BUDGET // nnz
    assert any(len(ids) == 0 for ids, _ in candidates)

    def significant_probs(row):
        probs = [classifier.spam_prob(token) for token in classifier.table.decode(row)]
        return [p for p in probs if abs(p - 0.5) >= options.minimum_prob_strength]

    kept = [
        [ts.spam_prob for ts in classifier.significant_tokens(classifier.table.decode(row))]
        for row in workspace.rows
    ]
    assert any(math.prod(probs) < 1e-200 for probs in kept)

    dictionary = max(candidates, key=lambda candidate: len(candidate[0]))
    before = max(len(significant_probs(row)) for row in workspace.rows[1::3])
    classifier.learn_ids(*dictionary)
    after = max(len(significant_probs(row)) for row in workspace.rows[1::3])
    classifier.unlearn_ids_repeated(*dictionary, 1)
    assert before <= options.max_discriminators < after


def test_chunked_peak_memory_is_bounded_by_the_budget():
    """One call's traced peak stays at one chunk's worth of pairs.

    A batch 8 chunks long peaks where a batch 2 chunks long does: only
    the returned score lists grow with the batch.  The per-pair figure
    is the one the ``_CANDIDATE_ENTRY_BUDGET`` comment states.
    """
    classifier, workspace, candidates = _trial(0)
    nnz = sum(len(row) for row in workspace.rows)
    chunk = max(1, _CANDIDATE_ENTRY_BUDGET // nnz)
    classifier.score_under_candidates(workspace, candidates)  # warm the caches

    def peak(n_chunks: int) -> int:
        batch = (candidates * (n_chunks * chunk // len(candidates) + 1))[: n_chunks * chunk]
        tracemalloc.start()
        try:
            classifier.score_under_candidates(workspace, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two, eight = peak(2), peak(8)
    assert eight < 1.1 * two
    assert two / (chunk * nnz) < 100


@pytest.mark.parametrize("options", GATE_OPTIONS, ids=GATE_OPTION_IDS)
def test_batched_scores_equal_oracle(options):
    classifier, workspace, candidates = _trial(3, options)
    batched = classifier.score_under_candidates(workspace, candidates)
    assert batched == _oracle(classifier, workspace, candidates)


def test_empty_workspace_and_batch():
    classifier, _, candidates = _trial(5)
    assert classifier.score_under_candidates(ScoringWorkspace([]), candidates[:3]) == [[], [], []]
    empty_rows = ScoringWorkspace([array("l"), array("l")])
    assert classifier.score_under_candidates(empty_rows, candidates[:2]) == [[0.5, 0.5]] * 2
    assert classifier.score_under_candidates(empty_rows, []) == []


# ----------------------------------------------------------------------
# The stream gate against the per-message judge loop it replaced
# ----------------------------------------------------------------------


def _legacy_gate(spec, table, tick, arrivals, attack_arrivals, history, rng) -> GateDecision:
    """``RoniTickDefense.gate`` as it was: one measurement per message."""
    calibration_pool = Dataset(list(history), name=f"accepted-through-tick{tick - 1}")
    sample_size = min(spec.roni_calibration_size, len(calibration_pool))
    pool = calibration_pool.subset(rng.sample(range(len(calibration_pool)), sample_size))
    defense = RoniDefense(pool, rng, config=spec.roni, options=spec.options, table=table)
    decision = GateDecision()
    for message in arrivals:
        if defense._verdict(defense.measure(message)).rejected:
            decision.legitimate_rejected += 1
        else:
            decision.accepted_legitimate.append(message)
    for message in attack_arrivals:
        if defense._verdict(defense.measure(message)).rejected:
            decision.attack_rejected += 1
        else:
            decision.trained_attack.append(message)
    return decision


def _gate_world():
    """A fresh, identical world: history, arrivals, attack mail, table."""
    corpus = TrecStyleCorpus.generate(n_ham=70, n_spam=70, profile=TINY_PROFILE, seed=8)
    messages = list(corpus.dataset.messages)
    random.Random(9).shuffle(messages)
    history, arrivals = messages[:100], messages[100:130]
    attack = OptimalDictionaryAttack.from_vocabulary(corpus.vocabulary)
    attack_arrivals = attack_messages_as_dataset(attack.generate(3, random.Random(10)))
    table = TokenTable()
    for message in history:
        message.token_ids(table)
    return history, arrivals, attack_arrivals, table


def _decision_fields(decision: GateDecision) -> tuple:
    return (
        [m.msgid for m in decision.accepted_legitimate],
        [m.msgid for m in decision.trained_attack],
        decision.legitimate_rejected,
        decision.attack_rejected,
    )


def test_stream_gate_matches_per_message_judge():
    spec = StreamSpec(
        defense="roni",
        roni=RoniConfig(train_size=20, validation_size=30, trials=3),
        roni_calibration_size=80,
    )
    history, arrivals, attack_arrivals, table = _gate_world()
    legacy = _legacy_gate(
        spec, table, 4, arrivals, attack_arrivals, history, SeedSpawner(3).rng("tick")
    )
    history_b, arrivals_b, attack_b, table_b = _gate_world()
    batched = RoniTickDefense(spec, table_b).gate(
        4, arrivals_b, attack_b, history_b, SeedSpawner(3).rng("tick")
    )
    assert _decision_fields(batched) == _decision_fields(legacy)
    assert legacy.attack_rejected > 0
    assert list(table_b) == list(table)
