"""A generated corpus pickles as its seed.

A vocabulary ``Vocabulary.build`` made pickles as ``(profile, seed)``,
and an ``EmailGenerator`` as ``(vocabulary, config, seed)``; both
rebuild through a per-process weak cache.  So a corpus handle is a few
hundred bytes on the wire, a process that unpickles it (spawned or
forked) loads the same email, and nothing keeps a dropped corpus
alive.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.corpus import generator as generator_module
from repro.corpus import vocabulary as vocabulary_module
from repro.corpus.generator import EmailGenerator, GeneratorConfig
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import SMALL_PROFILE, TINY_PROFILE, Vocabulary

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _generator_id(blob: bytes) -> int:
    return id(pickle.loads(blob)._source.generator)


def _keys(corpus: TrecStyleCorpus) -> tuple[tuple, tuple]:
    vocabulary, generator = corpus.vocabulary, corpus.generator
    return (
        (vocabulary.profile, vocabulary.seed),
        (vocabulary.profile, vocabulary.seed, generator.config, generator.seed),
    )


class TestHandlePickles:
    def test_generated_handle_pickles_under_a_kilobyte(self):
        corpus = TrecStyleCorpus.generate(700, 700, profile=SMALL_PROFILE, seed=3)
        blob = pickle.dumps(corpus.dataset[0])
        assert len(blob) < 1024
        loaded = pickle.loads(blob)
        assert loaded._source.generator is corpus.generator
        assert loaded.email.as_text() == corpus.dataset[0].email.as_text()
        # A RONI query batch ships eight spam handles: one corpus seed
        # plus a few bytes per index.
        assert len(pickle.dumps(tuple(corpus.dataset.spam[:8]))) < 1024

    def test_spawned_interpreter_loads_the_same_email(self):
        corpus = TrecStyleCorpus.generate(40, 40, profile=TINY_PROFILE, seed=8)
        handles = [corpus.dataset[0], corpus.dataset.spam[0], corpus.dataset.ham[0]]
        script = (
            "import pickle, sys\n"
            "handles = pickle.loads(sys.stdin.buffer.read())\n"
            "sys.stdout.buffer.write(pickle.dumps([h.email.as_text() for h in handles]))\n"
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(handles),
            capture_output=True,
            env=env,
            check=False,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert pickle.loads(result.stdout) == [h.email.as_text() for h in handles]

    def test_forked_worker_finds_the_parents_generator(self):
        corpus = TrecStyleCorpus.generate(40, 40, profile=TINY_PROFILE, seed=9)
        blob = pickle.dumps(corpus.dataset[0])
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_generator_id, (blob,)) == id(corpus.generator)

    def test_hand_made_vocabulary_pickles_by_value(self, tiny_vocabulary):
        hand_made = dataclasses.replace(tiny_vocabulary)
        assert tiny_vocabulary.seeded and not hand_made.seeded
        clone = pickle.loads(pickle.dumps(hand_made))
        assert clone == hand_made and clone is not tiny_vocabulary
        generator = EmailGenerator(hand_made, GeneratorConfig(spam_domain_count=7), seed=4)
        twin = pickle.loads(pickle.dumps(generator))
        assert twin is not generator
        assert twin.spam_email(3).as_text() == generator.spam_email(3).as_text()


class TestWeakCache:
    def test_no_entry_outlives_the_corpus(self):
        corpus = TrecStyleCorpus.generate(30, 30, profile=TINY_PROFILE, seed=7_654_321)
        vocabulary_key, generator_key = _keys(corpus)
        assert vocabulary_module._BUILT[vocabulary_key] is corpus.vocabulary
        assert generator_module._LIVE[generator_key] is corpus.generator
        # A handle unpickled in this process holds the same generator.
        handle = pickle.loads(pickle.dumps(corpus.dataset[0]))
        del corpus
        gc.collect()
        assert vocabulary_key in vocabulary_module._BUILT
        assert generator_key in generator_module._LIVE
        del handle
        gc.collect()
        assert vocabulary_key not in vocabulary_module._BUILT
        assert generator_key not in generator_module._LIVE

    def test_build_returns_the_live_vocabulary(self):
        first = Vocabulary.build(TINY_PROFILE, seed=7_654_322)
        assert Vocabulary.build(TINY_PROFILE, seed=7_654_322) is first
        assert Vocabulary.build(TINY_PROFILE, seed=7_654_323) is not first
