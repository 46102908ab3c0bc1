"""Synthetic email corpus substrate.

The paper evaluates on the TREC 2005 spam corpus (92,189 Enron-derived
emails) and builds attack dictionaries from the GNU Aspell word list
and a Usenet corpus.  None of those are redistributable here, so this
package generates a *deterministic synthetic equivalent* that preserves
every property the attacks exercise — see DESIGN.md §4 for the
substitution argument.

Layers, bottom to top:

* :mod:`repro.corpus.vocabulary` — the word universe, partitioned into
  slices (shared core, formal-only, colloquial-only, topics, entities)
  whose dictionary membership is controlled;
* :mod:`repro.corpus.wordlists` — the attacker's word sources: a
  synthetic Aspell dictionary and a frequency-ranked Usenet list;
* :mod:`repro.corpus.language_model` — Zipfian unigram mixtures for
  ham and spam text;
* :mod:`repro.corpus.generator` — full :class:`~repro.spambayes.message.Email` synthesis with
  headers;
* :mod:`repro.corpus.dataset` — message handles, labeled datasets,
  folds, inbox sampling, ID encoding;
* :mod:`repro.corpus.trec` — the TREC-2005-style bundle used by the
  experiments, plus a loader for the real corpus when available.
"""

from repro.corpus.dataset import Dataset, LabeledMessage
from repro.corpus.generator import EmailGenerator, GeneratorConfig
from repro.corpus.language_model import HamLanguageModel, SpamLanguageModel, ZipfSampler
from repro.corpus.trec import TrecStyleCorpus, TREC05_HAM_COUNT, TREC05_SPAM_COUNT
from repro.corpus.vocabulary import Vocabulary, VocabularyProfile, PAPER_PROFILE, SMALL_PROFILE
from repro.corpus.wordlists import AttackWordlist, build_aspell_dictionary, build_usenet_wordlist

__all__ = [
    "Dataset",
    "LabeledMessage",
    "EmailGenerator",
    "GeneratorConfig",
    "HamLanguageModel",
    "SpamLanguageModel",
    "ZipfSampler",
    "TrecStyleCorpus",
    "TREC05_HAM_COUNT",
    "TREC05_SPAM_COUNT",
    "Vocabulary",
    "VocabularyProfile",
    "PAPER_PROFILE",
    "SMALL_PROFILE",
    "AttackWordlist",
    "build_aspell_dictionary",
    "build_usenet_wordlist",
]
