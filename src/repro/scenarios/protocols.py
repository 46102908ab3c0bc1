"""The preparation stage every pool-based protocol shares.

:func:`prepare_inbox` seed-spawns under the experiment's labels, lays
out the corpus handles, samples the inbox (or pool), then streams only
the sampled mail through generate → tokenize → encode against one
shared :class:`~repro.spambayes.token_table.TokenTable`.  The protocol
functions themselves live with their experiments, one module each
(:mod:`repro.scenarios.dictionary_exp` and its siblings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from repro.corpus.dataset import Dataset
from repro.corpus.trec import TrecStyleCorpus
from repro.rng import SeedSpawner

if TYPE_CHECKING:
    from repro.spambayes.token_table import TokenTable

__all__ = ["PreparedInbox", "prepare_inbox"]


@dataclass
class PreparedInbox:
    """Everything the pool-based protocols share after preparation."""

    spawner: SeedSpawner
    corpus: TrecStyleCorpus
    inbox: Dataset
    table: "TokenTable"


def prepare_inbox(
    config: Any,
    *,
    spawn_label: str,
    sample_label: str = "inbox",
    size_attr: str = "inbox_size",
) -> PreparedInbox:
    """Corpus → inbox → generate/tokenize/encode, under the historical labels.

    ``spawn_label`` and ``sample_label`` are the experiment's seed
    stream names ("dictionary-experiment"/"inbox",
    "roni-experiment"/"pool", ...) — they are part of each scenario's
    identity, because every downstream draw descends from them.

    The corpus is handles, so sampling draws from it without
    generating anything; only the sampled messages are then generated,
    one at a time in inbox order, and each keeps just its ID row.
    """
    spawner = SeedSpawner(config.seed).spawn(spawn_label)
    corpus = TrecStyleCorpus.generate(
        n_ham=config.corpus_ham,
        n_spam=config.corpus_spam,
        profile=config.profile,
        seed=spawner.child_seed("corpus"),
    )
    inbox = corpus.dataset.sample_inbox(
        getattr(config, size_attr), config.spam_prevalence, spawner.rng(sample_label)
    )
    # Encode once: the full model, every fold worker, every defense and
    # every evaluation reuses these arrays and this table.
    table = inbox.encode()
    return PreparedInbox(spawner, corpus, inbox, table)
