"""repro — reproduction of "Exploiting Machine Learning to Subvert Your
Spam Filter" (Nelson et al., 2008).

The library provides four layers, each usable on its own:

* :mod:`repro.spambayes` — a clean-room SpamBayes learner (tokenizer,
  Robinson/Fisher classifier, three-way filter),
* :mod:`repro.corpus` — a deterministic TREC-2005-style synthetic email
  corpus plus the Aspell/Usenet attack word sources,
* :mod:`repro.attacks` — Causative Availability attacks: the optimal,
  Aspell-dictionary and Usenet-dictionary attacks and the focused
  attack,
* :mod:`repro.defenses` — the RONI and dynamic-threshold defenses,
* :mod:`repro.scenarios` — the paper's experiments, one module each,
  run by name through a registry; :mod:`repro.experiments` and
  :mod:`repro.analysis` hold the shared records, metrics and reporting.

Quickstart::

    from repro import SpamFilter, TrecStyleCorpus

    corpus = TrecStyleCorpus.generate(n_ham=500, n_spam=500, seed=7)
    filt = SpamFilter()
    for message in corpus.messages:
        filt.train(message.email, message.is_spam)
    print(filt.classify(corpus.messages[0].email))
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

# Each name imports its module on first use, so ``import repro`` (and
# so every ``repro`` submodule import) loads neither NumPy nor the
# corpus generator.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.errors": (
        "ReproError",
        "ConfigurationError",
        "CorpusError",
        "MessageParseError",
        "TrainingError",
        "AttackError",
        "DefenseError",
        "ExperimentError",
        "PersistenceError",
    ),
    "repro.rng": ("DEFAULT_SEED", "SeedSpawner"),
    "repro.spambayes": (
        "Classifier",
        "ClassifierOptions",
        "ClassifiedMessage",
        "DEFAULT_OPTIONS",
        "Email",
        "Label",
        "SpamFilter",
        "Tokenizer",
    ),
    "repro.corpus": ("TrecStyleCorpus",),
})
__all__.insert(0, "__version__")

