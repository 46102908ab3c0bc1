"""Clean-room reimplementation of the SpamBayes statistical learner.

This package implements the algorithm described in Section 2.3 of
Nelson et al. (2008), which is Robinson's smoothed token scoring
combined with Fisher's chi-square method (Robinson 2003; Meyer &
Whateley 2004):

* :mod:`repro.spambayes.tokenizer` — header/body tokenization,
* :mod:`repro.spambayes.token_table` — str <-> int token interning,
* :mod:`repro.spambayes.classifier` — token statistics over interned-ID
  count columns, Equations 1-4,
* :mod:`repro.spambayes.filter` — the three-way ham/unsure/spam filter,
* :mod:`repro.spambayes.chi2` — the chi-square survival function used by
  Fisher's method, with the same underflow handling as SpamBayes,
* :mod:`repro.spambayes.persistence` — save/load of trained state.

The public names most callers need are re-exported here.
"""

from repro.lazy import lazy_exports

# Imported on first use: the token table and tokenizer load without
# the classifier's NumPy.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.spambayes.chi2": ("chi2q", "fisher_combine"),
    "repro.spambayes.classifier": ("Classifier", "ClassifierSnapshot", "TokenScore"),
    "repro.spambayes.token_table": ("TokenTable",),
    "repro.spambayes.filter": ("Label", "SpamFilter", "ClassifiedMessage"),
    "repro.spambayes.message": ("Email",),
    "repro.spambayes.options": ("ClassifierOptions", "DEFAULT_OPTIONS"),
    "repro.spambayes.tokenizer": ("Tokenizer",),
    "repro.spambayes.wordinfo": ("WordInfo",),
})
