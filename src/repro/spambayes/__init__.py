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

from repro.spambayes.chi2 import chi2q, fisher_combine
from repro.spambayes.classifier import Classifier, ClassifierSnapshot, TokenScore
from repro.spambayes.filter import Label, SpamFilter, ClassifiedMessage
from repro.spambayes.message import Email
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import Tokenizer, tokenize_text
from repro.spambayes.wordinfo import WordInfo

__all__ = [
    "chi2q",
    "fisher_combine",
    "Classifier",
    "ClassifierSnapshot",
    "TokenScore",
    "TokenTable",
    "Label",
    "SpamFilter",
    "ClassifiedMessage",
    "Email",
    "ClassifierOptions",
    "DEFAULT_OPTIONS",
    "Tokenizer",
    "tokenize_text",
    "WordInfo",
]
