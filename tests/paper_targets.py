"""The paper's reported numbers, for shape comparison.

Our substrate is a synthetic corpus, so absolute rates will not match
the paper digit-for-digit; what must hold is the *shape*: orderings,
saturation points, and the qualitative claims the paper states in
prose.  This module collects those claims as checkable data;
``tests/test_paper_claims.py`` asserts each one's shape predicate or
lists it as not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
__all__ = ["PaperClaim", "FIGURE1_CLAIMS", "FIGURE2_CLAIMS", "FIGURE3_CLAIMS", "RONI_CLAIMS", "FIGURE5_CLAIMS", "ALL_CLAIMS"]


@dataclass(frozen=True)
class PaperClaim:
    """One qualitative claim from the paper's evaluation."""

    artifact: str
    claim: str
    paper_value: str


FIGURE1_CLAIMS = (
    PaperClaim(
        artifact="Figure 1",
        claim="attack strength ordering is optimal >= usenet >= aspell at every fraction",
        paper_value="optimal (black) above usenet (blue) above aspell (green)",
    ),
    PaperClaim(
        artifact="Figure 1",
        claim="each attack renders the filter unusable at 1% control",
        paper_value="ham misclassified (spam-or-unsure) high at 1%; usenet ~36%+ as spam",
    ),
    PaperClaim(
        artifact="Figure 1",
        claim="solid (spam-or-unsure) lines dominate dashed (spam-only) lines",
        paper_value="unsure flooding precedes outright false positives",
    ),
    PaperClaim(
        artifact="Figure 1",
        claim="optimal attack saturates: all ham misclassified within a few percent control",
        paper_value="optimal curve at ~100% by low single-digit fractions",
    ),
)

FIGURE2_CLAIMS = (
    PaperClaim(
        artifact="Figure 2",
        claim="attack success increases monotonically with guess probability p",
        paper_value="bars shift from ham to spam as p goes 0.1 -> 0.9",
    ),
    PaperClaim(
        artifact="Figure 2",
        claim="p=0.3 already changes classification on a majority of targets",
        paper_value="~60% of targets leave ham at p=0.3 (300 attack emails)",
    ),
    PaperClaim(
        artifact="Figure 2",
        claim="with near-exact knowledge the target is misclassified ~90% of the time",
        paper_value="p=0.9: ~90% of targets as spam (abstract: 90%)",
    ),
)

FIGURE3_CLAIMS = (
    PaperClaim(
        artifact="Figure 3",
        claim="target misclassification rises with the number of attack emails",
        paper_value="monotone-increasing curves",
    ),
    PaperClaim(
        artifact="Figure 3",
        claim="a ~2% attack already misclassifies roughly a third of targets",
        paper_value="100 attack emails on 5,000: target misclassified 32% of the time",
    ),
)

RONI_CLAIMS = (
    PaperClaim(
        artifact="Section 5.1",
        claim="dictionary-attack and non-attack impact distributions are separable",
        paper_value="attack >= 6.8 ham-as-ham lost; non-attack spam <= 4.4",
    ),
    PaperClaim(
        artifact="Section 5.1",
        claim="RONI identifies 100% of dictionary attack emails",
        paper_value="100% detection",
    ),
    PaperClaim(
        artifact="Section 5.1",
        claim="RONI flags no non-attack emails",
        paper_value="0% false positives",
    ),
)

FIGURE5_CLAIMS = (
    PaperClaim(
        artifact="Figure 5",
        claim="with the dynamic threshold, ham is (almost) never classified as spam",
        paper_value="defended dashed lines at ~0 at all attack levels",
    ),
    PaperClaim(
        artifact="Figure 5",
        claim="defended ham misclassification stays well below the undefended filter",
        paper_value="defended solid lines far below no-defense solid line",
    ),
    PaperClaim(
        artifact="Figure 5",
        claim="the cost: almost all spam becomes unsure under attack",
        paper_value="spam-as-unsure ~100% even at 1% contamination",
    ),
    PaperClaim(
        artifact="Figure 5",
        claim="threshold-.05 has a wider unsure band than threshold-.10",
        paper_value="Threshold-.05 wider unsure range than Threshold-.10",
    ),
)

ALL_CLAIMS = FIGURE1_CLAIMS + FIGURE2_CLAIMS + FIGURE3_CLAIMS + RONI_CLAIMS + FIGURE5_CLAIMS
