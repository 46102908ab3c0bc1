"""Table 1 of the paper: the experimental parameters, as data.

Keeping the table as structured constants means (a) the scenario that
regenerates Table 1 can simply print it, (b) tests can assert that the
paper-scale experiment configurations really use these values, and
(c) the scaled-down defaults elsewhere are visibly *derived* from the
paper values rather than invented.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Table1Row",
    "TABLE1",
    "DICTIONARY_PARAMS",
    "FOCUSED_PARAMS",
    "RONI_PARAMS",
    "THRESHOLD_PARAMS",
]


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One column of the paper's Table 1 (one experiment's parameters)."""

    experiment: str
    training_set_sizes: tuple[int, ...]
    test_set_sizes: tuple[int, ...]
    spam_prevalences: tuple[float, ...]
    attack_fractions: tuple[float, ...]
    validation: str
    target_emails: int | None = None

    def as_cells(self) -> dict[str, str]:
        """Render the row as printable table cells."""
        def fmt_sizes(values: tuple) -> str:
            return ", ".join(f"{v:,}" if isinstance(v, int) else f"{v:g}" for v in values)

        return {
            "Parameter": self.experiment,
            "Training set size": fmt_sizes(self.training_set_sizes) or "N/A",
            "Test set size": fmt_sizes(self.test_set_sizes) or "N/A",
            "Spam prevalence": fmt_sizes(self.spam_prevalences),
            "Attack fraction": fmt_sizes(self.attack_fractions),
            "Folds of validation": self.validation,
            "Target emails": str(self.target_emails) if self.target_emails else "N/A",
        }


DICTIONARY_PARAMS = Table1Row(
    experiment="Dictionary Attack",
    training_set_sizes=(2_000, 10_000),
    test_set_sizes=(200, 1_000),
    spam_prevalences=(0.50, 0.75),
    attack_fractions=(0.001, 0.005, 0.01, 0.02, 0.05, 0.10),
    validation="10",
)

FOCUSED_PARAMS = Table1Row(
    experiment="Focused Attack",
    training_set_sizes=(5_000,),
    test_set_sizes=(),
    spam_prevalences=(0.50,),
    attack_fractions=tuple(round(0.02 * i, 2) for i in range(1, 26)),
    validation="5 repetitions",
    target_emails=20,
)

RONI_PARAMS = Table1Row(
    experiment="RONI Defense",
    training_set_sizes=(20,),
    test_set_sizes=(50,),
    spam_prevalences=(0.50,),
    attack_fractions=(0.05,),
    validation="5 repetitions",
)

THRESHOLD_PARAMS = Table1Row(
    experiment="Threshold Defense",
    training_set_sizes=(2_000, 10_000),
    test_set_sizes=(200, 1_000),
    spam_prevalences=(0.50,),
    attack_fractions=(0.001, 0.01, 0.05, 0.10),
    validation="5",
)

TABLE1 = (DICTIONARY_PARAMS, FOCUSED_PARAMS, RONI_PARAMS, THRESHOLD_PARAMS)
"""The full Table 1, column order as printed in the paper."""
