"""The built-in scenario catalogue.

The paper's evaluation (Table 1, Figures 1–5, Section 5.1), one
beyond-the-paper evasion study, the time-ordered ``stream-*`` family
(:mod:`repro.stream`), and the cross-product scenarios the declarative
registry makes cheap: each registration is a
:class:`~repro.scenarios.spec.ScenarioSpec` naming a protocol, a
config dataclass and a handful of default overrides — ~20 lines buys
a new attack × defense combination that previously required a
bespoke driver.

Registration happens when :mod:`repro.scenarios` is imported, so every
process — parent, engine worker, CLI, CI — sees the identical
catalogue.
"""

from __future__ import annotations

from repro.scenarios.dictionary_exp import DictionaryExperimentConfig
from repro.scenarios.focused_exp import FocusedExperimentConfig
from repro.scenarios.goodword_exp import GoodWordExperimentConfig
from repro.scenarios.registry import register_scenario
from repro.scenarios.roni_exp import PAPER_VARIANTS, RoniExperimentConfig
from repro.scenarios.table1_exp import Table1Config
from repro.scenarios.threshold_exp import ThresholdExperimentConfig
from repro.scenarios.token_shift_exp import TokenShiftExperimentConfig
from repro.scenarios.spec import ScenarioSpec
from repro.stream.spec import StreamSpec

__all__ = ["BUILTIN_SCENARIOS", "register_builtin_scenarios"]

BUILTIN_SCENARIOS: tuple[ScenarioSpec, ...] = (
    # ------------------------------------------------------------------
    # The paper's artifacts
    # ------------------------------------------------------------------
    ScenarioSpec(
        name="figure1-dictionary",
        title="Dictionary attacks vs percent control of the training set",
        protocol="dictionary-sweep",
        config_type=DictionaryExperimentConfig,
        attack_grid=("optimal", "usenet", "aspell"),
        metrics=("ham_as_spam_rate", "ham_misclassified_rate"),
        paper_artifact="Figure 1",
        description="K-fold contamination sweep per dictionary variant, "
        "ham misclassification pooled over folds (Section 4.2).",
    ),
    ScenarioSpec(
        name="figure2-focused-knowledge",
        title="Focused attack vs attacker knowledge (guess probability)",
        protocol="focused-knowledge",
        config_type=FocusedExperimentConfig,
        attack_grid=("focused",),
        metrics=("target_label_mix", "attack_success_rate"),
        paper_artifact="Figure 2",
        description="Per-target attacks at p in {0.1, 0.3, 0.5, 0.9}; "
        "fraction of targets landing ham/unsure/spam (Section 4.3).",
    ),
    ScenarioSpec(
        name="figure3-focused-size",
        title="Focused attack vs number of attack emails",
        protocol="focused-size",
        config_type=FocusedExperimentConfig,
        attack_grid=("focused",),
        metrics=("ham_as_spam_rate", "ham_misclassified_rate"),
        paper_artifact="Figure 3",
        description="p fixed at 0.5, attack size swept as a fraction of "
        "the training set (Section 4.3).",
    ),
    ScenarioSpec(
        name="figure4-token-shift",
        title="Token score shift of focused-attack targets",
        protocol="token-shift",
        config_type=TokenShiftExperimentConfig,
        attack_grid=("focused",),
        metrics=("included_mean_delta", "excluded_mean_delta", "label_after"),
        paper_artifact="Figure 4",
        description="Every target token's f(w) before and after its focused "
        "attack (p = 0.5); one panel per outcome (Section 4.3).",
    ),
    ScenarioSpec(
        name="roni-defense",
        title="RONI incremental-impact separation of dictionary attacks",
        protocol="roni-gate",
        config_type=RoniExperimentConfig,
        attack_grid=PAPER_VARIANTS,
        defense_stack=("roni",),
        metrics=("min_attack_impact", "max_nonattack_impact", "detection_rate"),
        paper_artifact="Section 5.1",
        description="Ham-as-ham impact distributions of seven dictionary "
        "variants vs non-attack spam under the RONI gate.",
    ),
    ScenarioSpec(
        name="figure5-threshold",
        title="Dynamic threshold defense under the usenet dictionary attack",
        protocol="threshold-arms",
        config_type=ThresholdExperimentConfig,
        attack_grid=("usenet",),
        defense_stack=("dynamic-threshold",),
        metrics=("ham_as_spam_rate", "ham_misclassified_rate", "spam_as_unsure_rate"),
        paper_artifact="Figure 5",
        description="Static vs g-quantile-fitted thresholds over the same "
        "poisoned models (Section 5.2).",
    ),
    ScenarioSpec(
        name="table1-parameters",
        title="The experiments' parameters",
        protocol="table1",
        config_type=Table1Config,
        paper_artifact="Table 1",
        description="Training/test sizes, spam prevalence, attack fractions, "
        "validation and target emails of each experiment.",
    ),
    # ------------------------------------------------------------------
    # Beyond the paper
    # ------------------------------------------------------------------
    ScenarioSpec(
        name="goodword-evasion",
        title="Good-word evasion cost (Lowd & Meek)",
        protocol="goodword-evasion",
        config_type=GoodWordExperimentConfig,
        attack_grid=("goodword-common", "goodword-oracle"),
        metrics=("evasion_rate", "median_words_to_evade"),
        description="Words-to-evade distribution for blind common-word vs "
        "score-oracle padding (Exploratory/Integrity quadrant).",
    ),
    # ------------------------------------------------------------------
    # Cross-product scenarios: new attack × defense compositions that
    # are registrations, not drivers.
    # ------------------------------------------------------------------
    ScenarioSpec(
        name="aspell-vs-threshold",
        title="Dynamic threshold defense under the aspell dictionary attack",
        protocol="threshold-arms",
        config_type=ThresholdExperimentConfig,
        defaults={"attack_variant": "aspell"},
        attack_grid=("aspell",),
        defense_stack=("dynamic-threshold",),
        metrics=("ham_as_spam_rate", "ham_misclassified_rate", "spam_as_unsure_rate"),
        description="Figure 5's protocol crossed with the weaker aspell "
        "dictionary: does the defense's margin grow when the attack "
        "misses colloquial ham vocabulary?",
    ),
    ScenarioSpec(
        name="dictionary-vs-none",
        title="Undefended baseline: the usenet dictionary attack, no defense",
        protocol="dictionary-sweep",
        config_type=DictionaryExperimentConfig,
        defaults={"variants": ("usenet",)},
        attack_grid=("usenet",),
        metrics=("ham_as_spam_rate", "ham_misclassified_rate"),
        description="The single-variant undefended contamination sweep — "
        "the control arm every defense scenario is compared against, and "
        "the standard subject of multi-seed replications "
        "(repro replicate dictionary-vs-none --seeds 8).",
    ),
    ScenarioSpec(
        name="focused-vs-roni",
        title="RONI gate vs the targeted focused attack",
        protocol="roni-gate",
        config_type=RoniExperimentConfig,
        defaults={"variants": ("focused", "usenet")},
        attack_grid=("focused", "usenet"),
        defense_stack=("roni",),
        metrics=("min_attack_impact", "max_nonattack_impact", "separable"),
        description="The paper's Section 5.1 caveat made runnable: focused "
        "attack email damages one future message, not the broad validation "
        "ham RONI watches — so the gate that separates dictionary attacks "
        "perfectly should fail to flag it.",
    ),
    # ------------------------------------------------------------------
    # The streaming family: time-ordered Section 2.1 deployments
    # (repro.stream).  x is the tick (week) number, so `repro
    # replicate stream-*` pools per-tick error bars over seeds.
    # ------------------------------------------------------------------
    ScenarioSpec(
        name="stream-dictionary-ramp",
        title="Linearly ramping usenet dictionary attack, undefended",
        protocol="stream",
        config_type=StreamSpec,
        defaults={
            "ramp": "linear",
            "ramp_ticks": 4,
            "attack_per_tick": 24,
            "measure_clean": True,
        },
        attack_grid=("usenet",),
        metrics=("ham_as_spam_rate", "ham_misclassified_rate", "clean_delta"),
        description="A cautious attacker ramps 6 -> 24 messages/tick over "
        "four retrains; the stream-clean counterfactual series (the clean "
        "twin trained only on accepted non-attack mail) isolates the damage.",
    ),
    ScenarioSpec(
        name="stream-dictionary-vs-roni",
        title="Constant usenet dictionary stream vs the RONI gate",
        protocol="stream",
        config_type=StreamSpec,
        defaults={
            "ticks": 6,
            "ham_per_tick": 40,
            "spam_per_tick": 40,
            "attack_start_tick": 3,
            "attack_per_tick": 10,
            "defense": "roni",
            "roni_calibration_size": 100,
            "test_size": 120,
        },
        attack_grid=("usenet",),
        defense_stack=("roni",),
        metrics=("ham_misclassified_rate", "attack_rejected", "legitimate_rejected"),
        description="The Section 2.1 deployment defended: the gate "
        "recalibrates each tick on accepted mail and should reject the "
        "dictionary stream wholesale once warmed up.",
    ),
    ScenarioSpec(
        name="stream-focused-vs-roni",
        title="Focused attack stream vs the RONI gate",
        protocol="stream",
        config_type=StreamSpec,
        defaults={
            "ticks": 6,
            "ham_per_tick": 40,
            "spam_per_tick": 40,
            "attack_start_tick": 3,
            "attack_per_tick": 10,
            "attack_variant": "focused",
            "defense": "roni",
            "roni_calibration_size": 100,
            "test_size": 120,
        },
        attack_grid=("focused",),
        defense_stack=("roni",),
        metrics=("ham_misclassified_rate", "attack_rejected"),
        description="The Section 5.1 caveat over time: focused attack "
        "email targets one future message, so the broad-validation gate "
        "that stops dictionary streams should keep letting it through.",
    ),
    ScenarioSpec(
        name="stream-usenet-burst",
        title="One-tick usenet dictionary burst, undefended",
        protocol="stream",
        config_type=StreamSpec,
        defaults={"ramp": "burst", "ramp_ticks": 4, "attack_per_tick": 12},
        attack_grid=("usenet",),
        metrics=("ham_as_spam_rate", "ham_misclassified_rate"),
        description="The constant campaign's whole budget (4 ticks x 12 "
        "messages) lands in a single retraining period — how fast does "
        "the filter fall, and does it recover as clean mail keeps "
        "arriving?",
    ),
    ScenarioSpec(
        name="stream-threshold-over-time",
        title="Per-tick refitted thresholds under a constant dictionary stream",
        protocol="stream",
        config_type=StreamSpec,
        defaults={"defense": "threshold", "threshold_quantile": 0.10},
        attack_grid=("usenet",),
        defense_stack=("dynamic-threshold",),
        metrics=("ham_misclassified_rate", "spam_as_unsure_rate"),
        description="Figure 5's defense deployed the way Section 2.1 "
        "implies: (θ0, θ1) refitted after every retrain on the poisoned "
        "history, the held-out evaluation run under the fitted cutoffs.",
    ),
    ScenarioSpec(
        name="stream-clean-control",
        title="Attack-free control stream",
        protocol="stream",
        config_type=StreamSpec,
        defaults={"attack_per_tick": 0},
        metrics=("ham_as_spam_rate", "ham_misclassified_rate"),
        description="The undefended stream with no attacker: the "
        "per-tick baseline every stream-* scenario's curves are read "
        "against (and the natural subject of replicate error bars).",
    ),
)


def register_builtin_scenarios() -> None:
    """Register the catalogue (idempotent — safe on re-import)."""
    for spec in BUILTIN_SCENARIOS:
        register_scenario(spec)
