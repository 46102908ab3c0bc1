"""Unit and property tests for the chi-square machinery."""

from __future__ import annotations

import math

import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.spambayes import ndkernel
from repro.spambayes.chi2 import chi2q, fisher_combine, ln_product


class TestChi2Q:
    def test_matches_scipy_survival_function(self):
        for x2 in (0.1, 1.0, 5.0, 10.0, 50.0, 200.0):
            for dof in (2, 4, 10, 100, 300):
                expected = scipy.stats.chi2.sf(x2, dof)
                assert chi2q(x2, dof) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_zero_statistic_has_full_mass_above(self):
        assert chi2q(0.0, 2) == 1.0
        assert chi2q(-3.0, 8) == 1.0

    def test_huge_statistic_underflows_to_zero(self):
        assert chi2q(1e9, 2) == 0.0

    def test_result_clamped_to_one(self):
        # Large dof with small x2: the series sums to ~1 and must not
        # exceed it through rounding.
        assert chi2q(1e-9, 1000) <= 1.0

    def test_odd_degrees_rejected(self):
        with pytest.raises(ConfigurationError):
            chi2q(1.0, 3)

    def test_nonpositive_degrees_rejected(self):
        with pytest.raises(ConfigurationError):
            chi2q(1.0, 0)
        with pytest.raises(ConfigurationError):
            chi2q(1.0, -2)

    @given(
        x2=st.floats(min_value=0.0, max_value=500.0),
        half_dof=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60)
    def test_is_probability(self, x2: float, half_dof: int):
        value = chi2q(x2, 2 * half_dof)
        assert 0.0 <= value <= 1.0

    @given(
        half_dof=st.integers(min_value=1, max_value=50),
        x2=st.floats(min_value=0.01, max_value=200.0),
        step=st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_monotone_decreasing_in_statistic(self, half_dof: int, x2: float, step: float):
        assert chi2q(x2 + step, 2 * half_dof) <= chi2q(x2, 2 * half_dof) + 1e-12


class TestLnProduct:
    def test_matches_sum_of_logs(self):
        values = [0.3, 0.7, 0.0001, 0.99]
        assert ln_product(values) == pytest.approx(sum(math.log(v) for v in values))

    def test_survives_underflow(self):
        # 400 factors of 1e-5 underflow a double (1e-2000) but not the
        # frexp accumulator.
        values = [1e-5] * 400
        assert ln_product(values) == pytest.approx(400 * math.log(1e-5), rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ln_product([0.5, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ln_product([-0.1])

    def test_empty_is_zero(self):
        assert ln_product([]) == 0.0

    @given(st.lists(st.floats(min_value=1e-10, max_value=1.0), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_agrees_with_naive_sum(self, values: list[float]):
        assert ln_product(values) == pytest.approx(
            sum(math.log(v) for v in values), rel=1e-9, abs=1e-9
        )


class TestFisherCombine:
    def test_empty_scores_carry_no_evidence(self):
        assert fisher_combine([]) == 1.0

    def test_all_high_scores_give_high_combined(self):
        assert fisher_combine([0.99] * 20) > 0.99

    def test_all_low_scores_give_low_combined(self):
        assert fisher_combine([0.01] * 20) < 0.01

    def test_neutral_scores_stay_middling(self):
        value = fisher_combine([0.5] * 10)
        assert 0.05 < value < 0.95

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=150))
    @settings(max_examples=50)
    def test_is_probability(self, scores: list[float]):
        assert 0.0 <= fisher_combine(scores) <= 1.0

    @given(
        scores=st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=50),
        index=st.integers(min_value=0, max_value=49),
        bump=st.floats(min_value=0.001, max_value=0.04),
    )
    @settings(max_examples=50)
    def test_monotone_in_each_score(self, scores: list[float], index: int, bump: float):
        """Raising any single token score cannot lower the combined
        statistic — the monotonicity the Section 3.4 optimal-attack
        argument rests on."""
        index %= len(scores)
        bumped = list(scores)
        bumped[index] = min(1.0, bumped[index] + bump)
        assert fisher_combine(bumped) >= fisher_combine(scores) - 1e-12


# Statistics across the scalar series' branches: the early-outs at
# x2 <= 0 and x2/2 > 708 (and exactly at 708), and ordinary values.
_statistics = st.one_of(
    st.floats(min_value=-1e6, max_value=0.0),
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=1415.0, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, 1416.0, math.nextafter(1416.0, math.inf)]),
)
# Mixed degrees in no particular order: 0 (an empty message), 1 (no
# series steps), and both sides of max_discriminators.
_degrees = st.one_of(st.sampled_from([0, 1, 2, 150, 151]), st.integers(0, 160))


def _series(x2: float, degree: int) -> float:
    """The pure kernel's tail; a degree-0 row runs the degree-1 series."""
    return chi2q(x2, 2 * max(degree, 1))


@pytest.mark.skipif(not ndkernel.available(), reason="needs numpy")
class TestVectorizedSurvival:
    """``ndkernel._chi2_survival`` is the pure ``chi2q`` bit for bit."""

    @given(st.lists(st.tuples(_statistics, _degrees), min_size=1, max_size=40))
    @example([(1416.0, 151), (-0.0, 0), (1e-300, 150), (3.0, 2), (700.0, 1), (2.5, 0)])
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_series(self, rows):
        np = ndkernel.np
        x2 = np.array([value for value, _ in rows])
        degrees = np.array([degree for _, degree in rows], dtype=np.int64)
        expected = [_series(value, degree) for value, degree in rows]
        assert ndkernel._chi2_survival(x2, degrees).tolist() == expected

    @given(st.lists(st.tuples(_statistics, _statistics, _degrees), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_stacked_sides_share_degrees(self, rows):
        """The combiner's spam and ham rows run in one pass."""
        np = ndkernel.np
        x2 = np.array([[spam for spam, _, _ in rows], [ham for _, ham, _ in rows]])
        degrees = np.array([degree for _, _, degree in rows], dtype=np.int64)
        expected = [
            [_series(spam, degree) for spam, _, degree in rows],
            [_series(ham, degree) for _, ham, degree in rows],
        ]
        assert ndkernel._chi2_survival(x2, degrees).tolist() == expected
