"""The closed-form module: grid evaluation equals the scalar API point by
point, the herald terms reproduce the expanded heralded fringe, and the
documented limits of the optimal-attenuation column."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import icl
from icl import closed_forms as cf
from icl import heralding as her
from icl import interferometer as itf
from icl import metrics as met

GAINS = ((0.1, 0.1), (10.0, 3.0), (0.3, 0.01), (0.0, 0.2))
T_GRID = np.linspace(0.0, 1.0, 7)
N_B_GRID = np.array([0.0, 0.5, 10.0, 100.0])


def point(grid, k):
    """Point k of a FringeResult of arrays, as a FringeResult of floats."""
    return icl.FringeResult(
        float(grid.dc[k]), float(grid.amplitude[k]), float(grid.visibility[k])
    )


def mesh():
    n_b, T = np.meshgrid(N_B_GRID, T_GRID, indexing="ij")
    return T.ravel(), n_b.ravel()


class TestGridEqualsScalarApi:
    @pytest.mark.parametrize("v_a, v_b", GAINS)
    def test_two_and_three_source_fringes(self, v_a, v_b):
        T, n_b = mesh()
        two = itf.fringes(v_a, v_b, T, n_b)
        three = itf.fringes(v_a, v_b, T, n_b, v_c=0.7)
        for k, (t, nb) in enumerate(zip(T.tolist(), n_b.tolist())):
            assert point(two, k) == itf.fringe(itf.two_spdc(v_a, v_b, t, nb))
            assert point(three, k) == itf.fringe(itf.three_spdc(v_a, v_b, 0.7, t, nb))

    @pytest.mark.parametrize("v_a, v_b", GAINS)
    def test_bound_contrasts_and_snr(self, v_a, v_b):
        T, n_b = mesh()
        bound = cf.coherence_bound(v_a, T, n_b)
        atten = cf.optimal_attenuated_visibility(v_a, T, n_b)
        pair = cf.heralded_visibility_pair_limit(v_a, v_b, T)
        snr = cf.snr_unconditional(v_a, v_b, T, n_b, 0.3)
        for k, (t, nb) in enumerate(zip(T.tolist(), n_b.tolist())):
            topo = itf.two_spdc(v_a, v_b, t, nb)
            assert bound[k] == itf.g1_coherence(topo)
            assert atten[k] == met.optimal_attenuated_visibility(t, v_a, nb)
            assert pair[k] == her.heralded_visibility_pair_limit(topo)
            assert snr[k] == met.snr_unconditional(topo, 0.3).value

    def test_singles_broadcast_over_phase(self):
        topo = itf.two_spdc_attenuated(0.2, 0.4, 0.6, 3.0, 0.35)
        phis = np.linspace(0.0, math.pi, 9)
        n_plus, n_minus = cf.singles(0.2, 0.4, 0.6, 3.0, phis, kappa=0.35)
        for k, phi in enumerate(phis.tolist()):
            assert (n_plus[k], n_minus[k]) == itf.singles_fringe_analytic(topo, phi)


class TestHeraldTerms:
    @pytest.mark.parametrize("v_a, v_b, T", [(0.1, 0.1, 0.5), (0.25, 0.08, 0.7), (5.0, 2.0, 0.3)])
    def test_fringe_matches_expanded_form(self, v_a, v_b, T):
        u_a, u_b = 1.0 + v_a, 1.0 + v_b
        n_i = u_b * T * v_a + v_b
        dc = 0.5 * (v_a + v_b + T * v_a * v_b) + 0.5 * u_b / n_i * (
            v_b * (T * u_a) ** 2 + T * u_a * v_a
        )
        amplitude = math.sqrt(T * u_a * v_a * v_b) * (1.0 + u_b * T * u_a / n_i)
        got = cf.heralded_fringe(v_a, v_b, T)
        assert got == pytest.approx((n_i, dc, amplitude), rel=1e-12)

    def test_fringe_is_the_phase_average_and_swing_of_the_moments(self):
        v_a, v_b, T = 0.25, 0.08, 0.7
        n_i, n_s0, corr0 = cf.herald_moments(v_a, v_b, T, 0.0)
        _, n_s2, corr2 = cf.herald_moments(v_a, v_b, T, 0.5 * math.pi)
        _, dc, amplitude = cf.heralded_fringe(v_a, v_b, T)
        assert dc == pytest.approx(0.5 * (n_s0 + n_s2 + (corr0 + corr2) / n_i), rel=1e-12)
        assert amplitude == pytest.approx(0.5 * (n_s0 - n_s2 + (corr0 - corr2) / n_i), rel=1e-12)

    @pytest.mark.parametrize("n_b", [0.0, 1.0, 100.0])
    def test_pair_snr_is_unconditional_snr_without_background(self, n_b):
        heralded = met.snr_heralded(itf.two_spdc(0.1, 0.2, 0.4, n_b), 0.2, "pair")
        assert heralded == met.snr_unconditional(itf.two_spdc(0.1, 0.2, 0.4, 0.0), 0.2)


def exact_heralded_fringe(v_a, v_b, T) -> tuple[float, float]:
    """(dc, amplitude) in exact rational arithmetic on the float inputs,
    rounded once: amplitude = sqrt(T u_a V_A V_B) (1 + u_b T u_a / n_I)."""
    v_a, v_b, T = Fraction(v_a), Fraction(v_b), Fraction(T)
    u_a, u_b = 1 + v_a, 1 + v_b
    n_i = u_b * T * v_a + v_b
    dc = (v_a + v_b + T * v_a * v_b) / 2 + u_b * T * u_a * (T * u_a * v_b + v_a) / (2 * n_i)
    s1_sq = T * u_a * v_a * v_b
    with localcontext() as ctx:
        ctx.prec = 50
        s1 = (Decimal(s1_sq.numerator) / Decimal(s1_sq.denominator)).sqrt()
        factor = 1 + u_b * T * u_a / n_i
        amplitude = s1 * Decimal(factor.numerator) / Decimal(factor.denominator)
    return float(Decimal(dc.numerator) / Decimal(dc.denominator)), float(amplitude)


# (V_A, V_B, T) at which the herald terms once underflowed: the product
# V_A V_B under a square root, or c0 = O(T) against n_I = T at T = 5e-324.
SUBNORMAL_POINTS = [
    (2.2e-313, 2.2e-313, 1.0),
    (2.2e-309, 5e-324, 1.0),
    (5e-324, 2.2e-309, 0.5),
    (1.0, 0.0, 5e-324),
]
# Normal inputs whose product V_A V_B underflows all the same.
TINY_POINTS = [(1e-200, 1e-200, 1.0), (1e-160, 1e-170, 0.5)]


class TestTinyInputs:
    @pytest.mark.parametrize("v_a, v_b, T", SUBNORMAL_POINTS)
    def test_validators_reject_subnormal_inputs(self, v_a, v_b, T):
        with pytest.raises(ValueError, match="subnormal"):
            itf.two_spdc(v_a, v_b, T)

    @pytest.mark.parametrize("v_a, v_b, T", TINY_POINTS)
    def test_heralded_fringe_is_exact_and_matches_the_engine(self, v_a, v_b, T):
        _, dc, amplitude = cf.heralded_fringe(v_a, v_b, T)
        assert (dc, amplitude) == pytest.approx(exact_heralded_fringe(v_a, v_b, T), rel=1e-12)
        fitted = her.heralded_fringe_mode_matched(itf.two_spdc(v_a, v_b, T))
        assert (fitted.dc, fitted.amplitude) == pytest.approx((dc, amplitude), rel=1e-10)

    @pytest.mark.parametrize("v_a, v_b, T", TINY_POINTS)
    def test_signal_mean_is_the_fringe_at_each_phase(self, v_a, v_b, T):
        _, dc, amplitude = cf.heralded_fringe(v_a, v_b, T)
        for phi in (0.0, 0.25 * math.pi, 0.5 * math.pi):
            expected = dc + amplitude * math.cos(2.0 * phi)
            assert cf.heralded_signal_mean(v_a, v_b, T, phi) == pytest.approx(expected, abs=1e-12)

    def test_arm_coherence_takes_the_root_factor_by_factor(self):
        _, _, coh = cf.arm_moments(1e-200, 1e-200, 1.0, 0.0)
        assert coh == pytest.approx(1e-200, rel=1e-15)

    def test_dark_herald_is_nan(self):
        for v_a, v_b, T in ((0.3, 0.0, 0.0), (0.0, 0.0, 0.5)):
            assert np.isnan(cf.heralded_fringe(v_a, v_b, T)[1:]).all()
            assert np.isnan(cf.heralded_signal_mean(v_a, v_b, T, 0.0, 0.5, 0.1))
            assert np.isnan(cf.snr_heralded_general(v_a, v_b, T, 0.0))
        with pytest.raises(ValueError, match="no herald"):
            met.snr_heralded(itf.two_spdc(0.3, 0.0, 0.0), 0.0, "general")


class TestOptimalAttenuationLimits:
    def test_dark_arm_a_gives_zero(self):
        for T, n_b in ((0.0, 0.0), (0.5, 10.0), (1.0, 0.0)):
            assert met.optimal_attenuated_visibility(T, 0.0, n_b) == 0.0
            _, searched = met.attenuation_search(0.0, 0.1, T, n_b)
            assert searched == 0.0

    def test_negative_gain_still_raises(self):
        with pytest.raises(ValueError, match="gain"):
            met.optimal_attenuated_visibility(0.5, -0.1, 0.0)

    @pytest.mark.parametrize("v_a, v_b", [(0.1, 0.1), (0.3, 0.01), (2.0, 0.5), (0.05, 3.0)])
    @pytest.mark.parametrize("T", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n_b", [0.0, 10.0])
    def test_search_never_exceeds_closed_form(self, v_a, v_b, T, n_b):
        _, searched = met.attenuation_search(v_a, v_b, T, n_b)
        closed = met.optimal_attenuated_visibility(T, v_a, n_b)
        assert searched <= closed + 1e-12
        n1, n2, _ = itf.pre_splitter_moments(itf.two_spdc(v_a, v_b, T, n_b))
        if n2 <= n1:
            # attenuating arm B only unbalances it further: kappa -> 1
            plain = met.visibility(itf.two_spdc(v_a, v_b, T, n_b))
            assert searched == pytest.approx(plain, abs=1e-8)
        else:
            assert searched == pytest.approx(closed, abs=1e-6)

    def test_documented_example(self):
        closed = met.optimal_attenuated_visibility(0.5, 0.3, 0.0)
        kappa, searched = met.attenuation_search(0.3, 0.01, 0.5, 0.0)
        assert closed == pytest.approx(0.752, abs=5e-4)
        assert searched == pytest.approx(0.284, abs=5e-4)
        assert kappa == pytest.approx(1.0, abs=1e-6)


class TestMergedFringeResult:
    def test_heralded_fringe_is_the_same_class(self):
        assert her.HeraldedFringe is itf.FringeResult
        assert icl.HeraldedFringe is icl.FringeResult

    def test_heralded_fringe_returns_checked_result(self):
        fr = her.heralded_fringe_mode_matched(itf.two_spdc(0.1, 0.1, 0.5, 10.0))
        assert isinstance(fr, icl.FringeResult)

    @pytest.mark.parametrize(
        "dc, amplitude, visibility, message",
        [
            (-0.1, 0.0, 0.0, "non-negative"),
            (0.5, -0.1, -0.2, "non-negative"),
            (0.5, 0.6, 1.2, "exceeds"),
            (0.5, 0.25, 0.4, "inconsistent"),
            (1e-13, 1e-12, 1e-12 / 1e-13, "outside"),
        ],
    )
    def test_every_invariant_is_checked(self, dc, amplitude, visibility, message):
        with pytest.raises(ValueError, match=message):
            icl.HeraldedFringe(dc, amplitude, visibility)
        # the same point after 99 good ones of a grid
        good = np.array([0.5, 0.25, 0.5])
        grid = np.tile(good[:, None], 100)
        grid[:, -1] = dc, amplitude, visibility
        with pytest.raises(ValueError, match=message):
            icl.FringeResult(*grid)
        icl.FringeResult(*grid[:, :-1])

    def test_grid_error_names_the_first_bad_point(self):
        # point 1 breaks only the visibility range, point 2 the amplitude
        # rule first; the error is point 1's
        dc = np.array([0.5, 1e-13, 0.5])
        amplitude = np.array([0.25, 1e-12, 0.6])
        visibility = np.array([0.5, 1e-12 / 1e-13, 0.0])
        with pytest.raises(ValueError, match=r"^fringe visibility 10\.0 outside \[0, 1\]$"):
            icl.FringeResult(dc, amplitude, visibility)
