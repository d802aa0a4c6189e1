"""Topology, fringe, and coherence-bound tests for all three layouts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl import gaussian as g
from icl import interferometer as itf

# Frozen reference values at V_A = V_B = 0.1, T = 0.5, N_B = 10:
# dc = 0.705, ac = 2 sqrt(0.0055) = 0.14832396974191325.
N_PLUS_REF = 0.42666198487095663
AC_REF = 0.14832396974191325
G1_REF = 0.30151134457776363


def reference_topology():
    return itf.two_spdc(0.1, 0.1, 0.5, 10.0)


class TestTopologyValidation:
    def test_crystal_c_only_for_three_source(self):
        with pytest.raises(ValueError):
            itf.Topology(
                itf.TopologyKind.TWO_SPDC,
                g.SqueezerParams(0.1),
                g.SqueezerParams(0.1),
                g.ObjectPort(0.5),
                crystal_c=g.SqueezerParams(0.1),
            )
        with pytest.raises(ValueError):
            itf.Topology(
                itf.TopologyKind.THREE_SPDC,
                g.SqueezerParams(0.1),
                g.SqueezerParams(0.1),
                g.ObjectPort(0.5),
            )

    def test_attenuation_only_for_attenuated(self):
        with pytest.raises(ValueError):
            itf.Topology(
                itf.TopologyKind.TWO_SPDC,
                g.SqueezerParams(0.1),
                g.SqueezerParams(0.1),
                g.ObjectPort(0.5),
                attenuation=0.3,
            )

    def test_attenuation_bounds(self):
        with pytest.raises(ValueError):
            itf.two_spdc_attenuated(0.1, 0.1, 0.5, 0.0, 1.5)


class TestSinglesAnalytic:
    def test_reference_value(self):
        n_plus, n_minus = itf.singles_fringe_analytic(reference_topology(), 0.0)
        assert n_plus == pytest.approx(N_PLUS_REF, abs=1e-12)
        assert n_plus + n_minus == pytest.approx(0.705, abs=1e-12)

    def test_opaque_object_has_no_fringe(self):
        topo = itf.two_spdc(0.1, 0.1, 0.0, 10.0)
        values = {itf.singles_fringe_analytic(topo, phi)[0] for phi in (0.0, 0.4, 1.1)}
        assert max(values) - min(values) < 1e-15
        n_plus, _ = itf.singles_fringe_analytic(topo, 0.0)
        assert 2.0 * n_plus == pytest.approx(0.1 + 0.1 + 10.0 * 0.1, abs=1e-12)

    def test_output_sum_is_phase_independent(self):
        topo = reference_topology()
        sums = [sum(itf.singles_fringe_analytic(topo, phi)) for phi in (0.0, 0.3, 0.9, 1.5)]
        assert max(sums) - min(sums) < 1e-14


class TestEngineEquivalence:
    def test_two_source_grid(self):
        for T in np.linspace(0.0, 1.0, 5):
            for n_b in np.linspace(0.0, 10.0, 5):
                topo = itf.two_spdc(0.1, 0.1, T, n_b)
                for phi in np.linspace(0.0, math.pi, 5):
                    a = itf.singles_fringe_analytic(topo, phi)
                    e = itf.singles_fringe_engine(topo, phi)
                    assert a[0] == pytest.approx(e[0], abs=1e-10)
                    assert a[1] == pytest.approx(e[1], abs=1e-10)

    def test_attenuated_grid(self):
        for kappa in (0.0, 0.37, 1.0):
            for T in (0.0, 0.6, 1.0):
                topo = itf.two_spdc_attenuated(0.4, 0.2, T, 3.0, kappa)
                for phi in (0.0, 0.7):
                    a = itf.singles_fringe_analytic(topo, phi)
                    e = itf.singles_fringe_engine(topo, phi)
                    assert a[0] == pytest.approx(e[0], abs=1e-10)
                    assert a[1] == pytest.approx(e[1], abs=1e-10)

    def test_attenuated_randomized(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            topo = itf.two_spdc_attenuated(
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 1.0),
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 1.0),
            )
            phi = rng.uniform(0.0, math.pi)
            a = itf.singles_fringe_analytic(topo, phi)
            e = itf.singles_fringe_engine(topo, phi)
            scale = max(1.0, a[0], a[1])
            assert a[0] == pytest.approx(e[0], abs=1e-10 * scale)
            assert a[1] == pytest.approx(e[1], abs=1e-10 * scale)

    def test_three_source_grid(self):
        for T in (0.0, 0.5, 1.0):
            for n_b in (0.0, 10.0):
                topo = itf.three_spdc(10.0, 10.0, 10.0, T, n_b)
                for phi in (0.0, 0.7):
                    a = itf.singles_fringe_analytic(topo, phi)
                    e = itf.singles_fringe_engine(topo, phi)
                    assert e[0] == pytest.approx(a[0], abs=1e-10 * max(1.0, a[0]))
                    assert e[1] == pytest.approx(a[1], abs=1e-10 * max(1.0, a[1]))

    def test_dark_network_outputs_nothing(self):
        topo = itf.two_spdc(0.0, 0.0, 0.5, 0.0)
        assert itf.singles_fringe_engine(topo, 0.3) == (0.0, 0.0)

    def test_full_transmission_ignores_background(self):
        bright = itf.two_spdc(0.1, 0.1, 1.0, 100.0)
        dark = itf.two_spdc(0.1, 0.1, 1.0, 0.0)
        for phi in (0.0, 0.4):
            assert itf.singles_fringe_engine(bright, phi) == pytest.approx(
                itf.singles_fringe_engine(dark, phi), abs=1e-12
            )


class TestPreSplitterMoments:
    def test_reference_values(self):
        n1, n2, coh = itf.pre_splitter_moments(reference_topology())
        assert n1 == pytest.approx(0.1, abs=1e-14)
        assert n2 == pytest.approx(0.605, abs=1e-12)
        assert coh == pytest.approx(0.5 * AC_REF, abs=1e-12)

    def test_opaque_object_kills_coherence(self):
        _, _, coh = itf.pre_splitter_moments(itf.two_spdc(0.1, 0.1, 0.0, 5.0))
        assert coh == 0.0

    def test_transparent_vacuum_limit(self):
        _, n2, _ = itf.pre_splitter_moments(itf.two_spdc(0.3, 0.2, 1.0, 0.0))
        assert n2 == pytest.approx(0.2 * 1.3, abs=1e-12)

    def test_rejects_other_layouts(self):
        with pytest.raises(ValueError):
            itf.pre_splitter_moments(itf.three_spdc(1.0, 1.0, 1.0, 0.5))


class TestCoherenceBound:
    def test_reference_value(self):
        assert itf.g1_coherence(reference_topology()) == pytest.approx(G1_REF, abs=1e-12)

    def test_limits(self):
        assert itf.g1_coherence(itf.two_spdc(0.3, 0.1, 1.0, 7.0)) == pytest.approx(1.0)
        assert itf.g1_coherence(itf.two_spdc(0.3, 0.1, 0.0, 7.0)) == 0.0

    def test_independent_of_crystal_b(self):
        lo = itf.g1_coherence(itf.two_spdc(0.2, 0.01, 0.6, 3.0))
        hi = itf.g1_coherence(itf.two_spdc(0.2, 50.0, 0.6, 3.0))
        assert lo == hi


def analytic_visibility(v_a, v_b, T, n_b):
    num = 2.0 * math.sqrt(T * (1.0 + v_a) * v_a * v_b)
    den = v_a + v_b + T * v_a * v_b + (1.0 - T) * n_b * v_b
    return num / den if den > 0 else 0.0


class TestFringeExtraction:
    def test_fringe_matches_closed_form(self):
        topo = reference_topology()
        fr = itf.fringe(topo)
        assert fr.dc == pytest.approx(0.5 * 0.705, abs=1e-12)
        assert fr.amplitude == pytest.approx(0.5 * AC_REF, abs=1e-12)
        assert fr.visibility == pytest.approx(AC_REF / 0.705, abs=1e-12)

    def test_quarter_phase_sits_on_dc(self):
        topo = reference_topology()
        mid = itf.singles_fringe_analytic(topo, 0.25 * math.pi)[0]
        assert mid == pytest.approx(itf.fringe(topo).dc, abs=1e-12)

    def test_dark_fringe_is_zero(self):
        fr = itf.fringe(itf.two_spdc(0.1, 0.0, 0.0, 0.0))
        assert fr.dc >= 0.0 and fr.visibility == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        v_a=st.floats(min_value=0.0, max_value=100.0, allow_subnormal=False),
        v_b=st.floats(min_value=0.0, max_value=100.0, allow_subnormal=False),
        T=st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False),
        n_b=st.floats(min_value=0.0, max_value=100.0, allow_subnormal=False),
    )
    def test_amplitude_below_dc(self, v_a, v_b, T, n_b):
        fr = itf.fringe(itf.two_spdc(v_a, v_b, T, n_b))
        assert fr.amplitude <= fr.dc + 1e-12
        assert 0.0 <= fr.visibility <= 1.0 + 1e-12


class TestVisibilityInvariants:
    def test_matches_closed_form_on_random_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v_a, v_b = rng.uniform(0.0, 100.0, 2)
            T = rng.uniform(0.0, 1.0)
            n_b = rng.uniform(0.0, 100.0)
            topo = itf.two_spdc(v_a, v_b, T, n_b)
            expected = analytic_visibility(v_a, v_b, T, n_b)
            assert itf.fringe(topo).visibility == pytest.approx(expected, abs=1e-10)

    def test_bounded_by_coherence(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            v_a = rng.uniform(1e-3, 100.0)
            v_b = rng.uniform(1e-3, 100.0)
            T = rng.uniform(0.0, 1.0)
            n_b = rng.uniform(0.0, 100.0)
            topo = itf.two_spdc(v_a, v_b, T, n_b)
            assert itf.fringe(topo).visibility <= itf.g1_coherence(topo) + 1e-10

    def test_balanced_arms_saturate_the_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v_a = rng.uniform(1e-2, 50.0)
            T = rng.uniform(1e-3, 1.0)
            n_b = rng.uniform(0.0, 50.0)
            v_b = v_a / (1.0 + T * v_a + (1.0 - T) * n_b)
            topo = itf.two_spdc(v_a, v_b, T, n_b)
            assert itf.fringe(topo).visibility == pytest.approx(
                itf.g1_coherence(topo), abs=1e-9
            )

    def test_vacuum_limit_formula(self):
        for v_a, v_b, T in [(0.1, 0.1, 0.5), (3.0, 0.4, 0.8), (10.0, 10.0, 0.2)]:
            topo = itf.two_spdc(v_a, v_b, T, 0.0)
            expected = (
                2.0
                * math.sqrt((1.0 + v_a) * v_a * v_b * T)
                / (v_a + v_b + T * v_a * v_b)
            )
            assert itf.fringe(topo).visibility == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n_b", [0.0, 10.0, 100.0])
    def test_low_gain_monotone_in_transmittance(self, n_b):
        grid = np.linspace(0.0, 1.0, 100)
        values = [itf.fringe(itf.two_spdc(0.1, 0.1, T, n_b)).visibility for T in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_high_gain_interior_peak(self):
        grid = np.linspace(1e-3, 1.0, 200)
        values = [itf.fringe(itf.two_spdc(10.0, 10.0, T, 0.0)).visibility for T in grid]
        best = int(np.argmax(values))
        assert 0 < best < len(grid) - 1
        assert grid[best] == pytest.approx(0.2, abs=0.02)


class TestCheckClosedForms:
    def test_nan_on_both_sides_passes(self):
        itf.check_closed_forms("dark points", ([1.0, math.nan],), ([1.0, math.nan],))

    @pytest.mark.parametrize(
        "expected, got",
        [([1.0, math.nan], [1.0, 2.0]), ([1.0, 2.0], [1.0, math.nan])],
        ids=["nan-expected", "nan-got"],
    )
    def test_nan_on_one_side_raises(self, expected, got):
        with pytest.raises(RuntimeError, match="closed forms"):
            itf.check_closed_forms("values", (expected,), (got,))
