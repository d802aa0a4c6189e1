"""Conditional-statistics tests: Wick conditioning, detector model, and the
mode-matched heralded fringe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl import closed_forms
from icl import gaussian as g
from icl import heralding as her
from icl import interferometer as itf

PAIR_VIS_REF = 0.7235315597166496  # 2 sqrt(0.0055) / 0.205
HERALD_MEAN_REF = 0.155            # 1.1 * 0.5 * 0.1 + 0.1


def reference_topology(n_b=10.0):
    return itf.two_spdc(0.1, 0.1, 0.5, n_b)


def squeezed_pair(v=0.1):
    return g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(v))


class TestConditionalMeanWick:
    def test_uncorrelated_herald_leaves_mean_alone(self):
        state = g.set_thermal(g.set_thermal(g.new_vacuum(2), 0, 2.0), 1, 0.7)
        assert her.conditional_mean_wick(state, 0, 1) == pytest.approx(0.7, abs=1e-12)

    def test_squeezed_pair_value(self):
        assert her.conditional_mean_wick(squeezed_pair(0.1), 1, 0) == pytest.approx(
            1.2, abs=1e-12
        )

    def test_empty_herald_rejected(self):
        state = g.set_thermal(g.new_vacuum(2), 1, 3.0)
        with pytest.raises(ValueError, match="no herald"):
            her.conditional_mean_wick(state, 0, 1)


class TestConditionalMeanPovm:
    def test_dark_count_dominated_limit(self):
        state = itf.output_state(reference_topology(), 0.3)
        det = her.DetectorModel(eta=1.0, nu=1e9)
        n_s = g.mean_photon_number(state, itf.MODE_PLUS)
        value = her.conditional_mean_povm(state, itf.MODE_IDLER, itf.MODE_PLUS, det)
        assert value == pytest.approx(n_s, rel=1e-6)

    def test_zero_dark_counts_match_wick(self):
        state = itf.output_state(reference_topology(), 0.3)
        det = her.DetectorModel(eta=0.25, nu=0.0)
        assert her.conditional_mean_povm(
            state, itf.MODE_IDLER, itf.MODE_PLUS, det
        ) == pytest.approx(her.conditional_mean_wick(state, itf.MODE_IDLER, itf.MODE_PLUS))

    def test_interpolates_between_limits(self):
        state = itf.output_state(reference_topology(), 0.0)
        det = her.DetectorModel(eta=0.5, nu=0.01)
        n_s = g.mean_photon_number(state, itf.MODE_PLUS)
        wick = her.conditional_mean_wick(state, itf.MODE_IDLER, itf.MODE_PLUS)
        value = her.conditional_mean_povm(state, itf.MODE_IDLER, itf.MODE_PLUS, det)
        assert n_s < value < wick

    def test_monotone_in_dark_counts(self):
        state = itf.output_state(reference_topology(), 0.0)
        values = [
            her.conditional_mean_povm(
                state, itf.MODE_IDLER, itf.MODE_PLUS, her.DetectorModel(0.5, nu)
            )
            for nu in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_no_click_probability_rejected(self):
        state = g.set_thermal(g.new_vacuum(2), 1, 3.0)
        with pytest.raises(ValueError, match="no click"):
            her.conditional_mean_povm(state, 0, 1, her.DetectorModel(1.0, 0.0))

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            her.DetectorModel(eta=0.0)
        with pytest.raises(ValueError):
            her.DetectorModel(eta=0.5, nu=-1.0)


class TestModeMatchedFringe:
    def test_herald_mean_reference(self):
        mm = her.mode_matched_moments(reference_topology(), 0.0)
        assert mm.herald_mean == pytest.approx(HERALD_MEAN_REF, abs=1e-12)

    def test_exchange_correlation_vanishes(self):
        for phi in (0.0, 0.4, 1.1):
            mm = her.mode_matched_moments(reference_topology(), phi)
            assert abs(mm.exchange_corr) < 1e-12

    def test_engine_reproduces_closed_forms(self):
        # mode_matched_moments raises internally on closed-form mismatch;
        # verify explicitly at a nontrivial phase as well.
        topo = itf.two_spdc(0.25, 0.08, 0.7, 40.0)
        phi = 0.9
        mm = her.mode_matched_moments(topo, phi)
        n_i, n_s, corr_sq = closed_forms.herald_moments(0.25, 0.08, 0.7, phi)
        assert mm.herald_mean == pytest.approx(n_i, abs=1e-10)
        assert mm.signal_mean == pytest.approx(n_s, abs=1e-10)
        assert abs(mm.pair_corr) ** 2 == pytest.approx(corr_sq, abs=1e-10)

    @pytest.mark.parametrize("n_b", [0.0, 10.0, 100.0])
    def test_background_free(self, n_b):
        base = her.heralded_fringe_mode_matched(reference_topology(0.0))
        fr = her.heralded_fringe_mode_matched(reference_topology(n_b))
        assert fr.visibility == pytest.approx(base.visibility, abs=1e-10)
        assert fr.dc == pytest.approx(base.dc, abs=1e-10)

    def test_visibility_consistent_with_parts(self):
        fr = her.heralded_fringe_mode_matched(reference_topology())
        assert fr.visibility == pytest.approx(fr.amplitude / fr.dc, abs=1e-12)
        assert 0.0 <= fr.visibility <= 1.0

    def test_custom_grid_matches_default(self):
        topo = reference_topology()
        default = her.heralded_fringe_mode_matched(topo)
        dense = her.heralded_fringe_mode_matched(topo, tuple(np.linspace(0.0, 1.5, 7)))
        assert dense.dc == pytest.approx(default.dc, abs=1e-10)
        assert dense.amplitude == pytest.approx(default.amplitude, abs=1e-10)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            her.heralded_fringe_mode_matched(reference_topology(), (0.3, 0.3))

    def test_low_gain_monotone_in_transmittance(self):
        values = [
            her.heralded_fringe_mode_matched(itf.two_spdc(0.1, 0.1, T, 10.0)).visibility
            for T in np.linspace(0.01, 1.0, 40)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_high_gain_peaks_at_small_transmittance(self):
        grid = np.linspace(0.01, 1.0, 60)
        values = [
            her.heralded_fringe_mode_matched(itf.two_spdc(10.0, 10.0, T, 10.0)).visibility
            for T in grid
        ]
        best = int(np.argmax(values))
        assert 0 < best < len(grid) - 1
        assert grid[best] < 0.3

    def test_rejects_other_layouts(self):
        with pytest.raises(ValueError):
            her.heralded_fringe_mode_matched(itf.three_spdc(1.0, 1.0, 1.0, 0.5))


class TestPairLimit:
    def test_reference_value(self):
        assert her.heralded_visibility_pair_limit(reference_topology()) == pytest.approx(
            PAIR_VIS_REF, abs=1e-10
        )

    def test_ideal_limit_at_full_transmission(self):
        vis = her.heralded_visibility_pair_limit(itf.two_spdc(1e-8, 1e-8, 1.0, 50.0))
        assert vis == pytest.approx(1.0, abs=1e-7)

    def test_opaque_object(self):
        assert her.heralded_visibility_pair_limit(itf.two_spdc(0.1, 0.1, 0.0, 5.0)) == 0.0

    @pytest.mark.parametrize("n_b", np.linspace(0.0, 100.0, 9).tolist())
    def test_background_free(self, n_b):
        base = her.heralded_visibility_pair_limit(reference_topology(0.0))
        assert her.heralded_visibility_pair_limit(
            reference_topology(n_b)
        ) == pytest.approx(base, abs=1e-12)

    def test_herald_advantage(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v_a, v_b = rng.uniform(1e-3, 20.0, 2)
            T = rng.uniform(0.0, 0.999)
            n_b = rng.uniform(1e-3, 100.0)
            topo = itf.two_spdc(v_a, v_b, T, n_b)
            assert (
                her.heralded_visibility_pair_limit(topo)
                >= itf.fringe(topo).visibility - 1e-12
            )

    def test_low_gain_monotone_in_transmittance(self):
        values = [
            her.heralded_visibility_pair_limit(itf.two_spdc(0.1, 0.1, T, 10.0))
            for T in np.linspace(0.0, 1.0, 100)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPovmFringeHelper:
    def test_ideal_detector_matches_wick_assembly(self):
        topo = reference_topology()
        for phi in (0.0, 0.8):
            ideal = her.mode_matched_conditional_mean(topo, phi)
            with_det = her.mode_matched_conditional_mean(
                topo, phi, her.DetectorModel(eta=0.4, nu=0.0)
            )
            assert with_det == pytest.approx(ideal, abs=1e-12)

    def test_dark_counts_wash_out_conditioning(self):
        topo = reference_topology(0.0)
        value = her.mode_matched_conditional_mean(topo, 0.0, her.DetectorModel(1.0, 1e12))
        mm = her.mode_matched_moments(topo, 0.0)
        assert value == pytest.approx(mm.signal_mean, rel=1e-9)


# ---------------------------------------------------------------------------
# Batched grids against the per-point functions
# ---------------------------------------------------------------------------


def _close(batched, single):
    return abs(batched - single) <= 1e-12 * abs(single)


def _assert_grid_matches_points(topos, phis):
    mm = her.mode_matched_moments_grid(topos, phis)
    for k, (topo, phi) in enumerate(zip(topos, phis)):
        one = her.mode_matched_moments(topo, phi)
        assert _close(mm.herald_mean[k], one.herald_mean)
        assert _close(mm.signal_mean[k], one.signal_mean)
        assert _close(mm.pair_corr[k], one.pair_corr)
        assert _close(mm.exchange_corr[k], one.exchange_corr)
    for topo, fr in zip(topos, her.heralded_fringes_mode_matched(topos)):
        try:
            one = her.heralded_fringe_mode_matched(topo)
        except ValueError:
            assert fr is None
            continue
        assert _close(fr.dc, one.dc)
        assert _close(fr.amplitude, one.amplitude)
        assert _close(fr.visibility, one.visibility)


# Gains, transmittances and occupations are 0 or normal floats: the
# validators reject nonzero subnormals.
_GAIN = st.one_of(st.floats(0.0, 0.3, allow_subnormal=False), st.floats(1.0, 100.0))
_TRANSMITTANCE = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, allow_subnormal=False))
_OCCUPATION = st.floats(0.0, 100.0, allow_subnormal=False)
_POINT = st.tuples(_GAIN, _GAIN, _TRANSMITTANCE, _OCCUPATION, st.floats(0.0, math.pi))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(_POINT, min_size=1, max_size=12))
def test_batched_grid_matches_points(points):
    topos = [itf.two_spdc(v_a, v_b, T, n_b) for v_a, v_b, T, n_b, _ in points]
    _assert_grid_matches_points(topos, [point[-1] for point in points])


def test_batched_grid_across_chunks():
    count = 2 * her.STACK_CHUNK + 17
    rng = np.random.default_rng(11)
    topos = [
        itf.two_spdc(v_a, v_b, T, n_b)
        for v_a, v_b, T, n_b in zip(
            rng.uniform(0.0, 5.0, count),
            rng.uniform(0.0, 5.0, count),
            rng.uniform(0.0, 1.0, count),
            rng.uniform(0.0, 10.0, count),
        )
    ]
    _assert_grid_matches_points(topos, rng.uniform(0.0, math.pi, count))


def test_dark_grid_points_are_nan_and_single_points_raise():
    topos = [itf.two_spdc(0.1, 0.0, 0.0, 1.0), itf.two_spdc(0.1, 0.0, 0.5, 1.0)]
    values = her.mode_matched_conditional_means(topos, [0.3, 0.3])
    assert math.isnan(values[0]) and math.isfinite(values[1])
    dark, lit = her.heralded_fringes_mode_matched(topos)
    assert dark is None and lit is not None
    with pytest.raises(ValueError, match="no herald"):
        her.mode_matched_conditional_mean(topos[0], 0.3)
    with pytest.raises(ValueError, match="no herald"):
        her.heralded_fringe_mode_matched(topos[0])
