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
        n_i, _, _ = her.mode_matched_moments(0.1, 0.1, 0.5, 0.0)
        assert n_i[0] == pytest.approx(HERALD_MEAN_REF, abs=1e-12)

    def test_engine_reproduces_closed_forms(self):
        # mode_matched_moments raises internally on closed-form mismatch;
        # verify explicitly at a nontrivial phase as well.
        got = her.mode_matched_moments(0.25, 0.08, 0.7, 0.9)
        expected = closed_forms.herald_moments(0.25, 0.08, 0.7, 0.9)
        for value, exp in zip(got, expected):
            assert value[0] == pytest.approx(exp, abs=1e-10)

    def test_arguments_broadcast_to_flat_arrays(self):
        phis = np.linspace(0.0, math.pi, 5)
        n_i, n_s, corr_sq = her.mode_matched_moments(0.1, 0.2, np.array([[0.3], [0.6]]), phis)
        assert n_i.shape == n_s.shape == corr_sq.shape == (10,)
        values = her.mode_matched_conditional_means(0.1, 0.2, 0.3, phis)
        assert values.shape == (5,)
        assert np.array_equal(n_s[:5] + corr_sq[:5] / n_i[:5], values)

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
        for phi in (0.0, 0.8):
            (ideal,) = her.mode_matched_conditional_means(0.1, 0.1, 0.5, phi)
            (with_det,) = her.mode_matched_conditional_means(
                0.1, 0.1, 0.5, phi, her.DetectorModel(eta=0.4, nu=0.0)
            )
            assert with_det == pytest.approx(ideal, abs=1e-12)

    def test_dark_counts_wash_out_conditioning(self):
        (value,) = her.mode_matched_conditional_means(
            0.1, 0.1, 0.5, 0.0, her.DetectorModel(1.0, 1e12)
        )
        _, (n_s,), _ = her.mode_matched_moments(0.1, 0.1, 0.5, 0.0)
        assert value == pytest.approx(n_s, rel=1e-9)

    def test_overflowing_dark_count_ratio_is_the_unconditional_mean(self):
        # nu / eta overflows to inf: the boost is 0, quietly
        det = her.DetectorModel(1e-300, 1e300)
        (value,) = her.mode_matched_conditional_means(0.1, 0.1, 0.5, 0.4, det)
        _, (n_s,), _ = her.mode_matched_moments(0.1, 0.1, 0.5, 0.4)
        assert value == n_s
        closed = closed_forms.heralded_signal_mean(0.1, 0.1, 0.5, 0.4, det.eta, det.nu)
        assert closed == closed_forms.herald_moments(0.1, 0.1, 0.5, 0.4)[1]


# ---------------------------------------------------------------------------
# The filtered pass against the raw idler contraction written out by hand
# ---------------------------------------------------------------------------


def _raw_contraction_reference(v_a, v_b, T, phi):
    """The filtered pass on three modes (signal A, signal B, idler): crystal
    A, the raw idler contraction b_I -> sqrt(T) b_I, crystal B, the phase and
    the splitter.  Returns the raw <b_I b_S> and <b_I b_S^dag>."""
    n = 3
    contraction = g.identity_coeffs(n, len(T))
    contraction[0][:, itf.MODE_IDLER, itf.MODE_IDLER] = np.sqrt(T)
    half = np.full(len(T), 1.0 / math.sqrt(2.0))
    steps = (
        g.squeezer_coeffs(n, itf.MODE_SIGNAL_A, itf.MODE_IDLER, list(map(g.SqueezerParams, v_a))),
        contraction,
        g.squeezer_coeffs(n, itf.MODE_SIGNAL_B, itf.MODE_IDLER, list(map(g.SqueezerParams, v_b))),
        g.phase_coeffs(n, itf.MODE_SIGNAL_B, 2.0 * phi),
        g.beam_splitter_coeffs(n, itf.MODE_SIGNAL_B, itf.MODE_SIGNAL_A, half, half),
    )
    sigma = g.vacuum_sigma(n)
    for e, f in steps:
        sigma = g.conjugate_sigma(sigma, g.stacked_map(e, f))
    # ordered entries with the herald operator leftmost
    return sigma[:, itf.MODE_IDLER, n + itf.MODE_PLUS], sigma[:, itf.MODE_IDLER, itf.MODE_PLUS]


def test_filtered_pass_matches_the_raw_contraction():
    count = 240
    rng = np.random.default_rng(30)

    def gains():
        low, high = rng.uniform(0.0, 0.3, count), rng.uniform(1.0, 100.0, count)
        return np.where(rng.random(count) < 0.5, low, high)

    v_a, v_b = gains(), gains()
    T = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, count - 2)])
    phi = rng.uniform(0.0, math.pi, count)
    pair_corr, exchange_corr = _raw_contraction_reference(v_a, v_b, T, phi)
    # the exchange term <b_I b_S^dag> is exactly 0, so the boost leaves it out
    assert (exchange_corr == 0.0).all()
    _, _, corr_sq = her.mode_matched_moments(v_a, v_b, T, phi)
    np.testing.assert_allclose(corr_sq, np.abs(pair_corr) ** 2, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Batched grids against grids of one point
# ---------------------------------------------------------------------------


def _close(batched, single):
    return abs(batched - single) <= 1e-12 * abs(single)


def _assert_grid_matches_points(v_a, v_b, T, n_b, phi):
    grid = her.mode_matched_moments(v_a, v_b, T, phi)
    for k in range(len(T)):
        one = her.mode_matched_moments(v_a[k], v_b[k], T[k], phi[k])
        for batched, single in zip(grid, one):
            assert _close(batched[k], single[0])
    dark, lit = her.heralded_fringe_grid(v_a, v_b, T)
    assert lit.dc.size == np.count_nonzero(~dark)
    # j: the index of each lit point among the lit ones
    for k, is_dark, j in zip(range(len(T)), dark, np.cumsum(~dark) - 1):
        try:
            one = her.heralded_fringe_mode_matched(itf.two_spdc(v_a[k], v_b[k], T[k], n_b[k]))
        except ValueError:
            assert is_dark
            continue
        assert not is_dark
        assert _close(lit.dc[j], one.dc)
        assert _close(lit.amplitude[j], one.amplitude)
        assert _close(lit.visibility[j], one.visibility)


# Gains, transmittances and occupations are 0 or normal floats: the
# validators reject nonzero subnormals.
_GAIN = st.one_of(st.floats(0.0, 0.3, allow_subnormal=False), st.floats(1.0, 100.0))
_TRANSMITTANCE = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, allow_subnormal=False))
_OCCUPATION = st.floats(0.0, 100.0, allow_subnormal=False)
_POINT = st.tuples(_GAIN, _GAIN, _TRANSMITTANCE, _OCCUPATION, st.floats(0.0, math.pi))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(_POINT, min_size=1, max_size=12))
def test_batched_grid_matches_points(points):
    _assert_grid_matches_points(*np.array(points).T)


def test_batched_grid_of_273_points():
    count = 273
    rng = np.random.default_rng(11)
    _assert_grid_matches_points(
        rng.uniform(0.0, 5.0, count),
        rng.uniform(0.0, 5.0, count),
        rng.uniform(0.0, 1.0, count),
        rng.uniform(0.0, 10.0, count),
        rng.uniform(0.0, math.pi, count),
    )


def test_dark_grid_points_are_nan_and_single_points_raise():
    values = her.mode_matched_conditional_means(0.1, 0.0, [0.0, 0.5], 0.3)
    assert math.isnan(values[0]) and math.isfinite(values[1])
    (one,) = her.mode_matched_conditional_means(0.1, 0.0, 0.0, 0.3)
    assert math.isnan(one)
    dark, lit = her.heralded_fringe_grid(0.1, 0.0, [0.0, 0.5])
    assert dark.tolist() == [True, False] and lit.dc.size == 1
    with pytest.raises(ValueError, match="no herald"):
        her.heralded_fringe_mode_matched(itf.two_spdc(0.1, 0.0, 0.0, 1.0))
