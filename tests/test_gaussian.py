"""Moment-engine unit tests: single elements, invariants, and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl import gaussian as g

SQ11 = math.sqrt(0.11)  # anomalous moment of a V=0.1 pair on vacuum


def thermal_number_variance_oracle(n_bar: float, terms: int = 400) -> float:
    """Var(n) of a thermal mode from its geometric photon distribution."""
    if n_bar == 0.0:
        return 0.0
    ratio = n_bar / (1.0 + n_bar)
    p = (1.0 / (1.0 + n_bar)) * ratio ** np.arange(terms)
    ns = np.arange(terms)
    mean = float(np.sum(p * ns))
    second = float(np.sum(p * ns**2))
    return second - mean**2


def gaussian_number_variance(state: g.GaussianState, mode: int) -> float:
    """Var(n) assembled from second moments of a zero-mean Gaussian mode."""
    m = g.mean_photon_number(state, mode)
    a = g.cross_moment(state, mode, mode, "anomalous")
    second = m * (m + 1.0) + m * m + abs(a) ** 2
    return second - m * m


class TestVacuum:
    def test_all_moments_zero(self):
        state = g.new_vacuum(4)
        assert np.all(state.normal_moments == 0)
        assert np.all(state.anomalous_moments == 0)

    def test_mean_photon_number_zero(self):
        state = g.new_vacuum(4)
        for mode in range(4):
            assert g.mean_photon_number(state, mode) == 0.0

    def test_physicality(self):
        assert g.physicality_defect(g.new_vacuum(5)) <= 1e-12

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            g.new_vacuum(0)


class TestSetThermal:
    def test_sets_single_diagonal(self):
        state = g.set_thermal(g.new_vacuum(4), 3, 10.0)
        expected = np.zeros((4, 4))
        expected[3, 3] = 10.0
        assert np.allclose(state.normal_moments, expected)
        assert np.all(state.anomalous_moments == 0)

    def test_zero_occupation_is_identity(self):
        state = g.set_thermal(g.new_vacuum(3), 1, 0.0)
        assert np.all(state.normal_moments == 0)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            g.set_thermal(g.new_vacuum(2), 0, -0.5)

    def test_correlated_mode_rejected(self):
        state = g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(0.1))
        with pytest.raises(ValueError):
            g.set_thermal(state, 0, 1.0)

    @pytest.mark.parametrize("n_bar", [0.3, 1.0, 10.0])
    def test_number_variance_matches_geometric_oracle(self, n_bar):
        state = g.set_thermal(g.new_vacuum(2), 1, n_bar)
        oracle = thermal_number_variance_oracle(n_bar, terms=800)
        assert gaussian_number_variance(state, 1) == pytest.approx(oracle, abs=1e-9)
        assert gaussian_number_variance(state, 1) == pytest.approx(n_bar * (n_bar + 1.0))


class TestTwoModeSqueezer:
    def test_vacuum_pair_moments(self):
        state = g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(0.1))
        assert g.mean_photon_number(state, 0) == pytest.approx(0.1, abs=1e-14)
        assert g.mean_photon_number(state, 1) == pytest.approx(0.1, abs=1e-14)
        assert g.cross_moment(state, 0, 1, "anomalous") == pytest.approx(SQ11, abs=1e-14)

    def test_phase_lands_on_anomalous_moment(self):
        theta = 0.7
        state = g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(0.1, theta))
        expected = SQ11 * complex(math.cos(theta), math.sin(theta))
        assert g.cross_moment(state, 0, 1, "anomalous") == pytest.approx(expected, abs=1e-14)

    def test_zero_gain_is_identity(self):
        before = g.set_thermal(g.new_vacuum(3), 2, 4.0)
        after = g.apply_two_mode_squeezer(before, 0, 2, g.SqueezerParams(0.0))
        assert np.allclose(after.normal_moments, before.normal_moments, atol=1e-14)
        assert np.allclose(after.anomalous_moments, before.anomalous_moments, atol=1e-14)

    def test_preserves_physicality(self):
        state = g.new_vacuum(3)
        for v in (0.5, 2.0, 30.0):
            state = g.apply_two_mode_squeezer(state, 0, 1, g.SqueezerParams(v, 0.3))
        assert g.physicality_defect(state) <= 1e-9 * (1.0 + 30.0**2)

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError):
            g.apply_two_mode_squeezer(g.new_vacuum(2), 1, 1, g.SqueezerParams(0.1))

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            g.SqueezerParams(-0.1)


class TestBeamSplitter:
    def test_balanced_split_of_thermal(self):
        state = g.set_thermal(g.new_vacuum(2), 0, 10.0)
        s = 1.0 / math.sqrt(2.0)
        state = g.apply_beam_splitter(state, 0, 1, s, s)
        assert g.mean_photon_number(state, 0) == pytest.approx(5.0, abs=1e-12)
        assert g.mean_photon_number(state, 1) == pytest.approx(5.0, abs=1e-12)

    def test_full_transmission_is_identity(self):
        before = g.set_thermal(g.new_vacuum(2), 0, 3.0)
        after = g.apply_beam_splitter(before, 0, 1, 1.0, 0.0)
        assert np.allclose(after.normal_moments, before.normal_moments, atol=1e-14)

    def test_object_port_mixes_thermal(self):
        # squeezed idler mean V_A crossing a T=0.5 port against n_bar=10
        state = g.apply_two_mode_squeezer(g.new_vacuum(3), 0, 1, g.SqueezerParams(0.1))
        state = g.set_thermal(state, 2, 10.0)
        state = g.apply_beam_splitter(state, 1, 2, math.sqrt(0.5), math.sqrt(0.5))
        assert g.mean_photon_number(state, 1) == pytest.approx(0.5 * 0.1 + 0.5 * 10.0, abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            g.apply_beam_splitter(g.new_vacuum(2), 0, 1, 0.9, 0.5)


class TestPhase:
    def test_zero_phase_is_identity(self):
        before = g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(0.2))
        after = g.apply_phase(before, 0, 0.0)
        assert np.allclose(after.anomalous_moments, before.anomalous_moments, atol=1e-14)

    def test_two_half_turns_compose_to_identity(self):
        before = g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(0.2))
        after = g.apply_phase(g.apply_phase(before, 0, math.pi), 0, math.pi)
        assert np.allclose(after.anomalous_moments, before.anomalous_moments, atol=1e-13)
        assert np.allclose(after.normal_moments, before.normal_moments, atol=1e-13)

    def test_photon_number_invariant(self):
        state = g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(0.7))
        n_before = g.mean_photon_number(state, 0)
        state = g.apply_phase(state, 0, 1.234)
        assert g.mean_photon_number(state, 0) == pytest.approx(n_before, abs=1e-13)


class TestCrossMoment:
    def test_vacuum_pairs_are_zero(self):
        state = g.new_vacuum(3)
        for kind in ("normal", "anomalous"):
            assert g.cross_moment(state, 0, 2, kind) == 0

    def test_squeezed_anomalous_value(self):
        state = g.apply_two_mode_squeezer(g.new_vacuum(2), 0, 1, g.SqueezerParams(0.1))
        assert abs(g.cross_moment(state, 0, 1, "anomalous")) == pytest.approx(
            0.331662, abs=1e-6
        )

    def test_independent_thermals_uncorrelated(self):
        state = g.set_thermal(g.set_thermal(g.new_vacuum(2), 0, 2.0), 1, 5.0)
        assert g.cross_moment(state, 0, 1, "normal") == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            g.cross_moment(g.new_vacuum(2), 0, 1, "weird")


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------


def _op_strategy(n_modes: int):
    modes = st.integers(min_value=0, max_value=n_modes - 1)
    pairs = st.tuples(modes, modes).filter(lambda p: p[0] != p[1])
    squeeze = st.tuples(
        st.just("tms"),
        pairs,
        st.floats(min_value=0.0, max_value=0.2, allow_subnormal=False),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    angle = st.floats(min_value=0.0, max_value=0.5 * math.pi)
    split = st.tuples(st.just("bs"), pairs, angle)
    phase = st.tuples(st.just("phase"), modes, st.floats(min_value=-math.pi, max_value=math.pi))
    return st.lists(st.one_of(squeeze, split, phase), min_size=1, max_size=6)


def _run_ops(n_modes: int, thermal: float, ops) -> g.GaussianState:
    state = g.set_thermal(g.new_vacuum(n_modes), n_modes - 1, thermal)
    for op in ops:
        if op[0] == "tms":
            state = g.apply_two_mode_squeezer(state, *op[1], g.SqueezerParams(op[2], op[3]))
        elif op[0] == "bs":
            state = g.apply_beam_splitter(state, *op[1], math.cos(op[2]), math.sin(op[2]))
        else:
            state = g.apply_phase(state, op[1], op[2])
    return state


@settings(max_examples=60, deadline=None)
@given(ops=_op_strategy(4), thermal=st.floats(min_value=0.0, max_value=1.0))
def test_random_networks_stay_physical(ops, thermal):
    state = _run_ops(4, thermal, ops)
    m = state.normal_moments
    a = state.anomalous_moments
    assert float(np.max(np.abs(m - m.conj().T))) < 1e-12
    assert float(np.max(np.abs(a - a.T))) < 1e-12
    assert g.physicality_defect(state) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    ops=_op_strategy(3),
    thermal=st.floats(min_value=0.0, max_value=1.0),
    angle=st.floats(min_value=0.0, max_value=0.5 * math.pi),
)
def test_beam_splitter_conserves_pair_energy(ops, thermal, angle):
    state = _run_ops(3, thermal, ops)
    before = g.mean_photon_number(state, 0) + g.mean_photon_number(state, 1)
    after_state = g.apply_beam_splitter(state, 0, 1, math.cos(angle), math.sin(angle))
    after = g.mean_photon_number(after_state, 0) + g.mean_photon_number(after_state, 1)
    assert after == pytest.approx(before, abs=1e-12 * max(1.0, before))


def test_symplectic_identity_exact():
    p = g.SqueezerParams(2.5)
    assert p.U - p.V == 1.0


# ---------------------------------------------------------------------------
# Batched propagation
# ---------------------------------------------------------------------------


def _layout_networks():
    """Networks of one layout with varied parameters; some thermal, some not."""
    networks = []
    for k, n_bar in enumerate((0.0, 0.7, 3.0, 0.0, 12.0)):
        angle = 0.3 * k
        elements = [g.ThermalInput(2, n_bar)] if n_bar > 0.0 else []
        elements += [
            g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.05 + 0.4 * k, 0.2 * k)),
            g.BeamSplitter(1, 2, math.cos(angle), math.sin(angle)),
            g.PhaseShift(0, 1.1 * k),
            g.TwoModeSqueezer(0, 2, g.SqueezerParams(2.0 * k)),
        ]
        networks.append(elements)
    return networks


def test_batch_items_equal_single_runs():
    networks = _layout_networks()
    states = g.run_elements_batch(3, networks)
    assert len(states) == len(networks)
    for k, elements in enumerate(networks):
        single = g.run_elements(3, elements)
        assert np.array_equal(states[k].normal_moments, single.normal_moments)
        assert np.array_equal(states[k].anomalous_moments, single.anomalous_moments)
        assert states.mean_photon_numbers(1)[k] == g.mean_photon_number(single, 1)


def test_batch_rejects_mixed_layouts():
    networks = _layout_networks()
    networks[3][-1] = g.TwoModeSqueezer(1, 2, g.SqueezerParams(0.1))
    with pytest.raises(ValueError, match="layout"):
        g.run_elements_batch(3, networks)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: g.BeamSplitter(1, 2, 0.9, 0.5), "non-unitary beam splitter"),
        (lambda: g.BeamSplitter(1, 2, math.nan, 0.0), "non-unitary beam splitter"),
        (lambda: g.BeamSplitter(1, 1, 1.0, 0.0), "beam splitter needs two distinct modes"),
        (lambda: g.TwoModeSqueezer(0, 0, g.SqueezerParams(0.1)), "squeezer needs two distinct modes"),
        (lambda: g.ThermalInput(0, -1.0), "thermal occupation must be >= 0"),
        (lambda: g.ThermalInput(0, math.nan), "thermal occupation must be >= 0"),
        (lambda: g.PhaseShift(0, math.inf), "phase must be finite"),
    ],
    ids=["non-unitary-splitter", "nan-splitter", "splitter-one-mode", "squeezer-one-mode",
         "negative-occupation", "nan-occupation", "infinite-phase"],
)
def test_elements_check_themselves_where_built(build, message):
    # both backends take an element as valid; the element decides at construction
    with pytest.raises(ValueError, match=message):
        build()


def test_stack_validation_rejects_one_bad_item():
    m = np.zeros((5, 2, 2), dtype=complex)
    a = np.zeros((5, 2, 2), dtype=complex)
    a[:, 0, 1] = a[:, 1, 0] = 0.1
    m[:, 0, 0] = m[:, 1, 1] = 0.1 * 0.1 / 0.9  # physical for every item ...
    a[2, 0, 1] = a[2, 1, 0] = 0.5              # ... except the middle one
    with pytest.raises(ValueError, match="physicality.*stack item 2"):
        g.GaussianStates(2, m, a)
    keep = [0, 1, 3, 4]
    assert len(g.GaussianStates(2, m[keep], a[keep])) == 4
