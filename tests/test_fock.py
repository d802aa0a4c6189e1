"""Truncated-Fock oracle tests: gates, sampling, guards, and agreement with
the moment engine on shared networks."""

import cmath
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from icl import fock
from icl import gaussian as g
from icl import heralding as her
from icl import interferometer as itf


def tolerance(est: fock.OracleEstimate, floor: float = 1e-8) -> float:
    return max(floor, 3.0 * est.std_error)


class TestGates:
    def test_squeezed_vacuum_schmidt_coefficients(self):
        cfg = fock.FockConfig(cutoff=10, n_modes=2)
        psi = next(fock.simulate_network(cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),)))
        v, u = 0.1, 1.1
        for n in range(6):
            expected = math.sqrt(1.0 / u) * math.sqrt(v / u) ** n
            assert abs(psi[n, n]) == pytest.approx(expected, abs=1e-9)
        off_diag = abs(psi[0, 1]) + abs(psi[1, 0]) + abs(psi[2, 1])
        assert off_diag < 1e-12

    def test_identity_network_keeps_vacuum(self):
        cfg = fock.FockConfig(cutoff=5, n_modes=3)
        psi = next(fock.simulate_network(cfg, ()))
        assert abs(psi[0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_splitter_on_single_photon(self):
        dim = 6
        psi = np.zeros((dim, dim), dtype=complex)
        psi[1, 0] = 1.0
        s = 1.0 / math.sqrt(2.0)
        out = fock.apply_element(psi, g.BeamSplitter(0, 1, s, s), cutoff=dim - 1)
        assert abs(out[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out[0, 1]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_phase_element_is_diagonal(self):
        dim = 4
        psi = np.zeros((dim, dim), dtype=complex)
        psi[2, 1] = 1.0
        out = fock.apply_element(psi, g.PhaseShift(0, 0.3), cutoff=dim - 1)
        assert out[2, 1] == pytest.approx(np.exp(1j * 0.6), abs=1e-12)

    def test_norm_preserved_by_every_element(self):
        cfg = fock.FockConfig(cutoff=9, n_modes=3)
        elements = itf.network_elements(itf.two_spdc(0.2, 0.15, 0.4, 0.0), 0.5)
        psi = np.zeros((10, 10, 10, 10), dtype=complex)
        psi[0, 0, 0, 0] = 1.0
        for el in elements:
            psi = fock.apply_element(psi, el, cutoff=9)
            assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-8)


class TestThermalSampling:
    def test_amplitudes_are_deterministic(self):
        a1 = fock.sample_thermal_amplitude(7, 123, 0.5)
        a2 = fock.sample_thermal_amplitude(7, 123, 0.5)
        assert a1 == a2
        assert fock.sample_thermal_amplitude(8, 123, 0.5) != a1

    def test_moments_of_sampled_thermal_mode(self):
        # mean n and <n(n-1)> = 2 n_bar^2 through the full pipeline
        n_bar = 0.8
        cfg = fock.FockConfig(cutoff=30, n_modes=1, mc_samples=100_000, seed=11)
        els = (g.ThermalInput(0, n_bar),)
        mean = fock.oracle_moment(cfg, els, "mean", 0)
        assert abs(mean.value - n_bar) < 3.0 * mean.std_error
        nsq = fock.oracle_moment(cfg, els, "number_product", 0, 0)
        pair_rate = nsq.value - mean.value
        se = nsq.std_error + mean.std_error
        assert abs(pair_rate - 2.0 * n_bar**2) < 5.0 * se

    def test_anomalous_moment_averages_out(self):
        cfg = fock.FockConfig(cutoff=14, n_modes=1, mc_samples=20_000, seed=3)
        est = fock.oracle_moment(cfg, (g.ThermalInput(0, 0.5),), "anomalous", 0, 0)
        assert abs(est.value) < 3.0 * est.std_error + 1e-8

    def test_deterministic_networks_report_zero_error(self):
        cfg = fock.FockConfig(cutoff=8, n_modes=2)
        est = fock.oracle_moment(
            cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),), "mean", 0
        )
        assert est.std_error == 0.0

    def test_thermal_networks_report_positive_error(self):
        cfg = fock.FockConfig(cutoff=10, n_modes=2, mc_samples=500, seed=1)
        els = (
            g.ThermalInput(1, 0.5),
            g.BeamSplitter(0, 1, math.sqrt(0.5), math.sqrt(0.5)),
        )
        est = fock.oracle_moment(cfg, els, "mean", 0)
        assert est.std_error > 0.0

    def test_one_normalized_state_per_sample(self):
        cfg = fock.FockConfig(cutoff=8, n_modes=2, mc_samples=7, seed=2)
        els = (
            g.ThermalInput(1, 0.5),
            g.BeamSplitter(0, 1, math.sqrt(0.5), math.sqrt(0.5)),
        )
        states = list(fock.simulate_network(cfg, els))
        assert len(states) == 7
        for psi in states:
            assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestGuards:
    def test_dimension_guard(self):
        with pytest.raises(fock.ResourceLimitError):
            fock.FockConfig(cutoff=100, n_modes=4)

    def test_one_sample_rejected(self):
        # one sample has no spread, so its error bar would be nan
        with pytest.raises(ValueError, match="mc_samples must be >= 2"):
            fock.FockConfig(cutoff=8, n_modes=2, mc_samples=1)
        fock.FockConfig(cutoff=8, n_modes=2, mc_samples=2)

    def test_gain_bound(self):
        cfg = fock.FockConfig(cutoff=8, n_modes=2)
        with pytest.raises(ValueError, match="gain"):
            fock.oracle_moment(
                cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.5)),), "mean", 0
            )

    def test_thermal_bound(self):
        cfg = fock.FockConfig(cutoff=8, n_modes=1)
        with pytest.raises(ValueError, match="thermal"):
            fock.oracle_moment(cfg, (g.ThermalInput(0, 2.0),), "mean", 0)

    def test_single_thermal_port_only(self):
        cfg = fock.FockConfig(cutoff=8, n_modes=2)
        els = (g.ThermalInput(0, 0.5), g.ThermalInput(1, 0.5))
        with pytest.raises(ValueError, match="thermal port"):
            fock.oracle_moment(cfg, els, "mean", 0)

    def test_truncation_guard_on_tiny_cutoff(self):
        cfg = fock.FockConfig(cutoff=1, n_modes=2)
        with pytest.raises(fock.TruncationError):
            fock.oracle_moment(
                cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.3)),), "mean", 0
            )


class TestAgainstClosedForms:
    def test_two_source_deterministic_singles(self):
        topo = itf.two_spdc(0.1, 0.1, 0.5, 0.0)
        cfg = fock.FockConfig(cutoff=12, n_modes=4)
        for phi in (0.0, 0.7):
            els = itf.network_elements(topo, phi)
            expected = itf.singles_fringe_analytic(topo, phi)
            got_p = fock.oracle_moment(cfg, els, "mean", itf.MODE_PLUS)
            got_m = fock.oracle_moment(cfg, els, "mean", itf.MODE_MINUS)
            assert abs(got_p.value - expected[0]) < 1e-8
            assert abs(got_m.value - expected[1]) < 1e-8

    def test_two_source_thermal_singles(self):
        topo = itf.two_spdc(0.1, 0.1, 0.5, 0.5)
        cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10_000, seed=5)
        els = itf.network_elements(topo, 0.3)
        expected = itf.singles_fringe_analytic(topo, 0.3)
        got = fock.oracle_moment(cfg, els, "mean", itf.MODE_PLUS)
        assert abs(got.value - expected[0]) < tolerance(got)

    def test_vacuum_number_product(self):
        cfg = fock.FockConfig(cutoff=4, n_modes=2)
        est = fock.oracle_moment(cfg, (), "number_product", 0, 1)
        assert est.value == 0.0


class TestConditional:
    def test_single_squeezer_conditional(self):
        cfg = fock.FockConfig(cutoff=12, n_modes=2)
        est = fock.oracle_conditional(cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),), 1, 0)
        assert est.value == pytest.approx(1.2, abs=1e-8)

    def test_uncorrelated_thermal_signal(self):
        cfg = fock.FockConfig(cutoff=12, n_modes=3, mc_samples=2_000, seed=9)
        els = (
            g.ThermalInput(0, 0.6),
            g.TwoModeSqueezer(1, 2, g.SqueezerParams(0.1)),
        )
        cond = fock.oracle_conditional(cfg, els, 1, 0)
        uncond = fock.oracle_moment(cfg, els, "mean", 0)
        assert cond.value == pytest.approx(uncond.value, abs=1e-10)

    def test_zero_herald_rate_rejected(self):
        cfg = fock.FockConfig(cutoff=6, n_modes=2)
        with pytest.raises(ValueError, match="herald"):
            fock.oracle_conditional(cfg, (), 0, 1)

    def test_matches_wick_conditioning_on_thermal_network(self):
        topo = itf.two_spdc(0.1, 0.1, 0.5, 0.5)
        cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10_000, seed=21)
        els = itf.network_elements(topo, 0.3)
        got = fock.oracle_conditional(cfg, els, itf.MODE_IDLER, itf.MODE_PLUS)
        state = itf.output_state(topo, 0.3)
        expected = her.conditional_mean_wick(state, itf.MODE_IDLER, itf.MODE_PLUS)
        assert abs(got.value - expected) < tolerance(got)


def truncated_generator(element, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The gate's generator on the truncated pair space, and the photon
    number it conserves (n_a - n_b for a squeezer, n_a + n_b for a splitter)."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    ad = a.conj().T
    n_a, n_b = np.divmod(np.arange(dim * dim), dim)
    if isinstance(element, g.TwoModeSqueezer):
        xi = math.asinh(math.sqrt(element.params.V)) * cmath.exp(1j * element.params.theta)
        return xi * np.kron(ad, ad) - xi.conjugate() * np.kron(a, a), n_a - n_b
    angle = math.atan2(element.r, element.t)
    return angle * (np.kron(ad, a) - np.kron(a, ad)), n_a + n_b


GATES = [
    g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.3, 0.9)),
    g.BeamSplitter(0, 1, math.cos(0.4), math.sin(0.4)),
]


class TestFastPath:
    def test_shared_amplitudes_are_the_per_sample_draws(self):
        alphas = fock._thermal_amplitudes(5, 300, 0.7)
        assert alphas.shape == (300,)
        for k, alpha in enumerate(alphas):
            assert complex(alpha) == fock.sample_thermal_amplitude(5, k, 0.7)

    def test_coefficient_table_matches_single_sample_loop(self):
        alphas = fock._thermal_amplitudes(3, 200, 1.0)
        dim = 13
        coeffs, leaks = fock._coherent_table(alphas, dim)
        loop_tol = 4 * dim * np.finfo(float).eps
        for s, alpha in enumerate(alphas):
            alpha = complex(alpha)
            single, leak = fock.coherent_coefficients(alpha, dim)
            np.testing.assert_allclose(coeffs[s], single, rtol=0, atol=1e-15)
            assert abs(leaks[s] - leak) <= 1e-15
            # the per-sample loop the table replaced; numpy's vector complex
            # product may fuse multiply-adds where the scalar one does not
            ref = np.empty(dim, dtype=complex)
            ref[0] = 1.0
            for n in range(1, dim):
                ref[n] = ref[n - 1] * alpha / math.sqrt(n)
            ref *= math.exp(-0.5 * abs(alpha) ** 2)
            kept = float(np.sum(np.abs(ref) ** 2))
            np.testing.assert_allclose(coeffs[s], ref / math.sqrt(kept), rtol=0, atol=loop_tol)
            assert abs(leaks[s] - max(0.0, 1.0 - kept)) <= loop_tol

    def test_batched_basis_matches_per_column_apply(self):
        topo = itf.two_spdc(0.2, 0.15, 0.4, 0.5)
        elements = itf.network_elements(topo, 0.7)
        cfg = fock.FockConfig(cutoff=8, n_modes=4, mc_samples=50, seed=1)
        run = fock._PreparedNetwork(cfg, elements)
        thermal = next(el for el in elements if isinstance(el, g.ThermalInput))
        for k in range(cfg.dim):
            psi = np.zeros((cfg.dim,) * 4, dtype=complex)
            idx = [0] * 4
            idx[thermal.mode] = k
            psi[tuple(idx)] = 1.0
            for el in elements:
                if not isinstance(el, g.ThermalInput):
                    psi = fock.apply_element(psi, el, cfg.cutoff)
            np.testing.assert_allclose(run.basis[k], psi, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("element", GATES, ids=["squeezer", "splitter"])
    def test_gate_is_unitary_and_number_conserving(self, element):
        for dim in range(5, 22):
            gate = fock.two_mode_gate(element, dim)
            _, conserved = truncated_generator(element, dim)
            np.testing.assert_allclose(gate @ gate.conj().T, np.eye(dim * dim), rtol=0, atol=1e-13)
            assert np.all(gate[conserved[:, None] != conserved[None, :]] == 0.0)

    @pytest.mark.parametrize("element", GATES, ids=["squeezer", "splitter"])
    def test_gate_equals_expm_of_truncated_generator(self, element):
        linalg = pytest.importorskip("scipy.linalg")
        for dim in range(5, 22):
            gen, _ = truncated_generator(element, dim)
            expected = linalg.expm(gen)
            assert np.abs(fock.two_mode_gate(element, dim) - expected).max() <= 1e-13

    def test_package_import_leaves_scipy_out(self):
        src = Path(fock.__file__).resolve().parents[1]
        code = "import sys, icl, icl.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


def pair_major_reference(stack, element, gate):
    """The dense product the block apply replaces: the gate times the stack
    with the element's modes moved to the front."""
    i, j = (
        (element.mode_signal, element.mode_idler)
        if isinstance(element, g.TwoModeSqueezer)
        else (element.mode_a, element.mode_b)
    )
    dim = stack.shape[1]
    moved = np.moveaxis(stack, (i + 1, j + 1), (0, 1))
    out = (gate @ moved.reshape(dim * dim, -1)).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (i + 1, j + 1))


def random_stack(rng, columns, dim, n_modes):
    shape = (columns,) + (dim,) * n_modes
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    norms = np.linalg.norm(stack.reshape(columns, -1), axis=1)
    return stack / norms.reshape((columns,) + (1,) * n_modes)


BLOCK_APPLY_GATES = [
    g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.25, -1.3)),
    g.TwoModeSqueezer(3, 1, g.SqueezerParams(0.1, 2.2)),
    g.BeamSplitter(1, 0, math.cos(0.7), math.sin(0.7)),
    g.BeamSplitter(0, 3, math.cos(1.1), math.sin(1.1)),
    g.TwoModeSqueezer(0, 2, g.SqueezerParams(0.3, 0.0)),
]


class TestBlockKernels:
    @pytest.mark.parametrize("element", GATES, ids=["squeezer", "splitter"])
    def test_block_slices_partition_the_pair_index(self, element):
        for dim in range(2, 22):
            _, conserved = truncated_generator(element, dim)
            slices = fock._pair_blocks(element, dim)
            flat = np.concatenate([np.arange(dim * dim)[s] for s in slices])
            assert np.array_equal(np.sort(flat), np.arange(dim * dim))
            values = [np.unique(conserved[s]) for s in slices]
            assert all(v.size == 1 for v in values)
            assert len({int(v[0]) for v in values}) == len(slices) == 2 * dim - 1

    @pytest.mark.parametrize(
        "element", BLOCK_APPLY_GATES, ids=["sq01", "sq31", "bs10", "bs03", "sq02"]
    )
    def test_block_apply_equals_dense_gate(self, element):
        rng = np.random.default_rng(5)
        for dim, columns in ((2, 1), (5, 3), (7, 2)):
            stack = random_stack(rng, columns, dim, 4)
            gate = fock.two_mode_gate(element, dim)
            got = fock._apply_to_stack(stack, element, dim - 1)
            expected = pair_major_reference(stack, element, gate)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "element",
        GATES + [g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.05, -2.5)), g.BeamSplitter(0, 1, 0.6, 0.8)],
        ids=["squeezer", "splitter", "squeezer-b", "splitter-b"],
    )
    def test_gate_equals_blockwise_eigh_of_truncated_generator(self, element):
        for dim in range(2, 22):
            gen, conserved = truncated_generator(element, dim)
            expected = np.zeros_like(gen)
            for value in np.unique(conserved):
                block = np.ix_(*(np.flatnonzero(conserved == value),) * 2)
                lam, vec = np.linalg.eigh(1j * gen[block])
                expected[block] = (vec * np.exp(-1j * lam)) @ vec.conj().T
            assert np.array_equal(fock.two_mode_gate(element, dim), expected)

    def test_norm_leak_guard_is_live(self, monkeypatch):
        element = GATES[0]
        dim = 6
        blocks = fock._gate_blocks(element, dim)
        # the vacuum's block, n_a - n_b = 0, made slightly non-unitary
        scaled = tuple(
            (s, block * (1.0 + 1e-5) if s.start == 0 else block) for s, block in blocks
        )
        monkeypatch.setattr(fock, "_gate_blocks", lambda el, d: scaled)
        stack = np.zeros((1, dim, dim), dtype=complex)
        stack[0, 0, 0] = 1.0
        with pytest.raises(fock.TruncationError, match="norm leakage"):
            fock._apply_to_stack(stack, element, dim - 1)

    def test_shifted_ladder_equals_dense_contraction(self):
        rng = np.random.default_rng(8)
        for dim in (2, 5, 9):
            stack = random_stack(rng, 3, dim, 3)
            a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
            for mode in range(3):
                dense = np.moveaxis(np.tensordot(a, stack, axes=([1], [mode + 1])), 0, mode + 1)
                assert np.array_equal(fock._annihilated(stack, mode), dense)

    def test_grams_match_tensordot_contraction(self):
        topo = itf.two_spdc(0.2, 0.15, 0.4, 0.5)
        cfg = fock.FockConfig(cutoff=6, n_modes=4, mc_samples=20, seed=3)
        run = fock._PreparedNetwork(cfg, itf.network_elements(topo, 0.3), guard_prep_leak=False)
        assert run.basis.flags.c_contiguous
        a = np.diag(np.sqrt(np.arange(1, cfg.dim)), 1).astype(complex)

        def lowered(stack, mode):
            return np.moveaxis(np.tensordot(a, stack, axes=([1], [mode + 1])), 0, mode + 1)

        axes = (1, 2, 3, 4)
        i, j = itf.MODE_IDLER, itf.MODE_PLUS
        normal = np.tensordot(lowered(run.basis, i).conj(), lowered(run.basis, j), axes=(axes, axes))
        anomalous = np.tensordot(run.basis.conj(), lowered(lowered(run.basis, j), i), axes=(axes, axes))
        np.testing.assert_allclose(run.gram_matrix("normal", i, j), normal, rtol=0, atol=1e-13)
        np.testing.assert_allclose(run.gram_matrix("anomalous", i, j), anomalous, rtol=0, atol=1e-13)

    def test_stack_size_guard_raises_before_allocating(self):
        # (cutoff+1)^n_modes = 41^4 passes the config guard, but a thermal
        # port's 41 basis columns would need 41^5 amplitudes (1.9 GB)
        cfg = fock.FockConfig(cutoff=40, n_modes=4, mc_samples=100, seed=1)
        elements = (g.ThermalInput(3, 0.5), g.BeamSplitter(0, 3, math.sqrt(0.5), math.sqrt(0.5)))
        tracemalloc.start()
        try:
            with pytest.raises(fock.ResourceLimitError, match=r"115856201.*10000000"):
                fock._PreparedNetwork(cfg, elements)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_sample_table_guard_raises_before_drawing(self):
        # 13^5 basis amplitudes pass the stack guard, but 10^6 samples x 13
        # coherent coefficients would need 208 MB before the first draw
        cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10**6, seed=1)
        elements = (g.ThermalInput(3, 0.5), g.BeamSplitter(0, 3, math.sqrt(0.5), math.sqrt(0.5)))
        tracemalloc.start()
        try:
            with pytest.raises(fock.ResourceLimitError, match=r"13000000.*10000000"):
                fock._PreparedNetwork(cfg, elements)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # a vacuum network draws nothing, so the sample count is not guarded
        fock._PreparedNetwork(cfg, elements[1:])


def matched_herald_elements(v_a, v_b, T, n_b, phi):
    """Layout with a pure-loss object port and the background in a spectator
    mode, realizing herald-background statistical independence exactly."""
    s = 1.0 / math.sqrt(2.0)
    elements = [
        g.TwoModeSqueezer(0, 2, g.SqueezerParams(v_a)),
        g.BeamSplitter(2, 3, math.sqrt(T), math.sqrt(1.0 - T)),
        g.TwoModeSqueezer(1, 2, g.SqueezerParams(v_b)),
        g.PhaseShift(1, 2.0 * phi),
        g.BeamSplitter(1, 0, s, s),
    ]
    if n_b > 0.0:
        elements.insert(0, g.ThermalInput(4, n_b))
    return tuple(elements)


class TestMatchedHeraldFringe:
    def test_background_does_not_move_the_conditional_fringe(self):
        cfg = fock.FockConfig(cutoff=10, n_modes=5, mc_samples=2_000, seed=13)
        vis = {}
        err = {}
        for n_b in (0.0, 0.5):
            values = []
            errors = []
            for phi in (0.0, 0.5 * math.pi):
                els = matched_herald_elements(0.1, 0.1, 0.5, n_b, phi)
                est = fock.oracle_conditional(cfg, els, itf.MODE_IDLER, itf.MODE_PLUS)
                values.append(est.value)
                errors.append(est.std_error)
            vis[n_b] = (values[0] - values[1]) / (values[0] + values[1])
            err[n_b] = sum(errors)
        assert abs(vis[0.0] - vis[0.5]) < max(1e-6, 3.0 * (err[0.0] + err[0.5]))


class TestWickResidual:
    def test_deterministic_network(self):
        topo = itf.two_spdc(0.1, 0.1, 0.5, 0.0)
        cfg = fock.FockConfig(cutoff=12, n_modes=4)
        res = fock.wick_residual(cfg, itf.network_elements(topo, 0.4), itf.MODE_IDLER, itf.MODE_PLUS)
        assert res.std_error == 0.0
        assert abs(res.value) < 1e-8

    def test_thermal_network(self):
        topo = itf.two_spdc(0.1, 0.1, 0.5, 0.5)
        cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10_000, seed=31)
        res = fock.wick_residual(cfg, itf.network_elements(topo, 0.4), itf.MODE_IDLER, itf.MODE_PLUS)
        assert abs(res.value) < max(1e-8, 3.0 * res.std_error)


def random_network(rng) -> tuple[int, tuple]:
    """Random low-gain network: squeezers (V <= 0.2) on distinct mode pairs
    so gains never compound on one pair, plus splitters and phases, with an
    optional thermal port (n_bar <= 1)."""
    n_modes = int(rng.integers(3, 5))
    elements = []
    if rng.random() < 0.6:
        elements.append(g.ThermalInput(n_modes - 1, float(rng.uniform(0.1, 1.0))))
    used_pairs = set()
    for _ in range(int(rng.integers(2, 6))):
        kind = rng.integers(0, 3)
        i, j = (int(m) for m in rng.choice(n_modes, size=2, replace=False))
        if kind == 0 and frozenset((i, j)) not in used_pairs:
            used_pairs.add(frozenset((i, j)))
            elements.append(
                g.TwoModeSqueezer(
                    i,
                    j,
                    g.SqueezerParams(
                        float(rng.uniform(0.0, 0.2)), float(rng.uniform(-math.pi, math.pi))
                    ),
                )
            )
        elif kind == 1:
            angle = float(rng.uniform(0.0, 0.5 * math.pi))
            elements.append(g.BeamSplitter(i, j, math.cos(angle), math.sin(angle)))
        else:
            elements.append(g.PhaseShift(i, float(rng.uniform(-math.pi, math.pi))))
    return n_modes, tuple(elements)


class TestEngineEquivalence:
    def test_all_second_moments_on_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            n_modes, elements = random_network(rng)
            cfg = fock.FockConfig(cutoff=12, n_modes=n_modes, mc_samples=3_000, seed=7)
            state = g.run_elements(n_modes, elements)
            for i in range(n_modes):
                est = fock.oracle_moment(cfg, elements, "mean", i)
                assert abs(est.value - g.mean_photon_number(state, i)) < tolerance(est)
                for j in range(n_modes):
                    est_n = fock.oracle_moment(cfg, elements, "normal", i, j)
                    expected_n = g.cross_moment(state, i, j, "normal")
                    assert abs(est_n.value - expected_n) < tolerance(est_n)
                    est_a = fock.oracle_moment(cfg, elements, "anomalous", i, j)
                    expected_a = g.cross_moment(state, i, j, "anomalous")
                    assert abs(est_a.value - expected_a) < tolerance(est_a)

    def test_wick_residual_on_random_networks(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            n_modes, elements = random_network(rng)
            cfg = fock.FockConfig(cutoff=12, n_modes=n_modes, mc_samples=3_000, seed=17)
            i, j = rng.choice(n_modes, size=2, replace=False)
            res = fock.wick_residual(cfg, elements, int(i), int(j))
            assert abs(res.value) < max(1e-8, 3.0 * res.std_error)
