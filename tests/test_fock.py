"""Truncated-Fock oracle tests: gates, the displaced-frame thermal average,
guards, and agreement with the moment engine on shared networks."""

import cmath
import math
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from icl import fock
from icl import gaussian as g
from icl import heralding as her
from icl import interferometer as itf
from icl import verify


def tolerance(est: fock.OracleEstimate, floor: float = 1e-8) -> float:
    return max(floor, 3.0 * est.std_error)


def truncation_term(run, cutoff: int, n_modes: int) -> float:
    """The larger of |value - value at cutoff - 1| and |value - value at
    cutoff - 2|, each value from its own ``run`` of the estimator."""
    configs = (fock.FockConfig(cutoff=c, n_modes=n_modes) for c in (cutoff, cutoff - 1, cutoff - 2))
    value, *lower = (run(cfg).value for cfg in configs)
    return max(abs(value - v) for v in lower)


class TestGates:
    def test_squeezed_vacuum_schmidt_coefficients(self):
        cfg = fock.FockConfig(cutoff=10, n_modes=2)
        psi = fock.simulate_network(cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),))
        v, u = 0.1, 1.1
        for n in range(6):
            expected = math.sqrt(1.0 / u) * math.sqrt(v / u) ** n
            assert abs(psi[n, n]) == pytest.approx(expected, abs=1e-9)
        off_diag = abs(psi[0, 1]) + abs(psi[1, 0]) + abs(psi[2, 1])
        assert off_diag < 1e-12

    def test_identity_network_keeps_vacuum(self):
        cfg = fock.FockConfig(cutoff=5, n_modes=3)
        psi = fock.simulate_network(cfg, ())
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


class TestThermalAverage:
    @pytest.mark.parametrize("n_bar", [0.8, 10.0, 100.0])
    def test_lone_thermal_mode_is_exact(self, n_bar):
        # <n> = n_bar and <n(n-1)> = 2 n_bar^2, at any brightness
        cfg = fock.FockConfig(cutoff=4, n_modes=1)
        els = (g.ThermalInput(0, n_bar),)
        mean = fock.oracle_moment(cfg, els, "mean", 0)
        nsq = fock.oracle_moment(cfg, els, "number_product", 0, 0)
        assert mean.value == pytest.approx(n_bar, rel=1e-12, abs=0)
        assert nsq.value - mean.value == pytest.approx(2.0 * n_bar**2, rel=1e-12, abs=0)
        assert mean.std_error == nsq.std_error == 0.0

    @pytest.mark.parametrize("n_b", [0.5, 10.0, 100.0])
    def test_two_source_checks_pass_on_the_truncation_term(self, n_b):
        results = verify.two_spdc_checks(0.1, 0.1, 0.5, n_b, phi=0.7, cutoff=12)
        assert len(results) == 7
        for r in results:
            assert r.passed, (r.name, r.got, r.expected, r.tol)

    def test_three_and_five_nodes_agree(self, monkeypatch):
        rng = np.random.default_rng(2024)
        networks = [verify.random_low_gain_network(rng) for _ in range(60)]
        thermal = [
            (n_modes, els) for n_modes, els in networks
            if any(isinstance(el, g.ThermalInput) for el in els)
        ]
        assert len(thermal) > 20
        # Gauss-Hermite nodes and weights of a standard normal, exact to degree 9
        nodes, weights = np.polynomial.hermite_e.hermegauss(5)
        for n_modes, els in thermal:
            cfg = fock.FockConfig(cutoff=12, n_modes=n_modes)
            three = fock._PreparedNetwork(cfg, els)
            with monkeypatch.context() as m:
                m.setattr(fock, "_NODES", tuple(nodes))
                m.setattr(fock, "_WEIGHTS", tuple(weights / math.sqrt(2.0 * math.pi)))
                other = fock._PreparedNetwork(cfg, els)
            port = n_modes - 1
            kinds = [("mean", 0, None), ("mean", port, None), ("normal", 0, port),
                     ("anomalous", 0, 1), ("number_product", 0, port), ("number_product", 1, 1)]
            for kind in kinds:
                got, ref = three.moment(*kind), other.moment(*kind)
                assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), kind

    def test_anomalous_moment_averages_out(self):
        cfg = fock.FockConfig(cutoff=14, n_modes=1)
        est = fock.oracle_moment(cfg, (g.ThermalInput(0, 0.5),), "anomalous", 0, 0)
        assert abs(est.value) < 3.0 * est.std_error + 1e-8

    def test_deterministic_networks_report_truncation_error(self):
        els = (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),)
        est = fock.oracle_moment(fock.FockConfig(cutoff=8, n_modes=2), els, "mean", 0)
        # no statistical part: the error bar is the truncation term alone
        assert est.std_error == truncation_term(lambda cfg: fock.oracle_moment(cfg, els, "mean", 0), 8, 2)
        assert est.std_error > 0.0

    def test_thermal_networks_report_truncation_error(self):
        els = (
            g.ThermalInput(1, 0.5),
            g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),
            g.BeamSplitter(0, 1, math.sqrt(0.5), math.sqrt(0.5)),
        )
        est = fock.oracle_moment(fock.FockConfig(cutoff=10, n_modes=2), els, "mean", 0)
        assert est.std_error == truncation_term(lambda cfg: fock.oracle_moment(cfg, els, "mean", 0), 10, 2)
        assert est.std_error > 0.0

    def test_simulate_network_returns_the_vacuum_run_only(self):
        cfg = fock.FockConfig(cutoff=8, n_modes=2)
        splitter = g.BeamSplitter(0, 1, math.sqrt(0.5), math.sqrt(0.5))
        psi = fock.simulate_network(cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),))
        assert psi.shape == (9, 9)
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ValueError, match="oracle_moment"):
            fock.simulate_network(cfg, (g.ThermalInput(1, 0.5), splitter))


def mixture_networks() -> dict[str, tuple[int, int, tuple]]:
    """label -> (n_modes, cutoff, elements) of thermal networks on which the
    Fock mixture below converges to about 1e-10 at that cutoff: the two-source
    layout, a bright port (n_bar = 2) on a squeezer and splitter, and the first
    thermal network of ``random_low_gain_network`` at seed 2024."""
    rng = np.random.default_rng(2024)
    while True:
        n_modes, random_els = verify.random_low_gain_network(rng)
        if any(isinstance(el, g.ThermalInput) for el in random_els):
            break
    bright = (
        g.ThermalInput(1, 2.0),
        g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.05)),
        g.BeamSplitter(0, 1, math.sqrt(0.3), math.sqrt(0.7)),
    )
    return {
        "2spdc": (4, 14, itf.network_elements(itf.two_spdc(0.15, 0.1, 0.4, 0.1), 0.7)),
        "bright": (2, 80, bright),
        "random": (n_modes, 24, random_els),
    }


@lru_cache(maxsize=None)
def fock_mixture_moments(label: str) -> dict[tuple, complex]:
    """Every moment of a network's output, averaged over the thermal port's
    photon-number mixture sum_n (1 - q) q^n |n><n|, q = n_bar / (1 + n_bar):
    each |n> at the port runs through the network on its own, the way the
    displaced frame does not."""
    n_modes, cutoff, elements = mixture_networks()[label]
    thermal = next(el for el in elements if isinstance(el, g.ThermalInput))
    dim = cutoff + 1
    stack = np.zeros((dim,) * (n_modes + 1), dtype=complex)
    for n in range(dim):
        idx = [0] * n_modes
        idx[thermal.mode] = n
        stack[(n, *idx)] = 1.0
    for el in elements:
        if not isinstance(el, g.ThermalInput):
            stack = fock._apply_to_stack(stack, el, cutoff)
    q = thermal.n_bar / (1.0 + thermal.n_bar)
    weights = (1.0 - q) * q ** np.arange(dim)
    axes = tuple(range(1, n_modes + 1))
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)

    def lowered(psi, mode):
        return np.moveaxis(np.tensordot(a, psi, axes=([1], [mode + 1])), 0, mode + 1)

    def average(left, right):
        return complex(np.sum(weights * np.sum(np.conj(left) * right, axis=axes)))

    def number(mode):
        return np.arange(dim).reshape([1] + [dim if m == mode else 1 for m in range(n_modes)])

    moments = {}
    for i in range(n_modes):
        moments["mean", i, None] = average(stack, number(i) * stack)
        for j in range(n_modes):
            moments["normal", i, j] = average(lowered(stack, i), lowered(stack, j))
            moments["anomalous", i, j] = average(stack, lowered(lowered(stack, j), i))
            moments["number_product", i, j] = average(stack, number(i) * number(j) * stack)
    return moments


class TestThermalMixture:
    """The displaced frame against the port's Fock mixture, every mode pair."""

    @pytest.mark.parametrize("kind", ["mean", "normal", "anomalous", "number_product"])
    @pytest.mark.parametrize("label", ["2spdc", "bright", "random"])
    def test_displaced_frame_equals_fock_mixture(self, label, kind):
        n_modes, cutoff, elements = mixture_networks()[label]
        run = fock._PreparedNetwork(fock.FockConfig(cutoff=cutoff, n_modes=n_modes), elements)
        checked = 0
        for key, ref in fock_mixture_moments(label).items():
            if key[0] == kind:
                got = run.moment(*key)
                assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (key, got, ref)
                checked += 1
        assert checked == (n_modes if kind == "mean" else n_modes**2)


class TestGuards:
    def test_dimension_guard(self):
        # the config holds no dimension check; the prepared network's count,
        # (n_modes+1) x 101^4 amplitudes, is the one memory guard
        cfg = fock.FockConfig(cutoff=100, n_modes=4)
        with pytest.raises(fock.ResourceLimitError, match="dimension guard"):
            fock.oracle_moment(cfg, (), "mean", 0)

    def test_one_sample_rejected(self):
        # the oracle ignores mc_samples, but validates it as oracle.samples is
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
            fock.oracle_moment(cfg, (g.ThermalInput(0, 200.0),), "mean", 0)

    def test_single_thermal_port_only(self):
        cfg = fock.FockConfig(cutoff=8, n_modes=2)
        els = (g.ThermalInput(0, 0.5), g.ThermalInput(1, 0.5))
        with pytest.raises(ValueError, match="thermal port"):
            fock.oracle_moment(cfg, els, "mean", 0)

    def test_vacuum_error_bar_covers_truncation_near_envelope_edge(self):
        els = (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.25)),)
        est = fock.oracle_moment(fock.FockConfig(cutoff=10, n_modes=2), els, "mean", 0)
        assert abs(est.value - 0.25) <= est.std_error

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_cutoff_below_four_rejected(self, cutoff):
        # the cutoff - 1 and cutoff - 2 runs behind the error bar need cutoff >= 4
        cfg = fock.FockConfig(cutoff=cutoff, n_modes=2)
        with pytest.raises(ValueError, match="cutoff >= 4"):
            fock.oracle_moment(
                cfg, (g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.1)),), "mean", 0
            )

    def test_cutoff_level_mass_is_judged_on_the_error_bar(self):
        # 2.6e-6 of probability sits at the cutoff level of mode 0 or 1:
        # the network is answered, and its error bar covers the truncation
        squeezer = g.TwoModeSqueezer(0, 1, g.SqueezerParams(0.183))
        els = (squeezer, g.BeamSplitter(0, 1, math.sqrt(0.5), math.sqrt(0.5)))
        cfg = fock.FockConfig(cutoff=12, n_modes=2)
        psi = fock.simulate_network(cfg, els)
        assert np.sum(np.abs(psi[-1]) ** 2) > 2e-6
        state = g.run_elements(2, els)
        for kind, i, j, expected in (
            ("mean", 0, None, g.mean_photon_number(state, 0)),
            ("anomalous", 0, 0, g.cross_moment(state, 0, 0, "anomalous")),
        ):
            est = fock.oracle_moment(cfg, els, kind, i, j)
            assert est.std_error > 0.0
            assert abs(est.value - expected) <= tolerance(est), (kind, est, expected)


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
        cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10_000)
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
        cfg = fock.FockConfig(cutoff=12, n_modes=3, mc_samples=2_000)
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
        cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10_000)
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
    def test_oracle_path_seeds_no_generator_and_builds_no_dense_gate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the oracle path")

        monkeypatch.setattr(fock, "two_mode_gate", forbidden)
        monkeypatch.setattr(fock.np.random, "default_rng", forbidden)
        monkeypatch.setattr(fock.np.random, "Generator", forbidden)
        monkeypatch.setattr(fock.np.random, "SeedSequence", forbidden)
        fock._prepare.cache_clear()
        fock._gate_blocks.cache_clear()
        elements = itf.network_elements(itf.two_spdc(0.1, 0.1, 0.5, 0.4), 0.3)
        cfg = fock.FockConfig(cutoff=6, n_modes=4, mc_samples=50)
        fock.wick_residual(cfg, elements, itf.MODE_IDLER, itf.MODE_PLUS)
        fock._prepare.cache_clear()

    def test_batched_basis_matches_per_column_apply(self):
        # the stack holds psi0 (vacuum in) and psi1 (|1> at the thermal port)
        topo = itf.two_spdc(0.2, 0.15, 0.4, 0.5)
        elements = itf.network_elements(topo, 0.7)
        cfg = fock.FockConfig(cutoff=8, n_modes=4)
        run = fock._PreparedNetwork(cfg, elements)
        assert run.states.shape == (2,) + (cfg.dim,) * 4
        thermal = next(el for el in elements if isinstance(el, g.ThermalInput))
        for k in range(2):
            psi = np.zeros((cfg.dim,) * 4, dtype=complex)
            idx = [0] * 4
            idx[thermal.mode] = k
            psi[tuple(idx)] = 1.0
            for el in elements:
                if not isinstance(el, g.ThermalInput):
                    psi = fock.apply_element(psi, el, cfg.cutoff)
            np.testing.assert_allclose(run.states[k], psi, rtol=0, atol=1e-13)

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

    @pytest.mark.parametrize(
        "element",
        GATES + [g.TwoModeSqueezer(2, 0, g.SqueezerParams(0.12, 1.7)), g.BeamSplitter(0, 1, 0.8, -0.6)],
        ids=["squeezer", "splitter", "squeezer-b", "splitter-b"],
    )
    def test_gate_blocks_equal_per_block_eigh(self, element):
        for dim in range(2, 22):
            gen, _ = truncated_generator(element, dim)
            blocks = fock._gate_blocks(element, dim)
            assert [s for s, _ in blocks] == fock._pair_blocks(element, dim)
            for s, block in blocks:
                lam, vec = np.linalg.eigh(1j * gen[s, s])
                assert np.array_equal(block, (vec * np.exp(-1j * lam)) @ vec.conj().T)
                assert block.flags.c_contiguous and not block.flags.writeable

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

    def test_readout_matches_tensordot_contraction(self):
        topo = itf.two_spdc(0.2, 0.15, 0.4, 0.5)
        cfg = fock.FockConfig(cutoff=6, n_modes=4)
        run = fock._PreparedNetwork(cfg, itf.network_elements(topo, 0.3))
        assert run.states.flags.c_contiguous
        a = np.diag(np.sqrt(np.arange(1, cfg.dim)), 1).astype(complex)

        def lowered(psi, mode):
            return np.moveaxis(np.tensordot(a, psi, axes=([1], [mode])), 0, mode)

        psi0, psi1 = run.states
        i, j = itf.MODE_IDLER, itf.MODE_PLUS
        normal = np.vdot(lowered(psi0, i), lowered(psi0, j))
        anomalous = np.vdot(psi0, lowered(lowered(psi0, j), i))
        assert abs(run._moment0("normal", i, j) - normal) <= 1e-13
        assert abs(run._moment0("anomalous", i, j) - anomalous) <= 1e-13
        # beta_i = M_i alpha + N_i conj(alpha), M_i = <psi0|a_i|psi1>, N_i = <psi1|a_i|psi0>
        m, n = np.vdot(psi0, lowered(psi1, i)), np.vdot(psi1, lowered(psi0, i))
        alphas = run._alphas
        np.testing.assert_allclose(run._beta(i), m * alphas + n * alphas.conj(), rtol=0, atol=1e-13)

    def test_stack_size_guard_raises_before_allocating(self):
        # a thermal port's two columns, psi0 and psi1, would pass the guard
        # on their own, 2 x 32^4 amplitudes; with a lowered copy kept per
        # mode they would need 2 x 5 x 32^4 amplitudes (168 MB)
        cfg = fock.FockConfig(cutoff=31, n_modes=4)
        elements = (g.ThermalInput(3, 0.5), g.BeamSplitter(0, 3, math.sqrt(0.5), math.sqrt(0.5)))
        tracemalloc.start()
        try:
            with pytest.raises(fock.ResourceLimitError, match=r"2 columns .* 10485760 .*10000000"):
                fock._PreparedNetwork(cfg, elements)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


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
        cfg = fock.FockConfig(cutoff=10, n_modes=5, mc_samples=2_000)
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


# Thermal random networks of the verify workload whose Wick residual converges
# non-monotonically in the cutoff: label -> (elements, modes, cutoff, step),
# where the difference to cutoff - step alone undercounts the error.
NON_MONOTONE = {
    # the residual alternates in sign between odd and even cutoffs
    "alternating": (
        (
            g.ThermalInput(2, 0.1592527283086444),
            g.TwoModeSqueezer(1, 2, g.SqueezerParams(0.1265617543335329, 2.7910050436559946)),
            g.BeamSplitter(2, 1, 0.09232560486901971, 0.995728870067334),
            g.BeamSplitter(0, 1, 0.20772786257949624, 0.978186656578464),
            g.PhaseShift(2, -3.080068035589147),
        ),
        (2, 0),
        14,
        2,
    ),
    # it moves in steps, stalling over cutoffs 15 and 16
    "paired": (
        (
            g.ThermalInput(2, 0.704067493039547),
            g.TwoModeSqueezer(0, 2, g.SqueezerParams(0.18172808415359645, -9.768778379726228e-05)),
            g.PhaseShift(2, 2.3875481807305983),
            g.BeamSplitter(2, 0, 0.007143929137023035, 0.9999744818126537),
            g.BeamSplitter(2, 1, 0.648008622106496, 0.7616329993347455),
            g.PhaseShift(1, 1.6896372462391733),
        ),
        (0, 1),
        16,
        1,
    ),
}


class TestWickResidual:
    def test_deterministic_network(self):
        topo = itf.two_spdc(0.1, 0.1, 0.5, 0.0)
        els = itf.network_elements(topo, 0.4)
        i, s = itf.MODE_IDLER, itf.MODE_PLUS
        res = fock.wick_residual(fock.FockConfig(cutoff=12, n_modes=4), els, i, s)
        assert res.std_error == truncation_term(lambda cfg: fock.wick_residual(cfg, els, i, s), 12, 4)
        assert abs(res.value) < 1e-8

    def test_thermal_network(self):
        topo = itf.two_spdc(0.1, 0.1, 0.5, 0.5)
        cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10_000)
        res = fock.wick_residual(cfg, itf.network_elements(topo, 0.4), itf.MODE_IDLER, itf.MODE_PLUS)
        assert abs(res.value) < max(1e-8, 3.0 * res.std_error)

    @pytest.mark.parametrize("label", sorted(NON_MONOTONE))
    def test_truncation_term_covers_non_monotone_convergence(self, label):
        els, (i, j), cutoff, step = NON_MONOTONE[label]

        def run(c):
            return fock.wick_residual(fock.FockConfig(cutoff=c, n_modes=3), els, i, j)

        res, converged = run(cutoff), run(cutoff + 8)
        error = abs(res.value - converged.value)
        # the difference to cutoff - step alone would fail the check
        assert error > 3.0 * abs(res.value - run(cutoff - step).value)
        assert error <= 3.0 * res.std_error

    def test_vacuum_grid_point_with_a_hump_passes(self):
        # the residual's error changes sign near cutoff 10 and peaks at 11,
        # so cutoffs 10 and 12 agree to 3e-10 while both are 3e-8 off
        results = verify.two_spdc_checks(0.217244, 0.268809, 0.524065, 0.0, phi=0.7, cutoff=12)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


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
            cfg = fock.FockConfig(cutoff=12, n_modes=n_modes, mc_samples=3_000)
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
            cfg = fock.FockConfig(cutoff=12, n_modes=n_modes, mc_samples=3_000)
            i, j = rng.choice(n_modes, size=2, replace=False)
            res = fock.wick_residual(cfg, elements, int(i), int(j))
            assert abs(res.value) < max(1e-8, 3.0 * res.std_error)

