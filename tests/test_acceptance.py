"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criterion 5b is parametrized over the three high-gain settings and checks
where the zero-background visibility 2 sqrt((1+V)T) / (2+TV) peaks in T: at
T* = min(2/V, 1), its only stationary point 2/V when that lies in (0, 1].
The maximum is therefore interior iff V > 2; at V = 1 the curve rises
strictly and peaks at the endpoint T = 1.
"""

import math
import time

import numpy as np
import pytest

from icl import cli, fock
from icl import gaussian as g
from icl import heralding as her
from icl import interferometer as itf
from icl import metrics as met
from icl import verify


def report(cid: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {cid}: {status}{suffix}")


def closed_form_singles(v_a, v_b, T, n_b, phi):
    """Reference singles formula, written out independently of the library."""
    dc = v_a + v_b + T * v_a * v_b + (1.0 - T) * n_b * v_b
    ac = 2.0 * math.sqrt((1.0 + v_a) * v_a * v_b * T) * math.cos(2.0 * phi)
    return 0.5 * (dc + ac), 0.5 * (dc - ac)


def test_criterion_1_engine_matches_closed_form():
    rng = np.random.default_rng(2024)
    n_sets = 1000
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n_sets):
        v_a, v_b = rng.uniform(0.0, 100.0, 2)
        T = rng.uniform(0.0, 1.0)
        n_b = rng.uniform(0.0, 100.0)
        phi = rng.uniform(0.0, math.pi)
        got = itf.singles_fringe_engine(itf.two_spdc(v_a, v_b, T, n_b), phi)
        expected = closed_form_singles(v_a, v_b, T, n_b, phi)
        worst = max(worst, abs(got[0] - expected[0]), abs(got[1] - expected[1]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report("1 engine/closed-form equivalence", ok, f"worst |diff| {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence_low_gain():
    start = time.perf_counter()
    phi = 0.7
    worst_ratio = 0.0
    for n_b in (0.0, 0.5):
        for T in (0.0, 0.25, 0.5, 0.75, 1.0):
            topo = itf.two_spdc(0.1, 0.1, T, n_b)
            elements = itf.network_elements(topo, phi)
            cfg = fock.FockConfig(cutoff=12, n_modes=4, mc_samples=10_000)
            state = itf.output_state(topo, phi)
            for mode in range(4):
                est = fock.oracle_moment(cfg, elements, "mean", mode)
                tol = max(1e-8, 3.0 * est.std_error)
                diff = abs(est.value - g.mean_photon_number(state, mode))
                worst_ratio = max(worst_ratio, diff / tol)
            for i in range(4):
                for j in range(i, 4):
                    est = fock.oracle_moment(cfg, elements, "anomalous", i, j)
                    tol = max(1e-8, 3.0 * est.std_error)
                    diff = abs(est.value - g.cross_moment(state, i, j, "anomalous"))
                    worst_ratio = max(worst_ratio, diff / tol)
                    if i != j:
                        est = fock.oracle_moment(cfg, elements, "normal", i, j)
                        tol = max(1e-8, 3.0 * est.std_error)
                        diff = abs(est.value - g.cross_moment(state, i, j, "normal"))
                        worst_ratio = max(worst_ratio, diff / tol)
            est = fock.oracle_conditional(cfg, elements, itf.MODE_IDLER, itf.MODE_PLUS)
            tol = max(1e-8, 3.0 * est.std_error)
            diff = abs(est.value - her.conditional_mean_wick(state, itf.MODE_IDLER, itf.MODE_PLUS))
            worst_ratio = max(worst_ratio, diff / tol)
    elapsed = time.perf_counter() - start
    ok = worst_ratio < 1.0 and elapsed < 300.0
    report("2 oracle equivalence", ok, f"worst diff/tol {worst_ratio:.3f}, {elapsed:.1f} s")
    assert worst_ratio < 1.0
    assert elapsed < 300.0


def test_criterion_3_coherence_bound_and_attenuation():
    rng = np.random.default_rng(5)
    bound_ok = True
    for _ in range(500):
        v_a = rng.uniform(1e-3, 100.0)
        v_b = rng.uniform(1e-3, 100.0)
        T = rng.uniform(0.0, 1.0)
        n_b = rng.uniform(0.0, 100.0)
        topo = itf.two_spdc(v_a, v_b, T, n_b)
        bound_ok &= met.visibility(topo) <= itf.g1_coherence(topo) + 1e-10

    closed_ok = True
    search_ok = True
    for T in (0.1, 0.35, 0.6, 0.85):
        for n_b in (0.0, 1.0, 10.0, 100.0):
            value = met.optimal_attenuated_visibility(T, 0.1, n_b)
            bound = itf.g1_coherence(itf.two_spdc(0.1, 7.0, T, n_b))
            closed_ok &= abs(value - bound) < 1e-12
            _, best = met.attenuation_search(0.1, 0.1, T, n_b)
            search_ok &= abs(best - value) < 1e-6
    ok = bound_ok and closed_ok and search_ok
    report(
        "3 coherence bound / optimal attenuation",
        ok,
        f"bound {bound_ok}, closed-form {closed_ok}, search {search_ok}",
    )
    assert bound_ok and closed_ok and search_ok


def test_criterion_4_heralded_background_independence():
    backgrounds = (0.0, 1.0, 10.0, 100.0)
    vis_values = [
        her.heralded_visibility_pair_limit(itf.two_spdc(0.1, 0.1, 0.5, n_b))
        for n_b in backgrounds
    ]
    snr_values = [
        met.snr_heralded(itf.two_spdc(0.1, 0.1, 0.5, n_b), 0.0, "pair").value
        for n_b in backgrounds
    ]
    flat_vis = max(vis_values) - min(vis_values) < 1e-12
    flat_snr = max(snr_values) - min(snr_values) < 1e-12

    vis_nb0 = met.visibility(itf.two_spdc(0.1, 0.1, 0.5, 0.0))
    vis_nb10 = met.visibility(itf.two_spdc(0.1, 0.1, 0.5, 10.0))
    anchored = abs(vis_nb0 - 0.723531) < 1e-6 and abs(vis_nb10 - 0.210389) < 1e-6
    ok = flat_vis and flat_snr and anchored
    report(
        "4 heralded background independence",
        ok,
        f"vis spread {max(vis_values) - min(vis_values):.1e}, "
        f"uncond vis {vis_nb0:.6f} -> {vis_nb10:.6f}",
    )
    assert flat_vis and flat_snr
    assert anchored


def test_criterion_5a_low_gain_monotone_visibility():
    start = time.perf_counter()
    ok = True
    for n_b in (0.0, 10.0, 100.0):
        values = [
            met.visibility(itf.two_spdc(0.1, 0.1, T, n_b)) for T in np.linspace(0.0, 1.0, 100)
        ]
        ok &= all(b > a for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    report("5a low-gain monotone visibility", ok, f"{elapsed:.2f} s")
    assert ok
    assert elapsed < 5.0


@pytest.mark.parametrize("gain", [1.0, 10.0, 100.0])
def test_criterion_5b_high_gain_interior_peak(gain):
    start = time.perf_counter()
    grid = np.linspace(1e-3, 1.0, 100)
    values = [met.visibility(itf.two_spdc(gain, gain, T, 0.0)) for T in grid]
    best = int(np.argmax(values))
    # d/dT [sqrt(T) / (2 + T V)] = 0 gives 2 + T V = 2 T V, i.e. T = 2/V.
    t_star = min(2.0 / gain, 1.0)
    near = abs(grid[best] - t_star) <= grid[1] - grid[0]
    interior = 0 < best < len(grid) - 1
    expect_interior = 2.0 / gain < 1.0
    rising = expect_interior or all(b > a for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    report(
        f"5b high-gain visibility peak (V={gain:g})",
        near and interior == expect_interior and rising,
        f"argmax T = {grid[best]:.3f}, expected maximiser min(2/V, 1) = {t_star:g}, "
        f"{elapsed:.2f} s",
    )
    assert elapsed < 5.0
    assert near
    assert interior == expect_interior
    assert rising


def test_criterion_5c_rebalanced_curves_dominate():
    start = time.perf_counter()
    ok = True
    for n_b in (10.0, 100.0):
        for T in np.linspace(0.0, 1.0, 100):
            vis2 = met.visibility(itf.two_spdc(10.0, 10.0, T, n_b))
            vis3 = met.visibility(itf.three_spdc(10.0, 10.0, 10.0, T, n_b))
            atten = met.optimal_attenuated_visibility(T, 10.0, n_b)
            bound = itf.g1_coherence(itf.two_spdc(10.0, 10.0, T, n_b))
            ok &= vis3 >= vis2 - 1e-12 and atten >= vis2 - 1e-12
            ok &= max(vis2, vis3, atten) <= bound + 1e-10
    elapsed = time.perf_counter() - start
    report("5c rebalanced curves dominate", ok, f"{elapsed:.2f} s")
    assert ok
    assert elapsed < 5.0


def test_criterion_5d_snr_scaling_shapes():
    start = time.perf_counter()
    topo = lambda T, n_b: itf.two_spdc(0.1, 0.1, T, n_b)
    linear_ok = True
    for n_b in (0.0, 10.0):
        for value_of in (
            lambda t: met.snr_unconditional(topo(t, n_b), 0.0).value,
            lambda t: met.snr_heralded(topo(t, n_b), 0.0, "pair").value,
        ):
            linear_ok &= abs(value_of(1e-3) / 1e-3 / (value_of(1e-4) / 1e-4) - 1.0) < 0.01
    flat = [
        met.snr_heralded(topo(0.37, n_b), 0.0, "pair").value for n_b in (0.0, 1.0, 10.0, 100.0)
    ]
    flat_ok = max(flat) - min(flat) < 1e-12
    converge_ok = all(
        abs(
            met.snr_unconditional(topo(1.0, n_b), 0.0).value
            - met.snr_heralded(topo(1.0, n_b), 0.0, "pair").value
        )
        < 1e-14
        for n_b in (0.0, 10.0, 100.0)
    )
    elapsed = time.perf_counter() - start
    ok = linear_ok and flat_ok and converge_ok
    report(
        "5d SNR scaling shapes",
        ok,
        f"linear {linear_ok}, background-flat {flat_ok}, T=1 convergence {converge_ok}",
    )
    assert ok
    assert elapsed < 5.0


def test_criterion_6_wick_identity_verification():
    start = time.perf_counter()
    results = verify.wick_residual_checks(n_networks=20, cutoff=12, seed=99)
    elapsed = time.perf_counter() - start
    n_pass = sum(r.passed for r in results)
    ok = n_pass == len(results) and elapsed < 120.0
    report("6 Wick-identity verification", ok, f"{n_pass}/{len(results)} networks, {elapsed:.1f} s")
    assert n_pass == len(results)
    assert elapsed < 120.0


def test_criterion_7_cli_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            ["scan-visibility", "--config", "fig3.cfg", "--out", str(out), "--seed", "7"]
        )
        assert code == 0
        outs.append((out / "scan_visibility.csv").read_bytes())
    ok = outs[0] == outs[1]
    report("7 CLI determinism", ok, f"{len(outs[0])} bytes each")
    assert ok
