"""Oracle verification suite: truncated-Fock simulation against the moment
engine and the conditional-statistics machinery on shared networks.

Each check compares one quantity on one network, with tolerance
max(1e-8, 3 * standard error); the oracle's standard error is its
truncation term alone, on vacuum and thermal networks alike, and no network
is refused for its truncation.  The suite is deterministic given the
config.  The oracle seed (``oracle.seed``, or ``--seed``) only draws the
five random networks of ``wick_residual_checks``, and ``oracle.samples``
has no effect: the oracle averages a thermal port exactly and samples nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, gaussian, heralding, interferometer
from .config import ConfigError, RunConfig
from .interferometer import MODE_IDLER, MODE_MINUS, MODE_PLUS


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: complex
    got: complex
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.got - self.expected) <= self.tol


def _check(name: str, expected: complex, est: fock.OracleEstimate) -> CheckResult:
    return CheckResult(name, expected, est.value, max(1e-8, 3.0 * est.std_error))


def two_spdc_checks(
    v_a: float, v_b: float, T: float, n_b: float, phi: float, cutoff: int
) -> list[CheckResult]:
    """Engine-vs-oracle comparison of every detected moment of one network."""
    topo = interferometer.two_spdc(v_a, v_b, T, n_b)
    elements = interferometer.network_elements(topo, phi)
    cfg = fock.FockConfig(cutoff=cutoff, n_modes=4)
    state = interferometer.output_state(topo, phi)
    tag = f"T={T:g} N_B={n_b:g} phi={phi:g}"

    mean, cross = gaussian.mean_photon_number, gaussian.cross_moment
    i, s = MODE_IDLER, MODE_PLUS
    rows = (
        ("n_plus", mean(state, s), fock.oracle_moment(cfg, elements, "mean", s)),
        ("n_minus", mean(state, MODE_MINUS), fock.oracle_moment(cfg, elements, "mean", MODE_MINUS)),
        ("n_idler", mean(state, i), fock.oracle_moment(cfg, elements, "mean", i)),
        ("normal_idler_plus", cross(state, i, s, "normal"),
         fock.oracle_moment(cfg, elements, "normal", i, s)),
        ("anomalous_idler_plus", cross(state, i, s, "anomalous"),
         fock.oracle_moment(cfg, elements, "anomalous", i, s)),
        ("conditional_mean", heralding.conditional_mean_wick(state, i, s),
         fock.oracle_conditional(cfg, elements, i, s)),
        ("wick_residual", 0.0, fock.wick_residual(cfg, elements, i, s)),
    )
    return [_check(f"{label} [{tag}]", expected, est) for label, expected, est in rows]


def random_low_gain_network(rng: np.random.Generator) -> tuple[int, tuple]:
    """Random network within the oracle's envelope: squeezers (V <= 0.2) on
    distinct pairs, splitters, phases, and an optional thermal port."""
    n_modes = int(rng.integers(3, 5))
    elements = []
    if rng.random() < 0.5:
        elements.append(gaussian.ThermalInput(n_modes - 1, float(rng.uniform(0.1, 1.0))))
    used = set()
    n_squeezers = 0
    for _ in range(int(rng.integers(2, 6))):
        kind = int(rng.integers(0, 3))
        i, j = (int(m) for m in rng.choice(n_modes, size=2, replace=False))
        if kind == 0 and frozenset((i, j)) not in used:
            used.add(frozenset((i, j)))
            n_squeezers += 1
            elements.append(
                gaussian.TwoModeSqueezer(
                    i,
                    j,
                    gaussian.SqueezerParams(
                        float(rng.uniform(0.01, 0.2)), float(rng.uniform(-math.pi, math.pi))
                    ),
                )
            )
        elif kind == 1:
            angle = float(rng.uniform(0.0, 0.5 * math.pi))
            elements.append(gaussian.BeamSplitter(i, j, math.cos(angle), math.sin(angle)))
        else:
            elements.append(gaussian.PhaseShift(i, float(rng.uniform(-math.pi, math.pi))))
    if n_squeezers == 0:
        elements.append(gaussian.TwoModeSqueezer(0, 1, gaussian.SqueezerParams(0.1)))
    return n_modes, tuple(elements)


def wick_residual_checks(n_networks: int, cutoff: int, seed: int) -> list[CheckResult]:
    """Fourth-order factorization residual on random low-gain networks."""
    rng = np.random.default_rng(seed)
    results = []
    for k in range(n_networks):
        n_modes, elements = random_low_gain_network(rng)
        i, j = (int(m) for m in rng.choice(n_modes, size=2, replace=False))
        cfg = fock.FockConfig(cutoff=cutoff, n_modes=n_modes)
        res = fock.wick_residual(cfg, elements, i, j)
        results.append(_check(f"wick_residual_random_{k:02d} (modes {i},{j})", 0.0, res))
    return results


def run_default_suite(cfg: RunConfig) -> list[CheckResult]:
    """The `verify` command's suite over the config's (T, N_B) grid.

    Every grid point needs herald clicks, so a point whose idler mode is
    empty is a ``ConfigError``, raised before any oracle work."""
    grid = [(float(T), float(n_b)) for n_b in cfg.n_b_values for T in cfg.transmittance_values()]
    topos = [interferometer.two_spdc(cfg.v_a, cfg.v_b, T, n_b) for T, n_b in grid]
    idler = interferometer.output_states(topos, [0.7] * len(topos)).mean_photon_numbers(MODE_IDLER)
    for (T, n_b), n_i in zip(grid, idler):
        if n_i <= 0.0:
            raise ConfigError(f"herald mode is empty at T={T:g} N_B={n_b:g}: no click to verify")
    results: list[CheckResult] = []
    for T, n_b in grid:
        results.extend(two_spdc_checks(cfg.v_a, cfg.v_b, T, n_b, phi=0.7, cutoff=cfg.cutoff))
    results.extend(wick_residual_checks(n_networks=5, cutoff=cfg.cutoff, seed=cfg.seed + 1000))
    return results


def _fmt_value(value: complex) -> str:
    if isinstance(value, complex) and abs(value.imag) > 1e-15:
        return f"{value.real:.10g}{value.imag:+.10g}j"
    return f"{complex(value).real:.10g}"


def format_report(results: list[CheckResult]) -> str:
    lines = ["oracle verification report", "=" * 26]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name}: expected={_fmt_value(r.expected)} "
            f"got={_fmt_value(r.got)} tol={r.tol:.3e}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
