"""Idler-conditioned (heralded) signal statistics.

For a zero-mean Gaussian field the fourth-order moment factorizes,

    <n_I n_S> = <n_I><n_S> + |<a_I a_S>|^2 + |<a_I^dag a_S>|^2,

so the click-conditioned signal mean is <n_S> plus a correlation boost
divided by the herald rate.  An on/off detector with efficiency eta and
dark-count mean nu interpolates between that conditional mean (nu -> 0)
and the unconditional mean (nu -> infinity).

The mode-matched heralded fringe treats the detected idler as the
component matched to the pair source: the object port's reflected input
is statistically independent of the herald, so it contributes neither to
the herald rate nor to the phase-sensitive herald-signal correlation.
Intensities are read from the network with the background port in vacuum,
while the herald-side correlation comes from a filtered pass in which the
object port acts as a raw amplitude contraction of the idler (no ancilla
admixture).  The filtered pass runs on raw stacked-moment matrices since
the contraction is not a unitary element.

Both passes run over a whole grid of (V_A, V_B, T, phi) points as one
stacked engine propagation each.  The conditional mean is exactly
dc + amplitude * cos(2 phi), so each heralded fringe is read, as the singles
fringes are in ``interferometer``, from its values at phi = 0 and pi/2.

This is the engine path.  The CLI's heralded columns come from
``closed_forms`` over whole grids; each command sends a fixed sample of at
most eight grid points through these functions (at most sixteen engine
points) and compares the results with the written column at 1e-10.
``verify`` and the tests call them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import closed_forms, gaussian, interferometer
from .gaussian import GaussianState, ModeId, ObjectPort
from .interferometer import (
    MODE_IDLER,
    MODE_PLUS,
    MODE_SIGNAL_A,
    MODE_SIGNAL_B,
    Topology,
    TopologyKind,
    _INV_SQRT2,
)

_NO_HERALD = "no herald events: the herald mode is empty"


@dataclass(frozen=True)
class DetectorModel:
    """On/off idler detector: quantum efficiency eta, dark-count mean nu."""

    eta: float
    nu: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"detector efficiency must lie in (0, 1], got {self.eta!r}")
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"dark-count mean must be >= 0, got {self.nu!r}")


HeraldedFringe = interferometer.FringeResult  # click-conditioned, same invariants


def _number_product(state: GaussianState, mode_i: ModeId, mode_s: ModeId) -> float:
    """<n_I n_S> assembled from second moments of a zero-mean Gaussian state."""
    n_i = gaussian.mean_photon_number(state, mode_i)
    n_s = gaussian.mean_photon_number(state, mode_s)
    anomalous = gaussian.cross_moment(state, mode_i, mode_s, "anomalous")
    normal = gaussian.cross_moment(state, mode_i, mode_s, "normal")
    return n_i * n_s + abs(anomalous) ** 2 + abs(normal) ** 2


def conditional_mean_wick(state: GaussianState, mode_i: ModeId, mode_s: ModeId) -> float:
    """Click-conditioned signal mean <n_I n_S> / <n_I> for an ideal herald."""
    if gaussian.mean_photon_number(state, mode_i) <= 0.0:
        raise ValueError(_NO_HERALD)
    return conditional_mean_povm(state, mode_i, mode_s, DetectorModel(1.0))


def conditional_mean_povm(
    state: GaussianState, mode_i: ModeId, mode_s: ModeId, det: DetectorModel
) -> float:
    """Conditional signal mean for an on/off detector in the low-click regime.

    Reduces to ``conditional_mean_wick`` as nu -> 0 and to the unconditional
    mean as nu -> infinity.
    """
    n_i = gaussian.mean_photon_number(state, mode_i)
    n_s = gaussian.mean_photon_number(state, mode_s)
    click = det.eta * n_i + det.nu
    if click <= 0.0:
        raise ValueError("no click probability: eta * <n_I> + nu vanishes")
    return (det.eta * _number_product(state, mode_i, mode_s) + det.nu * n_s) / click


# ---------------------------------------------------------------------------
# Mode-matched heralded fringe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeMatchedMoments:
    """Ingredients of the conditional fringe, as arrays over the grid."""

    herald_mean: np.ndarray       # <n_I>
    signal_mean: np.ndarray       # <n_S>(phi)
    pair_corr: np.ndarray         # <b_I b_S>(phi)
    exchange_corr: np.ndarray     # <b_I b_S^dag>(phi); zero in this geometry


def _gains(topo: Topology | Sequence[Topology]) -> tuple:
    """(V_A, V_B, T) of one topology, or arrays of them over a sequence."""
    if isinstance(topo, Topology):
        return topo.crystal_a.V, topo.crystal_b.V, topo.object_port.T
    return tuple(np.array(values) for values in zip(*map(_gains, topo)))


def _abs_squared(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as the scalar ``abs(z) ** 2`` (hypot, then pow):
    ``np.abs`` and ``** 2`` on arrays can differ from it in the last bit."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def mode_matched_moments_grid(
    topos: Sequence[Topology], phis: Sequence[float]
) -> ModeMatchedMoments:
    """Engine mode-matched herald/signal moments at every grid point
    (topos[k], phis[k]), as arrays over the grid.

    Two stacked passes through the moment engine: a unitary pass with the
    background port in vacuum for the intensities, and a filtered pass with
    the object port as a raw idler contraction for the correlations.  Every
    point is verified against the closed forms.
    """
    if len(topos) != len(phis):
        raise ValueError("the grid needs one phase per topology")
    if any(t.kind is not TopologyKind.TWO_SPDC for t in topos):
        raise ValueError("mode-matched heralding is defined for the two-source layout")
    clean = [replace(t, object_port=ObjectPort(t.object_port.T, 0.0)) for t in topos]
    states = interferometer.output_states(clean, phis)
    n_s = states.mean_photon_numbers(MODE_PLUS)
    n_i = states.mean_photon_numbers(MODE_IDLER)

    # Filtered pass on three modes: signal A, signal B, idler.
    n = 3
    half = np.full(len(topos), _INV_SQRT2)
    steps = (
        gaussian.squeezer_coeffs(n, MODE_SIGNAL_A, MODE_IDLER, [t.crystal_a for t in topos]),
        gaussian.mode_scaling_coeffs(n, MODE_IDLER, [t.object_port.t_amp for t in topos]),
        gaussian.squeezer_coeffs(n, MODE_SIGNAL_B, MODE_IDLER, [t.crystal_b for t in topos]),
        gaussian.phase_coeffs(n, MODE_SIGNAL_B, [2.0 * phi for phi in phis]),
        gaussian.beam_splitter_coeffs(n, MODE_SIGNAL_B, MODE_SIGNAL_A, half, half),
    )
    sigma = gaussian.vacuum_sigma(n)
    for e, f in steps:
        sigma = gaussian.conjugate_sigma(sigma, gaussian.stacked_map(e, f))
    # Ordered entries with the herald operator leftmost.
    pair_corr = sigma[:, MODE_IDLER, n + MODE_PLUS]       # <b_I b_S>
    exchange_corr = sigma[:, MODE_IDLER, MODE_PLUS]       # <b_I b_S^dag>

    interferometer.check_closed_forms(
        "mode-matched engine moments",
        closed_forms.herald_moments(*_gains(topos), np.asarray(phis)),
        (n_i, n_s, _abs_squared(pair_corr)),
    )
    return ModeMatchedMoments(n_i, n_s, pair_corr, exchange_corr)


def mode_matched_conditional_means(
    topos: Sequence[Topology], phis: Sequence[float], det: DetectorModel | None = None
) -> np.ndarray:
    """Conditional signal mean at every grid point (topos[k], phis[k]); nan
    where the herald mode is empty."""
    mm = mode_matched_moments_grid(topos, phis)
    dark = mm.herald_mean <= 0.0
    herald_mean = np.where(dark, 1.0, mm.herald_mean)
    boost = _abs_squared(mm.pair_corr) + _abs_squared(mm.exchange_corr)
    det = det or DetectorModel(1.0)  # eta = 1, nu = 0 is the ideal herald exactly
    values = mm.signal_mean + det.eta * boost / (det.eta * herald_mean + det.nu)
    return np.where(dark, np.nan, values)


def heralded_fringe_grid(topos: Sequence[Topology]) -> tuple[np.ndarray, HeraldedFringe]:
    """Heralded fringes of many topologies from one batched engine pass:
    the mask of topologies whose herald mode is empty, and the fringes of
    the others as one HeraldedFringe of arrays.

    Every topology is evaluated at the two fringe phases of
    ``interferometer.FRINGE_PHASES`` through ``mode_matched_conditional_means``;
    dc and amplitude are verified against their closed forms.
    """
    phases = interferometer.FRINGE_PHASES
    grid = [t for t in topos for _ in phases]
    values = mode_matched_conditional_means(grid, np.tile(phases, len(topos)))
    values = values.reshape(len(topos), len(phases))
    dark = np.isnan(values).any(axis=1)
    lit = HeraldedFringe(*interferometer._fringe_values(*values[~dark].T))

    n_i, exp_dc, exp_amp = (a[~dark] for a in closed_forms.heralded_fringe(*_gains(topos)))
    checked = n_i > 0.0
    interferometer.check_closed_forms(
        "engine heralded fringes",
        (exp_dc[checked], exp_amp[checked]),
        (lit.dc[checked], lit.amplitude[checked]),
    )
    return dark, lit


def heralded_fringe_mode_matched(topo: Topology) -> HeraldedFringe:
    """Conditional fringe of the "+" output heralded on the idler output,
    verified against its closed forms."""
    (dark,), lit = heralded_fringe_grid([topo])
    if dark:
        raise ValueError(_NO_HERALD)
    return HeraldedFringe(float(lit.dc[0]), float(lit.amplitude[0]), float(lit.visibility[0]))


def heralded_visibility_pair_limit(topo: Topology) -> float:
    """Heralded contrast in the low-brightness pair limit; free of the
    thermal background by construction."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("pair-limit heralding is defined for the two-source layout")
    return float(closed_forms.heralded_visibility_pair_limit(*_gains(topo)))
