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
the herald rate nor to the phase-sensitive herald-signal correlation.  Both
engine passes run the element list of the background-free two-source
network.  The unitary pass gives the intensities.  The filtered pass, on raw
moment matrices, gives <b_I b_S>: there the background port has no
commutator (<b b^dag> = 0), so the object-port splitter is the raw idler
contraction b_I -> sqrt(T) b_I.  The loss port's vacuum that it drops is
what separates this model from the physical network.

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
from dataclasses import dataclass

import numpy as np

from . import closed_forms, gaussian, interferometer
from .gaussian import GaussianState, ModeId
from .interferometer import MODE_BACKGROUND, MODE_IDLER, MODE_PLUS, Topology, TopologyKind

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


def _two_source_gains(topo: Topology, what: str) -> tuple[float, float, float]:
    """(V_A, V_B, T) of a two-source topology."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError(f"{what} is defined for the two-source layout")
    return topo.crystal_a.V, topo.crystal_b.V, topo.object_port.T


def mode_matched_moments(v_a, v_b, T, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Engine (<n_I>, <n_S>, |<b_I b_S>|^2) of the mode-matched herald, as
    flat arrays over the broadcast (V_A, V_B, T, phi) points; every point is
    verified against the closed forms."""
    v_a, v_b, T, phi = (np.ravel(a) for a in np.broadcast_arrays(v_a, v_b, T, phi))
    networks = [
        interferometer.network_elements(interferometer.two_spdc(a, b, t), p)
        for a, b, t, p in zip(v_a.tolist(), v_b.tolist(), T.tolist(), phi.tolist())
    ]
    n = 4  # modes of the two-source network
    states = gaussian.run_elements_batch(n, networks)
    n_s = states.mean_photon_numbers(MODE_PLUS)
    n_i = states.mean_photon_numbers(MODE_IDLER)

    # filtered pass: no commutator on the background port
    sigma = np.tile(gaussian.vacuum_sigma(n), (len(networks), 1, 1))
    sigma[:, MODE_BACKGROUND, MODE_BACKGROUND] = 0.0
    for column in zip(*networks):
        sigma = gaussian.conjugate_sigma(sigma, gaussian.element_maps(n, column))
    pair_corr = sigma[:, MODE_IDLER, n + MODE_PLUS]  # <b_I b_S>, herald operator leftmost
    corr_sq = np.hypot(pair_corr.real, pair_corr.imag) ** 2  # as scalar abs(z) ** 2 rounds

    interferometer.check_closed_forms(
        "mode-matched engine moments",
        closed_forms.herald_moments(v_a, v_b, T, phi),
        (n_i, n_s, corr_sq),
    )
    return n_i, n_s, corr_sq


def mode_matched_conditional_means(
    v_a, v_b, T, phi, det: DetectorModel | None = None
) -> np.ndarray:
    """Conditional signal mean <n_S> + |<b_I b_S>|^2 / (<n_I> + nu / eta) at
    every broadcast (V_A, V_B, T, phi) point, flat; nan where the herald
    mode is empty."""
    n_i, n_s, corr_sq = mode_matched_moments(v_a, v_b, T, phi)
    det = det or DetectorModel(1.0)
    boost = np.divide(
        corr_sq, n_i + det.nu / det.eta, out=np.full_like(n_i, np.nan), where=n_i > 0.0
    )
    return n_s + boost


def heralded_fringe_grid(v_a, v_b, T) -> tuple[np.ndarray, HeraldedFringe]:
    """Heralded fringes at every broadcast (V_A, V_B, T) point from one
    batched engine pass: the flat mask of points whose herald mode is
    empty, and the fringes of the others as one HeraldedFringe of arrays.

    Every point is evaluated at the two fringe phases of
    ``interferometer.FRINGE_PHASES`` through ``mode_matched_conditional_means``;
    dc and amplitude are verified against their closed forms.
    """
    v_a, v_b, T = (np.ravel(a) for a in np.broadcast_arrays(v_a, v_b, T))
    phases = np.array(interferometer.FRINGE_PHASES)
    values = mode_matched_conditional_means(v_a[:, None], v_b[:, None], T[:, None], phases)
    values = values.reshape(len(v_a), len(phases))
    dark = np.isnan(values).any(axis=1)
    lit = HeraldedFringe(*interferometer._fringe_values(*values[~dark].T))

    n_i, exp_dc, exp_amp = (a[~dark] for a in closed_forms.heralded_fringe(v_a, v_b, T))
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
    (dark,), lit = heralded_fringe_grid(*_two_source_gains(topo, "mode-matched heralding"))
    if dark:
        raise ValueError(_NO_HERALD)
    return HeraldedFringe(float(lit.dc[0]), float(lit.amplitude[0]), float(lit.visibility[0]))


def heralded_visibility_pair_limit(topo: Topology) -> float:
    """Heralded contrast in the low-brightness pair limit; free of the
    thermal background by construction."""
    gains = _two_source_gains(topo, "pair-limit heralding")
    return float(closed_forms.heralded_visibility_pair_limit(*gains))
