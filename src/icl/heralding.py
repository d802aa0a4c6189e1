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

Both passes run over whole grids of (V_A, V_B, T, phi) points as stacked
engine propagations; the single-point functions are their one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import gaussian, interferometer
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

_CHECK_TOL = 1e-10
_NO_HERALD = "no herald events: the herald mode is empty"

# Grid points per stacked engine propagation: larger grids run chunk by
# chunk, which bounds the working memory at no cost in speed.
STACK_CHUNK = 128


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


@dataclass(frozen=True)
class HeraldedFringe:
    """dc, amplitude, and contrast of the click-conditioned signal fringe."""

    dc: float
    amplitude: float
    visibility: float

    def __post_init__(self) -> None:
        expected = self.amplitude / self.dc if self.dc > 0.0 else 0.0
        if abs(self.visibility - expected) > 1e-12:
            raise ValueError("visibility inconsistent with amplitude / dc")
        if not (-1e-12 <= self.visibility <= 1.0 + 1e-12):
            raise ValueError(f"heralded visibility {self.visibility!r} outside [0, 1]")


def _number_product(state: GaussianState, mode_i: ModeId, mode_s: ModeId) -> float:
    """<n_I n_S> assembled from second moments of a zero-mean Gaussian state."""
    n_i = gaussian.mean_photon_number(state, mode_i)
    n_s = gaussian.mean_photon_number(state, mode_s)
    anomalous = gaussian.cross_moment(state, mode_i, mode_s, "anomalous")
    normal = gaussian.cross_moment(state, mode_i, mode_s, "normal")
    return n_i * n_s + abs(anomalous) ** 2 + abs(normal) ** 2


def conditional_mean_wick(state: GaussianState, mode_i: ModeId, mode_s: ModeId) -> float:
    """Click-conditioned signal mean <n_I n_S> / <n_I> for an ideal herald."""
    n_i = gaussian.mean_photon_number(state, mode_i)
    if n_i <= 0.0:
        raise ValueError(_NO_HERALD)
    return _number_product(state, mode_i, mode_s) / n_i


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
    """Ingredients of the conditional fringe at one phase; arrays over the
    grid when returned by ``mode_matched_moments_grid``."""

    herald_mean: float            # <n_I>
    signal_mean: float            # <n_S>(phi)
    pair_corr: complex            # <b_I b_S>(phi)
    exchange_corr: complex        # <b_I b_S^dag>(phi); zero in this geometry


def _gains(topo: Topology | Sequence[Topology]) -> tuple:
    """(V_A, V_B, T) of one topology, or arrays of them over a sequence."""
    if isinstance(topo, Topology):
        return topo.crystal_a.V, topo.crystal_b.V, topo.object_port.T
    return tuple(np.array(values) for values in zip(*map(_gains, topo)))


# Degenerate gains overflow to inf or nan here, silently, as the scalar
# float forms always did; the checks then compare against those values.
@np.errstate(all="ignore")
def _closed_form_moments(topo: Topology | Sequence[Topology], phi) -> tuple:
    """(herald mean, signal mean, |pair correlation|^2) closed forms, for one
    topology and phase or elementwise over a sequence and a phase array."""
    v_a, v_b, T = _gains(topo)
    u_a = 1.0 + v_a
    u_b = 1.0 + v_b
    n_i = u_b * T * v_a + v_b
    cos2 = np.cos(2.0 * np.asarray(phi))
    root = np.sqrt(T * u_a * v_a * v_b)
    n_s = 0.5 * (v_a + v_b + T * v_a * v_b) + root * cos2
    corr_sq = 0.5 * u_b * T * u_a * (T * u_a * v_b + v_a + 2.0 * root * cos2)
    return n_i, n_s, corr_sq


@np.errstate(all="ignore")
def _closed_form_fringe(topos: Sequence[Topology]) -> tuple:
    """(herald mean, dc, amplitude) closed forms of the heralded fringe,
    elementwise over topologies; dc and amplitude hold where <n_I> > 0."""
    v_a, v_b, T = _gains(topos)
    u_a, u_b = 1.0 + v_a, 1.0 + v_b
    n_i = u_b * T * v_a + v_b
    dc = 0.5 * (v_a + v_b + T * v_a * v_b) + 0.5 * u_b / n_i * (
        v_b * (T * u_a) ** 2 + T * u_a * v_a
    )
    amplitude = np.sqrt(T * u_a * v_a * v_b) * (1.0 + u_b * T * u_a / n_i)
    return n_i, dc, amplitude


def _check_closed_forms(what: str, expected: tuple, got: tuple) -> None:
    """Raise RuntimeError unless every grid point is within _CHECK_TOL
    (relative, floor 1) of its closed form."""
    for exp, value in zip(expected, got):
        off = np.abs(exp - value) > _CHECK_TOL * np.maximum(1.0, np.abs(exp))
        if off.any():
            k = np.argmax(off)
            raise RuntimeError(
                f"{what} disagree with their closed forms: "
                f"expected {float(exp[k])!r}, got {float(value[k])!r}"
            )


def _abs_squared(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as the scalar ``abs(z) ** 2`` (hypot, then pow):
    ``np.abs`` and ``** 2`` on arrays can differ from it in the last bit."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _mode_matched_chunk(topos: Sequence[Topology], phis: Sequence[float]) -> tuple:
    """Unitary and filtered stacked passes over one chunk of grid points."""
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

    _check_closed_forms(
        "mode-matched engine moments",
        _closed_form_moments(topos, phis),
        (n_i, n_s, _abs_squared(pair_corr)),
    )
    return n_i, n_s, pair_corr, exchange_corr


def mode_matched_moments_grid(
    topos: Sequence[Topology], phis: Sequence[float]
) -> ModeMatchedMoments:
    """Engine mode-matched herald/signal moments at every grid point
    (topos[k], phis[k]), as arrays over the grid.

    Two stacked passes through the moment engine: a unitary pass with the
    background port in vacuum for the intensities, and a filtered pass with
    the object port as a raw idler contraction for the correlations.  The
    grid runs in chunks of STACK_CHUNK points, and every point is verified
    against the closed forms.
    """
    if len(topos) != len(phis):
        raise ValueError("the grid needs one phase per topology")
    if any(t.kind is not TopologyKind.TWO_SPDC for t in topos):
        raise ValueError("mode-matched heralding is defined for the two-source layout")
    chunks = [
        _mode_matched_chunk(topos[k : k + STACK_CHUNK], phis[k : k + STACK_CHUNK])
        for k in range(0, len(topos), STACK_CHUNK)
    ]
    return ModeMatchedMoments(*(np.concatenate(parts) for parts in zip(*chunks)))


def mode_matched_moments(topo: Topology, phi: float) -> ModeMatchedMoments:
    """Engine mode-matched moments at one point of ``mode_matched_moments_grid``."""
    mm = mode_matched_moments_grid([topo], [phi])
    return ModeMatchedMoments(
        float(mm.herald_mean[0]),
        float(mm.signal_mean[0]),
        complex(mm.pair_corr[0]),
        complex(mm.exchange_corr[0]),
    )


def mode_matched_conditional_means(
    topos: Sequence[Topology], phis: Sequence[float], det: DetectorModel | None = None
) -> np.ndarray:
    """Conditional signal mean at every grid point (topos[k], phis[k]); nan
    where the herald mode is empty."""
    mm = mode_matched_moments_grid(topos, phis)
    dark = mm.herald_mean <= 0.0
    herald_mean = np.where(dark, 1.0, mm.herald_mean)
    boost = _abs_squared(mm.pair_corr) + _abs_squared(mm.exchange_corr)
    if det is None:
        values = mm.signal_mean + boost / herald_mean
    else:
        values = mm.signal_mean + det.eta * boost / (det.eta * herald_mean + det.nu)
    return np.where(dark, np.nan, values)


def mode_matched_conditional_mean(
    topo: Topology, phi: float, det: DetectorModel | None = None
) -> float:
    """Conditional signal mean of the mode-matched fringe at one phase."""
    (value,) = mode_matched_conditional_means([topo], [phi], det)
    if math.isnan(value):
        raise ValueError(_NO_HERALD)
    return float(value)


DEFAULT_PHI_GRID = interferometer.FRINGE_PHASES


def heralded_fringes_mode_matched(
    topos: Sequence[Topology], phi_grid: tuple[float, ...] = DEFAULT_PHI_GRID
) -> list[HeraldedFringe | None]:
    """Heralded fringe of every topology from one batched engine pass, None
    where the herald mode is empty.

    Every topology is evaluated at every grid phase through
    ``mode_matched_conditional_means``; dc and amplitude of all of them come
    from one least-squares fit and are verified against their closed forms.
    """
    phis = np.asarray(phi_grid, dtype=float)
    cos2 = np.cos(2.0 * phis)
    if phis.size < 2 or abs(cos2.max() - cos2.min()) < 1e-9:
        raise ValueError("phase grid must sample at least two distinct cos(2 phi) values")
    grid = [t for t in topos for _ in phis]
    values = mode_matched_conditional_means(grid, np.tile(phis, len(topos)))
    values = values.reshape(len(topos), phis.size)
    dark = np.isnan(values).any(axis=1)
    design = np.column_stack([np.ones_like(cos2), cos2])
    rhs = np.where(dark[:, None], 0.0, values).T
    (dc, amplitude), *_ = np.linalg.lstsq(design, rhs, rcond=None)

    n_i, exp_dc, exp_amp = _closed_form_fringe(topos)
    checked = ~dark & (n_i > 0.0)
    _check_closed_forms(
        "fitted heralded fringes",
        (exp_dc[checked], exp_amp[checked]),
        (dc[checked], amplitude[checked]),
    )
    visibility = np.divide(amplitude, dc, out=np.zeros_like(dc), where=dc > 0.0)
    return [
        None if is_dark else HeraldedFringe(float(d), float(a), float(v))
        for is_dark, d, a, v in zip(dark, dc, amplitude, visibility)
    ]


def heralded_fringe_mode_matched(
    topo: Topology, phi_grid: tuple[float, ...] = DEFAULT_PHI_GRID
) -> HeraldedFringe:
    """Conditional fringe of the "+" output heralded on the idler output.

    The conditional mean is exactly dc + amplitude * cos(2 phi); the grid
    must therefore contain at least two phases with distinct cos(2 phi).
    The fitted dc and amplitude are verified against their closed forms.
    """
    (fringe,) = heralded_fringes_mode_matched([topo], phi_grid)
    if fringe is None:
        raise ValueError(_NO_HERALD)
    return fringe


def heralded_visibility_pair_limit(topo: Topology) -> float:
    """Heralded contrast in the low-brightness pair limit; free of the
    thermal background by construction."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("pair-limit heralding is defined for the two-source layout")
    v_a = topo.crystal_a.V
    v_b = topo.crystal_b.V
    T = topo.object_port.T
    denom = v_a + v_b + T * v_a * v_b
    if denom <= 0.0:
        return 0.0
    return 2.0 * math.sqrt(T * (1.0 + v_a) * v_a * v_b) / denom
