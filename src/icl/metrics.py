"""Visibility, photon-number-difference noise, and signal-to-noise ratios.

The photon-number difference D = N_+ - N_- has mean 2 * amplitude * cos(2 phi)
and, under the uncorrelated shot-noise factorization, variance N_+ + N_-.
The canonical SNR convention here is the power ratio mean(D)^2 / Var(D);
the amplitude-ratio convention (mean over standard deviation) is its square
root and is available through ``SnrResult.converted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal, Sequence

from . import heralding, interferometer
from .interferometer import Topology, TopologyKind


class SnrConvention(Enum):
    POWER_RATIO = "power-ratio"
    AMPLITUDE_RATIO = "amplitude-ratio"


@dataclass(frozen=True)
class SnrResult:
    value: float
    convention: SnrConvention

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("SNR values are non-negative")

    def converted(self, convention: SnrConvention) -> "SnrResult":
        if convention is self.convention:
            return self
        if convention is SnrConvention.AMPLITUDE_RATIO:
            return SnrResult(math.sqrt(self.value), convention)
        return SnrResult(self.value**2, convention)


def visibility(topo: Topology) -> float:
    """Fringe contrast (N_max - N_min) / (N_max + N_min); 0 when dark."""
    return interferometer.fringe(topo).visibility


def optimal_attenuated_visibility(T: float, v_a: float, n_b: float) -> float:
    """Best contrast attainable by attenuating the B-signal arm.

    Balancing the arm intensities saturates the coherence bound, so this
    equals ``g1_coherence`` of the matching two-source layout.
    """
    if not (0.0 <= T <= 1.0):
        raise ValueError(f"transmittance must lie in [0, 1], got {T!r}")
    if v_a <= 0.0:
        raise ValueError(f"gain must be positive, got {v_a!r}")
    if n_b < 0.0:
        raise ValueError(f"thermal occupation must be >= 0, got {n_b!r}")
    return math.sqrt(T * (1.0 + v_a) / (1.0 + T * v_a + (1.0 - T) * n_b))


def attenuation_search(
    v_a: float, v_b: float, T: float, n_b: float, *, tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section maximization of contrast over the B-arm attenuation.

    Returns (best attenuation, best visibility).  The contrast is unimodal
    in the attenuation, so golden-section bracketing converges cleanly.
    """

    def vis_at(kappa: float) -> float:
        return visibility(interferometer.two_spdc_attenuated(v_a, v_b, T, n_b, kappa))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = vis_at(x1), vis_at(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = vis_at(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = vis_at(x1)
    best = 0.5 * (lo + hi)
    return best, vis_at(best)


def difference_variance(topo: Topology, phi: float) -> float:
    """Var(N_+ - N_-) under the shot-noise factorization: the summed means."""
    n_plus, n_minus = interferometer.singles_fringe_analytic(topo, phi)
    return n_plus + n_minus


def snr_unconditional(
    topo: Topology, phi: float, convention: SnrConvention = SnrConvention.POWER_RATIO
) -> SnrResult:
    """Unconditional difference SNR of the two-source layout."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("the unconditional SNR is defined for the two-source layout")
    v_a = topo.crystal_a.V
    v_b = topo.crystal_b.V
    port = topo.object_port
    denom = v_a + v_b + port.T * v_a * v_b + (1.0 - port.T) * port.N_B * v_b
    if denom <= 0.0:
        return SnrResult(0.0, SnrConvention.POWER_RATIO).converted(convention)
    power = 4.0 * port.T * (1.0 + v_a) * v_a * v_b * math.cos(2.0 * phi) ** 2 / denom
    return SnrResult(power, SnrConvention.POWER_RATIO).converted(convention)


def snr_heralded(
    topo: Topology,
    phi: float,
    limit: Literal["general", "pair"] = "pair",
    convention: SnrConvention = SnrConvention.POWER_RATIO,
) -> SnrResult:
    """Heralded difference SNR: pair limit, or general mode-matched form."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("the heralded SNR is defined for the two-source layout")
    cos_sq = math.cos(2.0 * phi) ** 2
    if limit == "pair":
        v_a = topo.crystal_a.V
        v_b = topo.crystal_b.V
        T = topo.object_port.T
        denom = v_a + v_b + T * v_a * v_b
        power = 0.0 if denom <= 0.0 else 4.0 * T * (1.0 + v_a) * v_a * v_b * cos_sq / denom
    elif limit == "general":
        power = _general_power(heralding.heralded_fringe_mode_matched(topo), cos_sq)
    else:
        raise ValueError(f"unknown heralded SNR limit {limit!r}")
    return SnrResult(power, SnrConvention.POWER_RATIO).converted(convention)


def _general_power(fr: heralding.HeraldedFringe, cos_sq: float) -> float:
    return 0.0 if fr.dc <= 0.0 else 2.0 * fr.amplitude**2 * cos_sq / fr.dc


def snr_heralded_general_grid(topos: Sequence[Topology], phi: float) -> list[float]:
    """Power-ratio general heralded SNR of every topology from one batched
    engine pass; nan where the herald mode is empty (``snr_heralded``
    raises there)."""
    cos_sq = math.cos(2.0 * phi) ** 2
    fringes = heralding.heralded_fringes_mode_matched(topos)
    return [math.nan if fr is None else _general_power(fr, cos_sq) for fr in fringes]
