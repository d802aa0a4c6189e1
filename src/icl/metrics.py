"""Visibility, photon-number-difference noise, and signal-to-noise ratios.

The photon-number difference D = N_+ - N_- has mean 2 * amplitude * cos(2 phi)
and, under the uncorrelated shot-noise factorization, variance N_+ + N_-.
The canonical SNR convention here is the power ratio mean(D)^2 / Var(D);
the amplitude-ratio convention (mean over standard deviation) is its square
root and is available through ``SnrResult.converted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Literal

from . import closed_forms, heralding, interferometer
from .gaussian import ObjectPort, SqueezerParams
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
    """The coherence bound ``g1_coherence``; 0 when arm A is dark (V_A = 0).

    Attenuating the B-signal arm reaches it only where it can balance the arms,
    N_2 = V_B (1 + T V_A + (1 - T) N_B) >= N_1 = V_A; elsewhere the best
    attenuation is none (kappa -> 1) and ``visibility`` is the contrast."""
    SqueezerParams(v_a), ObjectPort(T, n_b)  # the layout's own range checks raise here
    return float(closed_forms.optimal_attenuated_visibility(v_a, T, n_b))


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
    v_a, v_b, port = topo.crystal_a.V, topo.crystal_b.V, topo.object_port
    power = closed_forms.snr_unconditional(v_a, v_b, port.T, port.N_B, phi)
    return SnrResult(float(power), SnrConvention.POWER_RATIO).converted(convention)


def snr_heralded(
    topo: Topology,
    phi: float,
    limit: Literal["general", "pair"] = "pair",
    convention: SnrConvention = SnrConvention.POWER_RATIO,
) -> SnrResult:
    """Heralded difference SNR: pair limit (the unconditional SNR without
    background), or general mode-matched form.

    Both are closed forms; the general form is 2 amplitude^2 cos^2(2 phi) / dc
    of ``closed_forms.heralded_fringe``, which the moment engine reproduces
    (``heralding.heralded_fringe_mode_matched``).  Raises ValueError where
    the herald mode is empty."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("the heralded SNR is defined for the two-source layout")
    if limit == "pair":
        background_free = replace(topo, object_port=ObjectPort(topo.object_port.T, 0.0))
        return snr_unconditional(background_free, phi, convention)
    if limit != "general":
        raise ValueError(f"unknown heralded SNR limit {limit!r}")
    v_a, v_b, T = topo.crystal_a.V, topo.crystal_b.V, topo.object_port.T
    power = float(closed_forms.snr_heralded_general(v_a, v_b, T, phi))
    if math.isnan(power):
        raise ValueError(heralding._NO_HERALD)
    return SnrResult(power, SnrConvention.POWER_RATIO).converted(convention)
