"""Induced-coherence interferometer topologies and singles fringes.

Three network layouts are supported, all sharing the same spine: pair
source A feeds a signal arm and an idler, the idler crosses a lossy object
port that mixes in a thermal background, the transmitted idler seeds pair
source B, and the two signal arms interfere on a 50:50 splitter after an
explicit phase element exp(i 2 phi) on the B-signal arm.

* two-source layout ("2spdc"): the spine alone;
* attenuated layout: an extra attenuator (beam splitter against vacuum)
  on the B-signal arm, used to rebalance arm intensities;
* three-source layout: a third pair source inserted in the A-signal arm,
  pairing it with a fresh vacuum mode, which rebalances intrinsically.

Each singles quantity is available twice: as a closed-form expression and
as a readout of the moment engine propagating the element list.  Fringes
are of the form dc + amplitude * cos(2 phi) exactly, so they are read from
their values at the two phases FRINGE_PHASES = (0, pi/2): dc is the mean of
the two, amplitude half their difference.  ``heralding`` reads its heralded
fringes the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import closed_forms, gaussian
from .gaussian import (
    BeamSplitter,
    Element,
    GaussianState,
    GaussianStates,
    ObjectPort,
    PhaseShift,
    SqueezerParams,
    ThermalInput,
    TwoModeSqueezer,
)

# Fixed mode layout.  Modes 0..3 are the spine; mode 4 is the extra mode of
# the attenuated and three-source layouts.
MODE_SIGNAL_A = 0
MODE_SIGNAL_B = 1
MODE_IDLER = 2
MODE_BACKGROUND = 3
MODE_EXTRA = 4

MODE_PLUS = MODE_SIGNAL_B   # "+" output of the final splitter
MODE_MINUS = MODE_SIGNAL_A  # "-" output (up to an overall sign)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TopologyKind(Enum):
    TWO_SPDC = "2spdc"
    TWO_SPDC_ATTENUATED = "2spdc-attenuated"
    THREE_SPDC = "3spdc"


@dataclass(frozen=True)
class Topology:
    """One interferometer configuration.

    ``crystal_c`` (gain V_C) must be present exactly for the three-source
    layout and ``attenuation`` (intensity transmittance of the B-signal arm,
    in [0, 1]) exactly for the attenuated layout.  Each rule is a static
    check, so that a caller can apply it to one field alone.
    """

    kind: TopologyKind
    crystal_a: SqueezerParams
    crystal_b: SqueezerParams
    object_port: ObjectPort
    crystal_c: SqueezerParams | None = None
    attenuation: float | None = None

    def __post_init__(self) -> None:
        self.check_crystal_c(self.kind, self.crystal_c)
        self.check_attenuation(self.kind, self.attenuation)

    @staticmethod
    def check_crystal_c(kind: TopologyKind, crystal_c: SqueezerParams | None) -> None:
        if (crystal_c is not None) != (kind is TopologyKind.THREE_SPDC):
            raise ValueError("V_C (crystal_c) is required exactly for the three-source layout")

    @staticmethod
    def check_attenuation(kind: TopologyKind, attenuation: float | None) -> None:
        if (attenuation is not None) != (kind is TopologyKind.TWO_SPDC_ATTENUATED):
            raise ValueError("attenuation is required exactly for the attenuated layout")
        if attenuation is not None and not (0.0 <= attenuation <= 1.0):
            raise ValueError(f"attenuation must lie in [0, 1], got {attenuation!r}")


def two_spdc(v_a: float, v_b: float, T: float, n_b: float = 0.0) -> Topology:
    return Topology(
        TopologyKind.TWO_SPDC,
        SqueezerParams(v_a),
        SqueezerParams(v_b),
        ObjectPort(T, n_b),
    )


def two_spdc_attenuated(
    v_a: float, v_b: float, T: float, n_b: float, attenuation: float
) -> Topology:
    return Topology(
        TopologyKind.TWO_SPDC_ATTENUATED,
        SqueezerParams(v_a),
        SqueezerParams(v_b),
        ObjectPort(T, n_b),
        attenuation=attenuation,
    )


def three_spdc(v_a: float, v_b: float, v_c: float, T: float, n_b: float = 0.0) -> Topology:
    return Topology(
        TopologyKind.THREE_SPDC,
        SqueezerParams(v_a),
        SqueezerParams(v_b),
        ObjectPort(T, n_b),
        crystal_c=SqueezerParams(v_c),
    )


def network_modes(topo: Topology) -> int:
    return 4 if topo.kind is TopologyKind.TWO_SPDC else 5


def network_elements(
    topo: Topology, phi: float, *, through_splitter: bool = True
) -> tuple[Element, ...]:
    """Ordered element list realizing the topology at fringe phase ``phi``.

    The same list drives both the moment engine and the truncated-Fock
    simulator.  With ``through_splitter=False`` the list stops before the
    phase element and final splitter, exposing the two signal arms.
    """
    port = topo.object_port
    elements: list[Element] = []
    if port.N_B > 0.0:
        elements.append(ThermalInput(MODE_BACKGROUND, port.N_B))
    elements.append(TwoModeSqueezer(MODE_SIGNAL_A, MODE_IDLER, topo.crystal_a))
    elements.append(BeamSplitter(MODE_IDLER, MODE_BACKGROUND, port.t_amp, port.r_amp))
    elements.append(TwoModeSqueezer(MODE_SIGNAL_B, MODE_IDLER, topo.crystal_b))
    if topo.kind is TopologyKind.TWO_SPDC_ATTENUATED:
        kappa = topo.attenuation
        elements.append(
            BeamSplitter(MODE_SIGNAL_B, MODE_EXTRA, math.sqrt(kappa), math.sqrt(1.0 - kappa))
        )
    elif topo.kind is TopologyKind.THREE_SPDC:
        elements.append(TwoModeSqueezer(MODE_SIGNAL_A, MODE_EXTRA, topo.crystal_c))
    if through_splitter:
        elements.append(PhaseShift(MODE_SIGNAL_B, 2.0 * phi))
        elements.append(BeamSplitter(MODE_SIGNAL_B, MODE_SIGNAL_A, _INV_SQRT2, _INV_SQRT2))
    return tuple(elements)


def output_state(topo: Topology, phi: float, *, through_splitter: bool = True) -> GaussianState:
    """Propagate the topology through the moment engine."""
    return gaussian.run_elements(
        network_modes(topo), network_elements(topo, phi, through_splitter=through_splitter)
    )


def output_states(topos: Sequence[Topology], phis: Sequence[float]) -> GaussianStates:
    """Propagate topology k at fringe phase ``phis[k]`` for every k in one
    batched engine pass; the topologies must share one layout."""
    networks = [network_elements(t, phi) for t, phi in zip(topos, phis, strict=True)]
    return gaussian.run_elements_batch(network_modes(topos[0]), networks)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def check_closed_forms(what: str, expected: tuple, got: tuple) -> None:
    """Raise RuntimeError unless each value is within 1e-10 (relative, floor 1).

    A nan matches only a nan at the same index (a dark herald point on both
    sides); a nan on one side is a disagreement.
    """
    for exp, value in zip(expected, got):
        exp, value = np.atleast_1d(exp), np.atleast_1d(value)
        off = np.abs(exp - value) > 1e-10 * np.maximum(1.0, np.abs(exp))
        off |= np.isnan(exp) != np.isnan(value)
        if off.any():
            k = np.argmax(off)
            raise RuntimeError(
                f"{what} disagree with their closed forms: "
                f"expected {float(exp[k])!r}, got {float(value[k])!r}"
            )


def _closed_form_params(topo: Topology) -> dict:
    """Keyword arguments of the ``closed_forms`` layout functions."""
    c, port = topo.crystal_c, topo.object_port
    params = dict(v_a=topo.crystal_a.V, v_b=topo.crystal_b.V, T=port.T, n_b=port.N_B)
    return dict(params, v_c=None if c is None else c.V, kappa=topo.attenuation)


def singles_fringe_analytic(topo: Topology, phi: float) -> tuple[float, float]:
    """Closed-form singles intensities (n_plus, n_minus) at fringe phase phi."""
    return tuple(map(float, closed_forms.singles(**_closed_form_params(topo), phi=phi)))


def singles_fringe_engine(topo: Topology, phi: float) -> tuple[float, float]:
    """Singles intensities read from the moment engine."""
    state = output_state(topo, phi)
    return (
        gaussian.mean_photon_number(state, MODE_PLUS),
        gaussian.mean_photon_number(state, MODE_MINUS),
    )


def pre_splitter_moments(topo: Topology) -> tuple[float, float, float]:
    """Arm intensities and coherence magnitude before the final splitter.

    Returns (<N_1>, <N_2>, |<a_1^dag a_2>|) for the two-source layout.  The
    closed forms are cross-checked against the moment engine on every call.
    """
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("pre-splitter moments are defined for the two-source layout")
    expected = tuple(map(float, closed_forms.arm_moments(**_closed_form_params(topo))))
    state = output_state(topo, 0.0, through_splitter=False)
    got = (
        gaussian.mean_photon_number(state, MODE_SIGNAL_A),
        gaussian.mean_photon_number(state, MODE_SIGNAL_B),
        abs(gaussian.cross_moment(state, MODE_SIGNAL_A, MODE_SIGNAL_B, "normal")),
    )
    check_closed_forms("engine moments", expected, got)
    return expected


def g1_coherence(topo: Topology) -> float:
    """First-order coherence of the two signal arms; independent of V_B."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("the coherence bound is defined for the two-source layout")
    port = topo.object_port
    return float(closed_forms.coherence_bound(topo.crystal_a.V, port.T, port.N_B))


# ---------------------------------------------------------------------------
# Fringe extraction
# ---------------------------------------------------------------------------

FRINGE_PHASES = (0.0, 0.5 * math.pi)


@dataclass(frozen=True)
class FringeResult:
    """dc, amplitude, and contrast of a cos(2 phi) singles or heralded fringe."""

    dc: float
    amplitude: float
    visibility: float

    def __post_init__(self) -> None:
        if self.dc < 0.0 or self.amplitude < -1e-12:
            raise ValueError("fringe dc and amplitude must be non-negative")
        if self.amplitude > self.dc + 1e-12:
            raise ValueError("fringe amplitude exceeds its dc offset")
        expected = self.amplitude / self.dc if self.dc > 0.0 else 0.0
        if abs(self.visibility - expected) > 1e-12:
            raise ValueError("visibility inconsistent with amplitude / dc")
        if not (-1e-12 <= self.visibility <= 1.0 + 1e-12):
            raise ValueError(f"fringe visibility {self.visibility!r} outside [0, 1]")


def _fringe_results(n_0, n_half) -> list[FringeResult]:
    """Checked fringes from their values at FRINGE_PHASES, elementwise."""
    dc = np.atleast_1d(0.5 * (n_0 + n_half))
    amplitude = np.atleast_1d(0.5 * (n_0 - n_half))
    visibility = np.divide(amplitude, dc, out=np.zeros_like(dc), where=dc > 0.0)
    return list(map(FringeResult, dc.tolist(), amplitude.tolist(), visibility.tolist()))


def fringes(v_a, v_b, T, n_b, *, v_c=None, kappa=None) -> list[FringeResult]:
    """Closed-form n_plus fringes over broadcast parameters, flattened."""
    n_0, n_half = (
        closed_forms.singles(v_a, v_b, T, n_b, phi, v_c=v_c, kappa=kappa)[0]
        for phi in FRINGE_PHASES
    )
    return _fringe_results(n_0, n_half)


def fringe(topo: Topology) -> FringeResult:
    """Closed-form n_plus fringe of one topology."""
    return fringes(**_closed_form_params(topo))[0]
