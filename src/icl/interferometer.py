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
are of the form dc + amplitude * cos(2 phi) exactly, so they are pinned by
three sample phases {0, pi/4, pi/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import gaussian
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

    ``crystal_c`` must be present exactly for the three-source layout and
    ``attenuation`` (intensity transmittance of the B-signal arm) exactly
    for the attenuated layout.
    """

    kind: TopologyKind
    crystal_a: SqueezerParams
    crystal_b: SqueezerParams
    object_port: ObjectPort
    crystal_c: SqueezerParams | None = None
    attenuation: float | None = None

    def __post_init__(self) -> None:
        if (self.crystal_c is not None) != (self.kind is TopologyKind.THREE_SPDC):
            raise ValueError("crystal_c is required exactly for the three-source layout")
        if (self.attenuation is not None) != (self.kind is TopologyKind.TWO_SPDC_ATTENUATED):
            raise ValueError("attenuation is required exactly for the attenuated layout")
        if self.attenuation is not None and not (0.0 <= self.attenuation <= 1.0):
            raise ValueError(f"attenuation must lie in [0, 1], got {self.attenuation!r}")


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


def _arm_intensities(topo: Topology) -> tuple[float, float]:
    """Mean photon numbers of the two signal arms just before the splitter."""
    v_a = topo.crystal_a.V
    v_b = topo.crystal_b.V
    port = topo.object_port
    n2 = v_b * (1.0 + port.T * v_a + (1.0 - port.T) * port.N_B)
    if topo.kind is TopologyKind.TWO_SPDC:
        return v_a, n2
    if topo.kind is TopologyKind.TWO_SPDC_ATTENUATED:
        return v_a, topo.attenuation * n2
    v_c = topo.crystal_c.V
    return (1.0 + v_c) * v_a + v_c, n2


def _arm_coherence(topo: Topology) -> float:
    """|<a_1^dag a_2>| between the signal arms just before the splitter."""
    v_a = topo.crystal_a.V
    v_b = topo.crystal_b.V
    base = math.sqrt(topo.object_port.T * (1.0 + v_a) * v_a * v_b)
    if topo.kind is TopologyKind.TWO_SPDC:
        return base
    if topo.kind is TopologyKind.TWO_SPDC_ATTENUATED:
        return math.sqrt(topo.attenuation) * base
    return math.sqrt(1.0 + topo.crystal_c.V) * base


def singles_fringe_analytic(topo: Topology, phi: float) -> tuple[float, float]:
    """Closed-form singles intensities (n_plus, n_minus) at fringe phase phi."""
    n1, n2 = _arm_intensities(topo)
    cross = 2.0 * _arm_coherence(topo) * math.cos(2.0 * phi)
    return 0.5 * (n1 + n2 + cross), 0.5 * (n1 + n2 - cross)


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
    n1, n2 = _arm_intensities(topo)
    coh = _arm_coherence(topo)
    state = output_state(topo, 0.0, through_splitter=False)
    got = (
        gaussian.mean_photon_number(state, MODE_SIGNAL_A),
        gaussian.mean_photon_number(state, MODE_SIGNAL_B),
        abs(gaussian.cross_moment(state, MODE_SIGNAL_A, MODE_SIGNAL_B, "normal")),
    )
    for expected, value in zip((n1, n2, coh), got):
        if abs(expected - value) > 1e-10 * max(1.0, abs(expected)):
            raise RuntimeError(
                f"engine moments {got} disagree with closed forms {(n1, n2, coh)}"
            )
    return n1, n2, coh


def g1_coherence(topo: Topology) -> float:
    """First-order coherence of the two signal arms; independent of V_B."""
    if topo.kind is not TopologyKind.TWO_SPDC:
        raise ValueError("the coherence bound is defined for the two-source layout")
    v_a = topo.crystal_a.V
    port = topo.object_port
    denom = 1.0 + port.T * v_a + (1.0 - port.T) * port.N_B
    return math.sqrt(port.T * (1.0 + v_a) / denom)


# ---------------------------------------------------------------------------
# Fringe extraction
# ---------------------------------------------------------------------------

FRINGE_PHASES = (0.0, 0.25 * math.pi, 0.5 * math.pi)


@dataclass(frozen=True)
class FringeResult:
    """dc offset, modulation amplitude, and contrast of a cos(2 phi) fringe."""

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


def fringe(topo: Topology, *, use_engine: bool = False) -> FringeResult:
    """Extract the n_plus fringe from the three sample phases."""
    evaluate = singles_fringe_engine if use_engine else singles_fringe_analytic
    n0 = evaluate(topo, FRINGE_PHASES[0])[0]
    n2 = evaluate(topo, FRINGE_PHASES[2])[0]
    dc = 0.5 * (n0 + n2)
    amplitude = 0.5 * (n0 - n2)
    visibility = amplitude / dc if dc > 0.0 else 0.0
    return FringeResult(dc=dc, amplitude=amplitude, visibility=visibility)
