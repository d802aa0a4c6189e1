"""Second-moment propagation for zero-mean Gaussian bosonic fields.

A state of n modes is described by the pair of moment matrices

    M[i, j] = <a_i^dag a_j>     (normal moments, Hermitian, photon-number units)
    A[i, j] = <a_i a_j>         (anomalous moments, symmetric)

Every network element -- two-mode squeezer, beam splitter, phase shift --
acts as a linear map a_i -> sum_j (E[i, j] a_j + F[i, j] a_j^dag).  All maps
go through one code path: the stacked 2n x 2n transform
S = [[E, F], [conj(F), conj(E)]] conjugates the ordered second-moment matrix

    Sigma = <xi xi^dag>,  xi = (a_1 .. a_n, a_1^dag .. a_n^dag),

whose blocks are [[M^T + 1, A], [conj(A), M]].  Operations return new
states; ``GaussianState`` instances are immutable after construction.

The engine carries a batch axis: ``run_elements_batch`` propagates B
networks of one layout as a (B, 2n, 2n) stack of Sigma matrices, one
``np.matmul`` per element, and validates every item after every step with
one batched eigenvalue call.  ``run_elements``, the ``apply_*`` operations
and ``GaussianState`` are its B = 1 case.

Mode identifiers are plain non-negative integers, bounds-checked by every
operation that takes one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, Union

import numpy as np

ModeId = int

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9


@dataclass(frozen=True)
class SqueezerParams:
    """Gain and phase of one parametric pair source.

    ``V`` is the spontaneous gain |v|^2 of the Bogoliubov map
    a -> u a + v b^dag; the companion U = 1 + V is implied, so U - V = 1
    holds exactly for every V >= 0.  ``theta`` is the phase of v in radians.
    """

    V: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.V) and self.V >= 0.0):
            raise ValueError(f"squeezer gain must be finite and >= 0, got {self.V!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"squeezer phase must be finite, got {self.theta!r}")

    @property
    def U(self) -> float:
        return 1.0 + self.V

    @property
    def u(self) -> float:
        return math.sqrt(1.0 + self.V)

    @property
    def v(self) -> complex:
        return math.sqrt(self.V) * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class ObjectPort:
    """Lossy port with intensity transmittance T, mixing in a thermal mode.

    The reflected fraction R = 1 - T couples the probed mode to a background
    mode of mean occupation ``N_B`` (vacuum when N_B = 0).
    """

    T: float
    N_B: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and 0.0 <= self.T <= 1.0):
            raise ValueError(f"transmittance must lie in [0, 1], got {self.T!r}")
        if not (math.isfinite(self.N_B) and self.N_B >= 0.0):
            raise ValueError(f"thermal occupation must be >= 0, got {self.N_B!r}")

    @property
    def R(self) -> float:
        return 1.0 - self.T

    @property
    def t_amp(self) -> float:
        return math.sqrt(self.T)

    @property
    def r_amp(self) -> float:
        return math.sqrt(1.0 - self.T)


# ---------------------------------------------------------------------------
# Network element descriptors.  They are shared by the moment engine here and
# by the truncated-Fock simulator, so both backends run the same network.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThermalInput:
    """Prepare one input mode in a thermal state of mean occupation n_bar."""

    mode: ModeId
    n_bar: float


@dataclass(frozen=True)
class TwoModeSqueezer:
    """Pair source coupling a signal mode and an idler mode."""

    mode_signal: ModeId
    mode_idler: ModeId
    params: SqueezerParams


@dataclass(frozen=True)
class BeamSplitter:
    """Two-mode mixer: a -> t a + r b, b -> t b - r a (t, r real)."""

    mode_a: ModeId
    mode_b: ModeId
    t: float
    r: float


@dataclass(frozen=True)
class PhaseShift:
    """Single-mode phase: a -> exp(i phi) a."""

    mode: ModeId
    phi: float


Element = Union[ThermalInput, TwoModeSqueezer, BeamSplitter, PhaseShift]


# ---------------------------------------------------------------------------
# Validation contract, applied to every item of a (B, n, n) stack
# ---------------------------------------------------------------------------


def _blocks(tl: np.ndarray, tr: np.ndarray, bl: np.ndarray, br: np.ndarray) -> np.ndarray:
    """Assemble [[tl, tr], [bl, br]] from (..., n, n) blocks into one new array."""
    n = tl.shape[-1]
    out = np.empty(tl.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = tl
    out[..., :n, n:] = tr
    out[..., n:, :n] = bl
    out[..., n:, n:] = br
    return out


def physicality_defect_matrices(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per item of (B, n, n) moment stacks, the largest negative eigenvalue
    (as a positive defect) of the ordered moment matrix
    [[M, conj(A)], [A, M^T + 1]]; zero for a physical state."""
    n = m.shape[-1]
    block = _blocks(m, a.conj(), a, np.swapaxes(m, -1, -2) + np.eye(n))
    return np.maximum(0.0, -np.linalg.eigvalsh(block)[:, 0])


def _reject(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    if bad.any():
        k = int(np.argmax(bad))
        where = f" at stack item {k}" if bad.size > 1 else ""
        raise ValueError(message.format(float(values[k])) + where)


def _check_moments(m: np.ndarray, a: np.ndarray) -> None:
    """Raise ValueError unless every item of the (B, n, n) stacks is a state.

    Normal moments must be Hermitian and anomalous moments symmetric to
    SYMMETRY_TOL; the diagonal must be non-negative and the ordered moment
    matrix positive semidefinite to PHYSICALITY_TOL.  Both tolerances scale
    with the item's largest moment magnitude (at least 1).
    """
    top = np.maximum(np.abs(m).max(axis=(1, 2)), np.abs(a).max(axis=(1, 2)))
    scale = np.maximum(1.0, top)
    herm = np.abs(m - np.swapaxes(m, 1, 2).conj()).max(axis=(1, 2))
    sym = np.abs(a - np.swapaxes(a, 1, 2)).max(axis=(1, 2))
    _reject(herm > SYMMETRY_TOL * scale, herm, "normal moments not Hermitian (defect {:.3e})")
    _reject(sym > SYMMETRY_TOL * scale, sym, "anomalous moments not symmetric (defect {:.3e})")
    diag = np.diagonal(m, axis1=1, axis2=2).real.min(axis=1)
    _reject(diag < -PHYSICALITY_TOL * scale, diag, "negative mean photon number on the diagonal")
    defect = physicality_defect_matrices(m, a)
    _reject(
        defect > PHYSICALITY_TOL * scale, defect, "moment matrices violate physicality (defect {:.3e})"
    )


def _frozen_moments(
    n_modes: int, m: np.ndarray, a: np.ndarray, stacked: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Validated read-only complex copies of one moment pair or of stacks."""
    if n_modes < 1:
        raise ValueError("state needs at least one mode")
    m = np.array(m, dtype=complex)
    a = np.array(a, dtype=complex)
    lead = m.shape[:1] if stacked and m.ndim == 3 else ()
    if m.shape != lead + (n_modes, n_modes) or a.shape != m.shape:
        raise ValueError("moment matrices must be n_modes x n_modes")
    if stacked and not lead:
        raise ValueError("state stacks need a leading batch axis")
    _check_moments(m.reshape(-1, n_modes, n_modes), a.reshape(-1, n_modes, n_modes))
    m.setflags(write=False)
    a.setflags(write=False)
    return m, a


def _check_mode(n_modes: int, mode: ModeId) -> None:
    if not (0 <= mode < n_modes):
        raise ValueError(f"mode {mode} outside 0..{n_modes - 1}")


def _check_occupation(n_bar: float) -> None:
    if not (math.isfinite(n_bar) and n_bar >= 0.0):
        raise ValueError(f"thermal occupation must be >= 0, got {n_bar!r}")


def _real_diagonal(values: np.ndarray) -> np.ndarray:
    """Real parts of diagonal moments, rejecting spurious imaginary parts."""
    spurious = np.abs(values.imag) > 1e-12 * np.maximum(1.0, np.abs(values.real))
    if spurious.any():
        imag = float(values.imag[np.argmax(spurious)])
        raise ValueError(f"diagonal moment has spurious imaginary part {imag!r}")
    return values.real


# ---------------------------------------------------------------------------
# State containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Immutable second-moment description of an n-mode zero-mean field."""

    n_modes: int
    normal_moments: np.ndarray
    anomalous_moments: np.ndarray

    def __post_init__(self) -> None:
        m, a = _frozen_moments(self.n_modes, self.normal_moments, self.anomalous_moments, False)
        object.__setattr__(self, "normal_moments", m)
        object.__setattr__(self, "anomalous_moments", a)

    def check_mode(self, mode: ModeId) -> None:
        _check_mode(self.n_modes, mode)


@dataclass(frozen=True, eq=False)
class GaussianStates:
    """Immutable stack of B states over the same n modes.

    The moment arrays have shape (B, n, n); every item obeys the validation
    contract of ``GaussianState``, and ``states[b]`` is item b as one.
    """

    n_modes: int
    normal_moments: np.ndarray
    anomalous_moments: np.ndarray

    def __post_init__(self) -> None:
        m, a = _frozen_moments(self.n_modes, self.normal_moments, self.anomalous_moments, True)
        object.__setattr__(self, "normal_moments", m)
        object.__setattr__(self, "anomalous_moments", a)

    def __len__(self) -> int:
        return self.normal_moments.shape[0]

    def __getitem__(self, b: int) -> GaussianState:
        return GaussianState(self.n_modes, self.normal_moments[b], self.anomalous_moments[b])

    def mean_photon_numbers(self, mode: ModeId) -> np.ndarray:
        """<a^dag a> of one mode for every item of the stack."""
        _check_mode(self.n_modes, mode)
        return _real_diagonal(self.normal_moments[:, mode, mode])


def physicality_defect(state: GaussianState) -> float:
    m = state.normal_moments[None]
    a = state.anomalous_moments[None]
    return float(physicality_defect_matrices(m, a)[0])


# ---------------------------------------------------------------------------
# Stacked transforms: the single code path for all linear elements.  Every
# coefficient builder takes one parameter per batch item and returns (B, n, n)
# stacks of E and F.
# ---------------------------------------------------------------------------


def stacked_map(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Assemble the (B, 2n, 2n) transforms acting on
    (a_1..a_n, a_1^dag..a_n^dag) from (B, n, n) coefficient stacks."""
    return _blocks(e, f, f.conj(), e.conj())


def vacuum_sigma(n_modes: int) -> np.ndarray:
    """Ordered moment matrix <xi xi^dag> of the n-mode vacuum."""
    sigma = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    sigma[:n_modes, :n_modes] = np.eye(n_modes)
    return sigma


def _sigma(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Ordered moment matrices [[M^T + 1, A], [conj(A), M]] of one state or a stack."""
    return _blocks(np.swapaxes(m, -1, -2) + np.eye(m.shape[-1]), a, a.conj(), m)


def conjugate_sigma(sigma: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S Sigma S^dag, broadcast over leading stack axes."""
    return s @ sigma @ np.swapaxes(s, -1, -2).conj()


def _conjugated(
    n_modes: int, m: np.ndarray, a: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Moments after the transforms ``s``.  Sigma is rebuilt from (M, A) at
    every step, so its redundant blocks never accumulate rounding."""
    sigma = conjugate_sigma(_sigma(m, a), s)
    return sigma[..., n_modes:, n_modes:], sigma[..., :n_modes, n_modes:]


def identity_coeffs(n_modes: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
    e = np.zeros((batch, n_modes, n_modes), dtype=complex)
    e[:, np.arange(n_modes), np.arange(n_modes)] = 1.0
    return e, np.zeros_like(e)


def squeezer_coeffs(
    n_modes: int, mode_s: ModeId, mode_i: ModeId, params: Sequence[SqueezerParams]
) -> tuple[np.ndarray, np.ndarray]:
    """(E, F) for a_s -> u a_s + v a_i^dag, a_i -> u a_i + v a_s^dag."""
    e, f = identity_coeffs(n_modes, len(params))
    u = [p.u for p in params]
    v = [p.v for p in params]
    e[:, mode_s, mode_s] = u
    e[:, mode_i, mode_i] = u
    f[:, mode_s, mode_i] = v
    f[:, mode_i, mode_s] = v
    return e, f


def beam_splitter_coeffs(
    n_modes: int, mode_a: ModeId, mode_b: ModeId, t: Sequence[float], r: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(E, F) for a_a -> t a_a + r a_b, a_b -> t a_b - r a_a."""
    e, f = identity_coeffs(n_modes, len(t))
    r = np.asarray(r)
    e[:, mode_a, mode_a] = t
    e[:, mode_a, mode_b] = r
    e[:, mode_b, mode_b] = t
    e[:, mode_b, mode_a] = -r
    return e, f


def phase_coeffs(
    n_modes: int, mode: ModeId, phi: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    e, f = identity_coeffs(n_modes, len(phi))
    e[:, mode, mode] = np.exp(1j * np.asarray(phi, dtype=float))
    return e, f


def mode_scaling_coeffs(
    n_modes: int, mode: ModeId, factor: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(E, F) for the raw contraction a -> factor * a on one mode.

    This is not a unitary element: conjugating Sigma with it also scales the
    mode's commutator, which is exactly what a filtered (projected) mode
    carries.  It is used for mode-matched herald analyses and must not be fed
    back into ``GaussianState``, whose validation assumes canonical
    commutators.
    """
    e, f = identity_coeffs(n_modes, len(factor))
    e[:, mode, mode] = factor
    return e, f


def _layout(el: Element) -> tuple:
    """Kind and modes of a linear element: what batched networks share."""
    if isinstance(el, TwoModeSqueezer):
        return TwoModeSqueezer, el.mode_signal, el.mode_idler
    if isinstance(el, BeamSplitter):
        return BeamSplitter, el.mode_a, el.mode_b
    if isinstance(el, PhaseShift):
        return PhaseShift, el.mode
    raise TypeError(f"unknown network element {el!r}")


def _element_maps(n_modes: int, column: Sequence[Element]) -> np.ndarray:
    """(B, 2n, 2n) transforms of one element position across B networks."""
    layout = _layout(column[0])
    if any(_layout(el) != layout for el in column):
        raise ValueError("batched networks must share one element layout")
    kind, *modes = layout
    for mode in modes:
        _check_mode(n_modes, mode)
    if kind is PhaseShift:
        return stacked_map(*phase_coeffs(n_modes, modes[0], [el.phi for el in column]))
    if modes[0] == modes[1]:
        name = "squeezer" if kind is TwoModeSqueezer else "beam splitter"
        raise ValueError(f"{name} needs two distinct modes")
    if kind is TwoModeSqueezer:
        return stacked_map(*squeezer_coeffs(n_modes, *modes, [el.params for el in column]))
    t = np.array([el.t for el in column])
    r = np.array([el.r for el in column])
    norm = t * t + r * r
    skew = np.abs(norm - 1.0) > 1e-12
    if skew.any():
        bad = float(norm[np.argmax(skew)])
        raise ValueError(f"non-unitary beam splitter: t^2 + r^2 = {bad!r}")
    return stacked_map(*beam_splitter_coeffs(n_modes, *modes, t, r))


def _apply(state: GaussianState, element: Element) -> GaussianState:
    s = _element_maps(state.n_modes, [element])
    m, a = _conjugated(state.n_modes, state.normal_moments, state.anomalous_moments, s)
    return GaussianState(state.n_modes, m[0], a[0])


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def new_vacuum(n_modes: int) -> GaussianState:
    """All-vacuum state: every moment is zero."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    zeros = np.zeros((n_modes, n_modes), dtype=complex)
    return GaussianState(n_modes, zeros, zeros.copy())


def set_thermal(state: GaussianState, mode: ModeId, n_bar: float) -> GaussianState:
    """Place ``mode`` in a thermal state of mean occupation ``n_bar``.

    The mode must be uncorrelated with every other mode; its existing
    occupation is replaced.
    """
    state.check_mode(mode)
    _check_occupation(n_bar)
    m = state.normal_moments
    a = state.anomalous_moments
    scale = max(1.0, float(np.max(np.abs(m))), float(np.max(np.abs(a))))
    cross = max(
        float(np.max(np.abs(np.delete(m[mode, :], mode)))) if state.n_modes > 1 else 0.0,
        float(np.max(np.abs(np.delete(m[:, mode], mode)))) if state.n_modes > 1 else 0.0,
        float(np.max(np.abs(a[mode, :]))),
        float(np.max(np.abs(a[:, mode]))),
    )
    if cross > SYMMETRY_TOL * scale:
        raise ValueError("mode is correlated with the rest of the network")
    m_new = np.array(m)
    m_new[mode, mode] = n_bar
    return GaussianState(state.n_modes, m_new, np.array(a))


def apply_two_mode_squeezer(
    state: GaussianState, mode_s: ModeId, mode_i: ModeId, p: SqueezerParams
) -> GaussianState:
    """Pair source: a_s -> u a_s + v a_i^dag, a_i -> u a_i + v a_s^dag."""
    return _apply(state, TwoModeSqueezer(mode_s, mode_i, p))


def apply_beam_splitter(
    state: GaussianState, mode_a: ModeId, mode_b: ModeId, t: float, r: float
) -> GaussianState:
    """Mix two modes: a_a -> t a_a + r a_b, a_b -> t a_b - r a_a."""
    return _apply(state, BeamSplitter(mode_a, mode_b, t, r))


def apply_phase(state: GaussianState, mode: ModeId, phi: float) -> GaussianState:
    """Phase shift a -> exp(i phi) a on one mode."""
    return _apply(state, PhaseShift(mode, phi))


def mean_photon_number(state: GaussianState, mode: ModeId) -> float:
    state.check_mode(mode)
    return float(_real_diagonal(state.normal_moments[[mode], [mode]])[0])


def cross_moment(
    state: GaussianState, i: ModeId, j: ModeId, kind: Literal["normal", "anomalous"]
) -> complex:
    """Second moment between two modes: <a_i^dag a_j> or <a_i a_j>."""
    state.check_mode(i)
    state.check_mode(j)
    if kind == "normal":
        return complex(state.normal_moments[i, j])
    if kind == "anomalous":
        return complex(state.anomalous_moments[i, j])
    raise ValueError(f"unknown moment kind {kind!r}")


def run_elements_batch(n_modes: int, networks: Sequence[Iterable[Element]]) -> GaussianStates:
    """Apply B network descriptions to the n-mode vacuum in one stacked pass.

    Item b runs ``networks[b]`` as ``run_elements`` would: its
    ``ThermalInput`` entries are input preparations applied first, in
    listing order, and the remaining elements apply in listing order.  Those
    remaining elements must be of the same kinds on the same modes in every
    network; their parameters, and the thermal preparations, may differ.
    Every item is validated after the preparation and after every element.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    networks = [list(elements) for elements in networks]
    n = n_modes
    sigma = np.tile(vacuum_sigma(n), (len(networks), 1, 1))
    ops = []
    for b, elements in enumerate(networks):
        for el in elements:
            if isinstance(el, ThermalInput):
                _check_mode(n, el.mode)
                _check_occupation(el.n_bar)
                sigma[b, el.mode, el.mode] = 1.0 + el.n_bar
                sigma[b, n + el.mode, n + el.mode] = el.n_bar
        ops.append([el for el in elements if not isinstance(el, ThermalInput)])
    states = GaussianStates(n, sigma[:, n:, n:], sigma[:, :n, n:])
    if len({len(row) for row in ops}) > 1:
        raise ValueError("batched networks must share one element layout")
    for column in zip(*ops):
        s = _element_maps(n, column)
        states = GaussianStates(
            n, *_conjugated(n, states.normal_moments, states.anomalous_moments, s)
        )
    return states


def run_elements(n_modes: int, elements: Iterable[Element]) -> GaussianState:
    """Apply a network description to the n-mode vacuum.

    ``ThermalInput`` entries are input preparations and are applied first,
    in listing order; the remaining elements apply in listing order.  This
    is the one-network case of ``run_elements_batch``.
    """
    return run_elements_batch(n_modes, [elements])[0]
