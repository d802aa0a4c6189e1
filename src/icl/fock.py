"""Brute-force verifier: exact truncated-Fock-space network simulation.

Networks are the same element lists the moment engine consumes.  A two-mode
gate conserves a photon number (n_a + n_b for a beam splitter, n_a - n_b for
a two-mode squeezer), so its truncated generator is block-diagonal in that
number; each block is exponentiated exactly through a Hermitian
eigendecomposition.  Every element is therefore unitary on the truncated
space and norm is conserved to machine precision; truncation shows up as
occupation piling at the cutoff, which every estimate, vacuum or thermal,
carries as its error bar: the larger of its differences from the same
estimate at cutoff - 1 and at cutoff - 2.  No estimate is refused for its
truncation.  The oracle refuses for three reasons only: a network outside
its envelope (``OracleEnvelopeError``), a prepared stack that would exceed
the dimension guard (``ResourceLimitError``), and a gate that leaks norm
(``TruncationError``, a kernel bug).

A thermal input is averaged exactly, in the displaced frame.  Its P
function is a Gaussian over coherent amplitudes alpha with <|alpha|^2> =
n_bar, and every gate moves a displacement linearly: U D(alpha) U^dag =
D(beta), with beta = M alpha + N conj(alpha) on the output modes.  A
coherent port state therefore leaves the network as D(beta) psi0, where
psi0 is the network run on vacuum, and a moment of order <= 4 is the psi0
moment shifted by a polynomial in beta.  M and N come from the propagation
itself: with psi1 the network run on |1> at the port, M_i = <psi0|a_i|psi1>
and N_i = <psi1|a_i|psi0>.  The shift has degree <= 4 in (Re alpha,
Im alpha), so 3 x 3 Gauss-Hermite nodes average it exactly.  The odd
moments of psi0 vanish, since every gate keeps the total photon-number
parity.  Nothing is sampled: a thermal network costs two propagated states
at any n_bar, and truncation touches only psi0 and psi1, whose photon
numbers the gains set.

The kernels use the same block structure.  A gate acts on one contiguous
copy of the state stack with its two modes leading, so that a block of
fixed conserved number is a strided slice of the flat pair index, and each
block is one matmul with a cached contiguous block matrix: about
(2d^3 + d)/3 multiply-adds per pair column instead of d^4 for the dense
(d^2 x d^2) unitary, which is never built on the oracle path.  A ladder
operator is an index shift along its mode's axis.  The stack, with the
lowered copy of it that each mode read keeps, is counted whole against the
dimension guard before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

from .gaussian import (
    BeamSplitter,
    Element,
    PhaseShift,
    ThermalInput,
    TwoModeSqueezer,
)

MAX_DIMENSION = 10**7
# the smallest cutoff an estimate accepts: its truncation term runs the
# network at cutoff - 2 too, which needs two photons per mode
MIN_CUTOFF = 4
MAX_ORACLE_GAIN = 0.3
# a sanity bound, not an accuracy one: the largest background of the
# bundled presets, and nothing above it is tested
MAX_ORACLE_THERMAL = 100.0

NORM_LEAK_TOL = 1e-6

# Gauss-Hermite nodes and weights of a standard normal, exact to degree 5
_NODES = (-math.sqrt(3.0), 0.0, math.sqrt(3.0))
_WEIGHTS = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)


class TruncationError(RuntimeError):
    """A gate leaked norm on the truncated space, where every gate is
    unitary by construction: a kernel bug, not truncation."""


class OracleEnvelopeError(ValueError):
    """A gain above MAX_ORACLE_GAIN or a background above MAX_ORACLE_THERMAL."""


class ResourceLimitError(RuntimeError):
    """A prepared network's psi0/psi1 stack, with its lowered copies, would
    exceed the dimension guard."""


@dataclass(frozen=True)
class FockConfig:
    """Truncation settings for one oracle run.

    ``cutoff`` is the largest photon number kept per mode (inclusive).  An
    estimate needs at least MIN_CUTOFF, but its own runs at cutoff - 1 and
    cutoff - 2 are configs too, so any cutoff >= 1 constructs.
    ``mc_samples`` is kept, and validated as ``oracle.samples`` is, for
    callers that still read it; the oracle samples nothing and ignores it.
    """

    cutoff: int
    n_modes: int
    mc_samples: int = 10_000

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")

    @property
    def dim(self) -> int:
        return self.cutoff + 1


@dataclass(frozen=True)
class OracleEstimate:
    """Expectation value with its truncation error.

    ``std_error`` is the larger of |value - value at cutoff - 1| and
    |value - value at cutoff - 2|: the same network run one and two levels
    lower estimates the bias that amplitude pushed past the cutoff leaves.
    Both are needed, since convergence in the cutoff can alternate between
    odd and even cutoffs or stall over a pair of them.  A thermal average is
    exact, so there is no statistical part.  ``value`` is complex for cross
    moments and real otherwise.
    """

    value: complex | float
    std_error: float


MomentKind = Literal["mean", "normal", "anomalous", "number_product"]


# ---------------------------------------------------------------------------
# Elementary operators and gate application
# ---------------------------------------------------------------------------


def _pair_blocks(element: Element, dim: int) -> list[slice]:
    """Slices of the flat pair index n_a * dim + n_b, one per value of the
    number the two-mode element conserves, each in ascending n_a.

    A splitter's block n_a + n_b = t sits at t + n_a * (dim - 1); a
    squeezer's block n_a - n_b = m at n_a * (dim + 1) - m.
    """
    top = dim - 1
    if isinstance(element, BeamSplitter):
        return [
            slice(t + max(0, t - top) * top, t + min(t, top) * top + 1, top)
            for t in range(2 * dim - 1)
        ]
    if isinstance(element, TwoModeSqueezer):
        return [
            slice(max(0, m) * (dim + 1) - m, min(top, top + m) * (dim + 1) - m + 1, dim + 1)
            for m in range(-top, dim)
        ]
    raise TypeError(f"{element!r} is not a two-mode element")


@lru_cache(maxsize=128)
def _gate_blocks(element: Element, dim: int) -> tuple[tuple[slice, np.ndarray], ...]:
    """Each block of a two-mode element's unitary, as a contiguous read-only
    matrix, with its slice of the flat pair index (``_pair_blocks``).

    The unitary is the exponential of the truncated generator, built block
    by block over the number the element conserves: U = V exp(-i L) V^dag
    on each block, with (L, V) the eigendecomposition of the Hermitian
    i * generator.  Within a block the generator is tridiagonal, coupling
    (n_a, n_b) to n_a + 1.  The generators of all blocks are laid out at
    once, each in the top-left corner of a zero-padded dim x dim matrix.
    Blocks b and 2*(dim-1) - b have the same size and share one stacked
    eigendecomposition; a squeezer's blocks m and -m are the same matrix and
    share one block.
    """
    if isinstance(element, TwoModeSqueezer):
        p = element.params
        chi = math.asinh(math.sqrt(p.V))
        xi = chi * np.exp(1j * p.theta)
        # <n_a+1, n_b+1|G|n_a, n_b> = xi sqrt(n_a+1) sqrt(n_b+1)
        raising, lowering, b_shift = xi, -np.conj(xi), 1
    elif isinstance(element, BeamSplitter):
        angle = math.atan2(element.r, element.t)
        # <n_a+1, n_b-1|G|n_a, n_b> = angle sqrt(n_a+1) sqrt(n_b)
        raising, lowering, b_shift = angle, -angle, 0
    else:
        raise TypeError(f"{element!r} is not a two-mode element")
    squeezer = isinstance(element, TwoModeSqueezer)
    slices = _pair_blocks(element, dim)
    built = slices[:dim] if squeezer else slices
    k = np.arange(dim - 1)
    sizes = np.array([[len(range(s.start, s.stop, s.step))] for s in built])
    starts = np.array([[s.start] for s in built])
    steps = np.array([[s.step] for s in built])
    n_a, n_b = np.divmod(np.where(k < sizes - 1, starts + k * steps, 0), dim)
    roots = np.sqrt(np.arange(dim))
    # raising n_a on the subdiagonal, its adjoint partner above it; each
    # block fills the top-left corner of its padded matrix
    x = roots[n_a + 1] * roots[n_b + b_shift]
    gen = np.zeros((len(built), dim, dim), dtype=complex)
    gen[:, k + 1, k] = raising * x
    gen[:, k, k + 1] = lowering * x
    gen *= 1j
    blocks: list = [None] * len(slices)
    for b in range(dim):
        # block b and its mirror both hold b + 1 pair states
        mirror = len(slices) - 1 - b
        members = [b] if b == mirror or squeezer else [b, mirror]
        lam, vec = np.linalg.eigh(gen[members, : b + 1, : b + 1])
        unitary = (vec * np.exp(-1j * lam)[:, np.newaxis]) @ vec.conj().swapaxes(1, 2)
        unitary.flags.writeable = False
        blocks[b] = (slices[b], unitary[0])
        blocks[mirror] = (slices[mirror], unitary[-1])
    return tuple(blocks)


def two_mode_gate(element: Element, dim: int) -> np.ndarray:
    """Unitary of a two-mode element on the (dim*dim)-dimensional pair space,
    assembled from ``_gate_blocks``; the first kron factor is the element's
    first mode.  The oracle applies the blocks and never builds this."""
    gate = np.zeros((dim * dim, dim * dim), dtype=complex)
    for s, block in _gate_blocks(element, dim):
        gate[s, s] = block
    return gate


def _apply_to_stack(stack: np.ndarray, element: Element, cutoff: int) -> np.ndarray:
    """Apply one gate element to every state of a (columns,) + (dim,)*n_modes
    stack; the norm-leak guard holds for each state.

    A two-mode gate acts on one contiguous pair-major copy of the stack, one
    matmul per block of its conserved number.
    """
    dim = cutoff + 1
    if isinstance(element, PhaseShift):
        phase = np.exp(1j * element.phi * np.arange(dim))
        shape = [1] * stack.ndim
        shape[element.mode + 1] = dim
        return stack * phase.reshape(shape)
    if isinstance(element, TwoModeSqueezer):
        i, j = element.mode_signal, element.mode_idler
    elif isinstance(element, BeamSplitter):
        i, j = element.mode_a, element.mode_b
    else:
        raise TypeError(f"cannot apply {element!r} as a gate")
    moved = np.moveaxis(stack, (i + 1, j + 1), (0, 1))
    pairs = np.ascontiguousarray(moved).reshape(dim * dim, -1)
    out = np.empty_like(pairs)
    for s, block in _gate_blocks(element, dim):
        np.matmul(block, pairs[s], out=out[s])
    columns = stack.shape[0]
    norms_in, norms_out = _column_norms2(pairs, columns), _column_norms2(out, columns)
    leak = np.abs(np.sqrt(norms_out) - np.sqrt(norms_in)).max()
    if leak > NORM_LEAK_TOL:
        raise TruncationError(f"norm leakage {leak:.3e} applying {element!r}")
    return np.moveaxis(out.reshape(moved.shape), (0, 1), (i + 1, j + 1))


def _column_norms2(pairs: np.ndarray, columns: int) -> np.ndarray:
    """Squared norm of each column of a contiguous pair-major stack."""
    flat = pairs.view(np.float64).reshape(pairs.shape[0], columns, -1)
    return np.einsum("pcr,pcr->c", flat, flat)


def apply_element(psi: np.ndarray, element: Element, cutoff: int) -> np.ndarray:
    """Apply one gate element to a state array of shape (dim,)*n_modes."""
    return _apply_to_stack(psi[np.newaxis], element, cutoff)[0]


def _annihilated(stack: np.ndarray, mode: int) -> np.ndarray:
    """a_mode on every state of a (columns,) + (dim,)*n_modes stack, by index
    shift: entry n takes sqrt(n+1) times entry n+1, and the top level is 0."""
    axis = mode + 1
    dim = stack.shape[axis]
    shape = [1] * stack.ndim
    shape[axis] = dim - 1
    out = np.zeros_like(stack)
    lower = [slice(None)] * stack.ndim
    upper = list(lower)
    lower[axis] = slice(None, -1)
    upper[axis] = slice(1, None)
    roots = np.sqrt(np.arange(1, dim)).reshape(shape)
    np.multiply(stack[tuple(upper)], roots, out=out[tuple(lower)])
    return out


# ---------------------------------------------------------------------------
# Prepared networks
# ---------------------------------------------------------------------------


def _validate_elements(cfg: FockConfig, elements: tuple[Element, ...]) -> ThermalInput | None:
    thermal: ThermalInput | None = None
    for el in elements:
        if isinstance(el, ThermalInput):
            if el.n_bar > MAX_ORACLE_THERMAL:
                raise OracleEnvelopeError(
                    f"thermal occupation {el.n_bar} exceeds the oracle bound "
                    f"{MAX_ORACLE_THERMAL}"
                )
            if el.n_bar > 0.0:
                if thermal is not None:
                    raise ValueError("at most one thermal port is supported")
                thermal = el
            modes = (el.mode,)
        elif isinstance(el, TwoModeSqueezer):
            if el.params.V > MAX_ORACLE_GAIN:
                raise OracleEnvelopeError(
                    f"squeezer gain {el.params.V} exceeds the oracle bound {MAX_ORACLE_GAIN}"
                )
            modes = (el.mode_signal, el.mode_idler)
        elif isinstance(el, BeamSplitter):
            modes = (el.mode_a, el.mode_b)
        elif isinstance(el, PhaseShift):
            modes = (el.mode,)
        else:
            raise TypeError(f"unknown network element {el!r}")
        for m in modes:
            if not 0 <= m < cfg.n_modes:
                raise ValueError(f"element {el!r} addresses mode outside the configured range")
    return thermal


def _inner(left: np.ndarray, right: np.ndarray) -> complex:
    """<left|right> as a plain reduction, which BLAS cannot spread over
    threads."""
    return complex(np.sum(np.conj(left) * right))


class _PreparedNetwork:
    """The network run on vacuum, psi0, and on a thermal network also on
    |1> at the port, psi1: ``states`` is the (1 or 2,) + (dim,)*n_modes
    stack.  No network is refused for its truncation: an estimate is judged
    on its error bar alone.

    ``moment`` reads a moment of psi0 and, on a thermal network, adds its
    displaced-frame shift averaged over the quadrature nodes: the port
    amplitude alpha of each node moves mode i by beta_i = M_i alpha +
    N_i conj(alpha).  Each a_i applied to the stack is kept, since the
    moments and M_i, N_i all read it, and the stack guard counts those
    copies; <n_i> and <n_i n_j> come from the photon-number distribution
    of psi0.
    """

    def __init__(self, cfg: FockConfig, elements: tuple[Element, ...]):
        self.thermal = _validate_elements(cfg, elements)
        dim = cfg.dim
        columns = 1 if self.thermal is None else 2
        # the stack, and the lowered copy of it that each mode read keeps
        amplitudes = columns * (cfg.n_modes + 1) * dim**cfg.n_modes
        if amplitudes > MAX_DIMENSION:
            raise ResourceLimitError(
                f"{columns} columns x (n_modes+1) x (cutoff+1)^n_modes = {amplitudes} "
                f"amplitudes exceed the {MAX_DIMENSION} dimension guard"
            )
        stack = np.zeros((columns,) + (dim,) * cfg.n_modes, dtype=complex)
        stack[(0,) * (cfg.n_modes + 1)] = 1.0
        if self.thermal is not None:
            port = [0] * cfg.n_modes
            port[self.thermal.mode] = 1
            stack[(1, *port)] = 1.0
        for el in elements:
            if not isinstance(el, ThermalInput):
                stack = _apply_to_stack(stack, el, cfg.cutoff)
        self.states = np.ascontiguousarray(stack)
        self._lowered: dict[int, np.ndarray] = {}
        self._probability: np.ndarray | None = None
        self._moments: dict[tuple, complex] = {}
        self._betas: dict[int, np.ndarray] = {}
        if self.thermal is not None:
            t = math.sqrt(0.5 * self.thermal.n_bar) * np.array(_NODES)
            self._alphas = (t[:, np.newaxis] + 1j * t).ravel()
            self._weights = np.outer(_WEIGHTS, _WEIGHTS).ravel()

    def _lower(self, mode: int) -> np.ndarray:
        """a_mode on every state of the stack, computed once."""
        lowered = self._lowered.get(mode)
        if lowered is None:
            lowered = self._lowered[mode] = _annihilated(self.states, mode)
        return lowered

    def _number_moment(self, i: int, j: int | None) -> complex:
        """<n_i>, or <n_i n_j>, from the photon-number distribution of psi0
        summed down to modes i and j."""
        if self._probability is None:
            psi = self.states[0]
            self._probability = psi.real**2 + psi.imag**2
        prob = self._probability
        n = np.arange(prob.shape[0], dtype=float)
        if j is None or j == i:
            weight = n if j is None else n * n
            modes: tuple[int, ...] = (i,)
        else:
            weight = np.multiply.outer(n, n)
            modes = (i, j)
        others = tuple(m for m in range(prob.ndim) if m not in modes)
        return complex(np.sum(weight * prob.sum(axis=others)))

    def _moment0(self, kind: MomentKind, i: int, j: int | None) -> complex:
        """<n_i>, <a_i^dag a_j>, <a_i a_j> or <n_i n_j> in psi0."""
        key = (kind, i, j)
        value = self._moments.get(key)
        if value is not None:
            return value
        psi = self.states[0]
        if kind == "mean":
            value = self._number_moment(i, None)
        elif kind == "normal":
            value = _inner(self._lower(i)[0], self._lower(j)[0])
        elif kind == "anomalous":
            value = _inner(psi, _annihilated(self._lower(j)[:1], i)[0])
        elif kind == "number_product":
            value = self._number_moment(i, j)
        else:
            raise ValueError(f"unknown moment kind {kind!r}")
        self._moments[key] = value
        return value

    def _beta(self, mode: int) -> np.ndarray:
        """beta_mode = M alpha + N conj(alpha) at every quadrature node."""
        beta = self._betas.get(mode)
        if beta is None:
            lowered = self._lower(mode)
            m = _inner(self.states[0], lowered[1])
            n = _inner(self.states[1], lowered[0])
            beta = self._betas[mode] = m * self._alphas + n * np.conj(self._alphas)
        return beta

    def moment(self, kind: MomentKind, i: int, j: int | None = None) -> complex | float:
        """The network's <n_i>, <a_i^dag a_j>, <a_i a_j> or <n_i n_j>,
        averaged over the thermal port if there is one."""
        value = self._moment0(kind, i, j)
        if self.thermal is not None:
            b_i = self._beta(i)
            b_j = b_i if j is None else self._beta(j)
            if kind == "mean":
                shift = np.abs(b_i) ** 2
            elif kind == "normal":
                shift = np.conj(b_i) * b_j
            elif kind == "anomalous":
                shift = b_i * b_j
            else:
                p_i, p_j = np.abs(b_i) ** 2, np.abs(b_j) ** 2
                shift = (
                    p_i * self._moment0("mean", j, None).real
                    + p_j * self._moment0("mean", i, None).real
                    + 2.0 * (np.conj(b_i * b_j) * self._moment0("anomalous", i, j)).real
                    + 2.0 * (np.conj(b_i) * b_j * self._moment0("normal", j, i)).real
                    + p_i * p_j
                    + (p_i if i == j else 0.0)
                )
            value += complex(np.sum(self._weights * shift))
        return value.real if kind in ("mean", "number_product") else value


@lru_cache(maxsize=3)
def _prepare(cfg: FockConfig, elements: tuple[Element, ...]) -> _PreparedNetwork:
    return _PreparedNetwork(cfg, elements)


# ---------------------------------------------------------------------------
# Public oracle operations
# ---------------------------------------------------------------------------


def simulate_network(cfg: FockConfig, elements: tuple[Element, ...]) -> np.ndarray:
    """The final truncated state vector, of shape (cutoff+1,) * n_modes, of
    a network without a thermal port.

    A thermal port makes the output a mixture, which no single state holds:
    average its moments with ``oracle_moment`` instead.
    """
    elements = tuple(elements)
    if _validate_elements(cfg, elements) is not None:
        raise ValueError(
            "a network with a thermal port has no single output state; "
            "use oracle_moment for its moments"
        )
    return _prepare(cfg, elements).states[0].copy()


def _estimate(
    cfg: FockConfig,
    elements: tuple[Element, ...],
    moments: list[tuple],
    value: Callable[..., complex | float],
) -> OracleEstimate:
    """The one oracle estimator: ``value`` of the network's ``moments``,
    with the truncation term as its error: the larger of |value - value at
    cutoff - 1| and |value - value at cutoff - 2|.

    Convergence in the cutoff need not be monotone: a residual can alternate
    in sign between odd and even cutoffs, or stall over a pair of them, so
    either difference alone can read far below the error.  Both lowered runs
    keep at least two photons per mode, so a cutoff below MIN_CUTOFF, at
    which the error bar would miss one difference or both, is a
    ``ValueError``.
    """
    if cfg.cutoff < MIN_CUTOFF:
        raise ValueError(f"the oracle needs cutoff >= {MIN_CUTOFF} for its truncation term")
    elements = tuple(elements)
    run = _prepare(cfg, elements)
    estimate = value(*(run.moment(*m) for m in moments))
    trunc = 0.0
    for cutoff in (cfg.cutoff - 1, cfg.cutoff - 2):
        lowered = _prepare(replace(cfg, cutoff=cutoff), elements)
        trunc = max(trunc, abs(estimate - value(*(lowered.moment(*m) for m in moments))))
    return OracleEstimate(estimate, trunc)


def oracle_moment(
    cfg: FockConfig,
    elements: tuple[Element, ...],
    kind: MomentKind,
    i: int,
    j: int | None = None,
) -> OracleEstimate:
    """Expectation of <n_i>, <a_i^dag a_j>, <a_i a_j>, or <n_i n_j>."""
    if kind != "mean" and j is None:
        raise ValueError(f"moment kind {kind!r} needs two mode indices")
    return _estimate(cfg, elements, [(kind, i, j)], lambda moment: moment)


def _ratio(num: float, den: float) -> float:
    if den <= 0.0:
        raise ValueError("zero herald rate: the herald mode is empty")
    return num / den


def oracle_conditional(
    cfg: FockConfig, elements: tuple[Element, ...], mode_i: int, mode_s: int
) -> OracleEstimate:
    """Click-conditioned signal mean <n_I n_S> / <n_I> from the state vector."""
    moments = [("number_product", mode_i, mode_s), ("mean", mode_i, None)]
    return _estimate(cfg, elements, moments, _ratio)


def _residual(nn: float, ni: float, ns: float, an: complex, nm: complex) -> float:
    return nn - ni * ns - abs(an) ** 2 - abs(nm) ** 2


def wick_residual(
    cfg: FockConfig, elements: tuple[Element, ...], mode_i: int, mode_s: int
) -> OracleEstimate:
    """Residual of the Gaussian fourth-order factorization,

        <n_I n_S> - <n_I><n_S> - |<a_I a_S>|^2 - |<a_I^dag a_S>|^2,

    which vanishes for any zero-mean Gaussian network.
    """
    moments = [
        ("number_product", mode_i, mode_s),
        ("mean", mode_i, None),
        ("mean", mode_s, None),
        ("anomalous", mode_i, mode_s),
        ("normal", mode_i, mode_s),
    ]
    return _estimate(cfg, elements, moments, _residual)
