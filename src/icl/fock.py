"""Brute-force verifier: exact truncated-Fock-space network simulation.

Networks are the same element lists the moment engine consumes.  A two-mode
gate conserves a photon number (n_a + n_b for a beam splitter, n_a - n_b for
a two-mode squeezer), so its truncated generator is block-diagonal in that
number; each block is exponentiated exactly through a Hermitian
eigendecomposition.  Every element is therefore unitary on the truncated
space and norm is conserved to machine precision; truncation shows up as
occupation piling at the cutoff.  The guards reject the worst of it, and
every estimate, vacuum or thermal, carries the rest as a truncation term:
its difference from the same estimate at cutoff - 2.

A thermal input is handled by Monte-Carlo sampling of its coherent-state
decomposition: a complex amplitude alpha with <|alpha|^2> = n_bar is drawn
per sample and |alpha> enters the port, keeping every sample a pure state.
Because the network is fixed across samples, the port's Fock basis states
are propagated once, through each gate, and each observable reduces to a
small quadratic form (a Gram matrix over the basis columns) in the sampled
coherent coefficients; this is numerically identical to propagating every
sample through the network.

Most networks also conserve a charge Q = sum_m s_m n_m, with signs s_m = +-1
that flip across every squeezer and hold across every splitter (the
signal-idler number difference of an SU(1,1) interferometer).  Port column
|k> then lives in its own sector, Q = s_port * k, so the cutoff+1 columns
are propagated merged, as one dense state, and each Gram matrix is one pass
over it, summed per charge: a thermal network costs about one dense state.
Such a Gram matrix has one nonzero diagonal, so each per-sample quadratic
form is one pass over the sample table along it.  A network without such a
charge propagates its columns as a stack.

The kernels use the same block structure.  A gate acts on one contiguous
copy of the state or stack with its two modes leading, so that a block of
fixed conserved number is a strided slice of the flat pair index, and each
block is one matmul with a cached contiguous block matrix: about
(2d^3 + d)/3 multiply-adds per pair column instead of d^4 for the dense
(d^2 x d^2) unitary, which is never built on the oracle path.  A ladder
operator is an index shift along its mode's axis.  A thermal port's
cutoff+1 basis states are counted whole against the dimension guard before
anything is allocated, merged or not; so is its samples x (cutoff+1) table
of coherent coefficients, before any amplitude is drawn.

All results are deterministic given (seed, config): sample k draws from a
generator seeded with (seed, k), independent of batching or evaluation
order.  The draws depend on nothing else, so one set per (seed, samples,
n_bar) is shared by every network that asks for it, such as the points of
a verify grid and their lowered-cutoff runs.  numpy's SeedSequence hash of
every (seed, k) is computed at once, on arrays; each sample then only seeds
its PCG64 from those words and draws two normals, bit for bit the draws of
``sample_thermal_amplitude``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Literal

import numpy as np

from .gaussian import (
    BeamSplitter,
    Element,
    PhaseShift,
    ThermalInput,
    TwoModeSqueezer,
)

MAX_DIMENSION = 10**7
MAX_ORACLE_GAIN = 0.3
MAX_ORACLE_THERMAL = 1.0

NORM_LEAK_TOL = 1e-6
TOP_LEVEL_TOL = 1e-6
MEAN_PREP_LEAK_TOL = 1e-4


class TruncationError(RuntimeError):
    """The cutoff is too small for the requested network or inputs."""


class OracleEnvelopeError(ValueError):
    """A gain above MAX_ORACLE_GAIN or a background above MAX_ORACLE_THERMAL."""


class ResourceLimitError(RuntimeError):
    """An oracle array (state, basis stack or sample table) would exceed the
    dimension guard."""


@dataclass(frozen=True)
class FockConfig:
    """Truncation and sampling settings for one oracle run.

    ``cutoff`` is the largest photon number kept per mode (inclusive);
    ``mc_samples`` only matters when the network carries a thermal input,
    and must be at least 2, so that every estimate has an error bar.
    """

    cutoff: int
    n_modes: int
    mc_samples: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2: one sample has no error bar")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if (self.cutoff + 1) ** self.n_modes > MAX_DIMENSION:
            raise ResourceLimitError(
                f"(cutoff+1)^n_modes = {(self.cutoff + 1) ** self.n_modes} "
                f"exceeds the {MAX_DIMENSION} dimension guard"
            )

    @property
    def dim(self) -> int:
        return self.cutoff + 1


@dataclass(frozen=True)
class OracleEstimate:
    """Estimated expectation value with its standard error.

    ``std_error`` combines, in quadrature, the Monte-Carlo statistical error
    (zero when the network carries no thermal port, which is simulated once)
    with a cutoff-convergence estimate of the truncation error: the same
    samples are also propagated at cutoff - 2, and |value - lowered value|
    estimates the bias that amplitude pushed past the cutoff leaves, which
    statistics alone cannot see and the guards bound only as a probability.
    ``value`` is complex for cross moments and real otherwise.
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
    (n_a, n_b) to n_a + 1.  Blocks b and 2*(dim-1) - b have the same size
    and share one stacked eigendecomposition; a squeezer's blocks m and -m
    are the same matrix and share one block.
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
    slices = _pair_blocks(element, dim)
    roots = np.sqrt(np.arange(dim))
    pair = np.arange(dim * dim)
    blocks: list = [None] * len(slices)
    for b in range(dim):
        # block b and its mirror both hold b + 1 pair states
        mirror = len(slices) - 1 - b
        members = [b] if b == mirror or isinstance(element, TwoModeSqueezer) else [b, mirror]
        n_a, n_b = np.divmod(np.stack([pair[slices[m]] for m in members]), dim)
        # raising n_a on the subdiagonal, its adjoint partner above it
        x = roots[n_a[:, :-1] + 1] * roots[n_b[:, :-1] + b_shift]
        k = np.arange(b)
        gen = np.zeros((len(members), b + 1, b + 1), dtype=complex)
        gen[:, k + 1, k] = raising * x
        gen[:, k, k + 1] = lowering * x
        lam, vec = np.linalg.eigh(1j * gen)
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


def _apply_to_stack(
    stack: np.ndarray, element: Element, cutoff: int, sectors: np.ndarray | None = None
) -> np.ndarray:
    """Apply one gate element to every state of a (columns,) + (dim,)*n_modes
    stack; the norm-leak guard holds for each state.

    A two-mode gate acts on one contiguous pair-major copy of the stack, one
    matmul per block of its conserved number.  A one-column stack that holds
    several states in disjoint charge sectors passes ``sectors``, the
    (dim,)*n_modes array of each amplitude's sector index, and the guard
    then holds for each sector.
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
    if sectors is None:
        columns = stack.shape[0]
        norms_in, norms_out = _column_norms2(pairs, columns), _column_norms2(out, columns)
    else:
        labels = np.moveaxis(sectors, (i, j), (0, 1)).ravel()
        norms_in, norms_out = _sector_norms2(pairs, labels), _sector_norms2(out, labels)
    leak = np.abs(np.sqrt(norms_out) - np.sqrt(norms_in)).max()
    if leak > NORM_LEAK_TOL:
        raise TruncationError(f"norm leakage {leak:.3e} applying {element!r}")
    return np.moveaxis(out.reshape(moved.shape), (0, 1), (i + 1, j + 1))


def _column_norms2(pairs: np.ndarray, columns: int) -> np.ndarray:
    """Squared norm of each column of a contiguous pair-major stack."""
    flat = pairs.view(np.float64).reshape(pairs.shape[0], columns, -1)
    return np.einsum("pcr,pcr->c", flat, flat)


def _sector_norms2(pairs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared norm of each sector of a contiguous one-column stack, given
    the sector index of each amplitude in the same order."""
    flat = pairs.view(np.float64).reshape(-1, 2)
    return np.bincount(labels, weights=np.einsum("ar,ar->a", flat, flat))


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


def top_level_mass(psi: np.ndarray) -> float:
    """Largest per-mode probability of sitting at the cutoff level."""
    worst = 0.0
    for axis in range(psi.ndim):
        sl = [slice(None)] * psi.ndim
        sl[axis] = -1
        worst = max(worst, float(np.sum(np.abs(psi[tuple(sl)]) ** 2)))
    return worst


def _coherent_table(alphas: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row s: the truncated, renormalized coherent coefficients of
    alphas[s]; and each row's exact truncation leak."""
    coeffs = np.empty((alphas.size, dim), dtype=complex)
    coeffs[:, 0] = 1.0
    for n in range(1, dim):
        coeffs[:, n] = coeffs[:, n - 1] * alphas / math.sqrt(n)
    coeffs *= np.exp(-0.5 * np.abs(alphas) ** 2)[:, np.newaxis]
    kept = np.sum(np.abs(coeffs) ** 2, axis=1)
    leaks = np.maximum(0.0, 1.0 - kept)
    return coeffs / np.sqrt(kept)[:, np.newaxis], leaks


def coherent_coefficients(alpha: complex, dim: int) -> tuple[np.ndarray, float]:
    """Truncated coherent-state coefficients and the exact truncation leak.

    The returned vector is renormalized; the leak is 1 - |truncated|^2 of
    the exact (normalized) coherent state.
    """
    coeffs, leaks = _coherent_table(np.array([alpha], dtype=complex), dim)
    return coeffs[0], float(leaks[0])


def sample_thermal_amplitude(seed: int, index: int, n_bar: float) -> complex:
    """Deterministic per-sample coherent amplitude with <|alpha|^2> = n_bar."""
    rng = np.random.default_rng((seed, index))
    sd = math.sqrt(0.5 * n_bar)
    re, im = rng.normal(0.0, sd, size=2)
    return complex(re, im)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix on uint32 arrays, with its running constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _seed_words(seed: int, count: int) -> np.ndarray:
    """``np.random.SeedSequence((seed, k)).generate_state(4, np.uint64)`` for
    every k < count (< 2**32), as a (count, 4) array.

    This is SeedSequence's hash run on uint32 arrays, one entry per k.  Its
    entropy is the seed's 32-bit words, least significant first, then k.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    entropy = []
    while True:
        entropy.append(np.full(count, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(np.arange(count, dtype=np.uint32))
    hashmix = _hasher(_HASH_INIT_A, _HASH_MULT_A)
    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: eight uint32 words cycled from the pool, paired
    # little-endian into four uint64
    output = _hasher(_HASH_INIT_B, _HASH_MULT_B)
    words = np.stack([output(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """Hands a PCG64 the SeedSequence words ``_seed_words`` computed for it:
    the four uint64 words a PCG64 asks for, whatever the request.

    ``_thermal_amplitudes`` registers it as numpy's ISeedSequence when it
    first draws, so that importing icl does not import numpy.random.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


@lru_cache(maxsize=4)
def _thermal_amplitudes(seed: int, mc_samples: int, n_bar: float) -> np.ndarray:
    """``sample_thermal_amplitude(seed, k, n_bar)`` for k < mc_samples, bit
    for bit, drawn once and shared (read-only) by every network with these
    settings.  Only the PCG64 seeding and two normals are per sample."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    normals = np.empty((mc_samples, 2))
    for k, words in enumerate(_seed_words(seed, mc_samples)):
        normals[k] = np.random.Generator(np.random.PCG64(_SeedWords(words))).standard_normal(2)
    alphas = (math.sqrt(0.5 * n_bar) * normals).view(complex)[:, 0]
    alphas.flags.writeable = False
    return alphas


# ---------------------------------------------------------------------------
# Prepared networks
# ---------------------------------------------------------------------------


def _validate_elements(cfg: FockConfig, elements: tuple[Element, ...]) -> ThermalInput | None:
    thermal: ThermalInput | None = None
    for el in elements:
        if isinstance(el, ThermalInput):
            if el.n_bar < 0.0:
                raise ValueError("thermal occupation must be >= 0")
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
            if abs(el.t**2 + el.r**2 - 1.0) > 1e-12:
                raise ValueError("non-unitary beam splitter element")
            modes = (el.mode_a, el.mode_b)
        elif isinstance(el, PhaseShift):
            modes = (el.mode,)
        else:
            raise TypeError(f"unknown network element {el!r}")
        for m in modes:
            if not 0 <= m < cfg.n_modes:
                raise ValueError(f"element {el!r} addresses mode outside the configured range")
    return thermal


def _mode_charges(n_modes: int, elements: tuple[Element, ...]) -> tuple[int, ...] | None:
    """Signs s_m = +-1 such that every element conserves Q = sum_m s_m n_m,
    or None if there are none.

    A squeezer pairs modes of opposite sign and a splitter mixes modes of
    equal sign; a mode that no gate ties to a lower mode takes +1.
    """
    edges: list[list[tuple[int, int]]] = [[] for _ in range(n_modes)]
    for el in elements:
        if isinstance(el, TwoModeSqueezer):
            a, b, flip = el.mode_signal, el.mode_idler, -1
        elif isinstance(el, BeamSplitter):
            a, b, flip = el.mode_a, el.mode_b, 1
        else:
            continue
        edges[a].append((b, flip))
        edges[b].append((a, flip))
    signs = [0] * n_modes
    for root in range(n_modes):
        if signs[root]:
            continue
        signs[root] = 1
        todo = [root]
        while todo:
            m = todo.pop()
            for other, flip in edges[m]:
                if signs[other] == 0:
                    signs[other] = signs[m] * flip
                    todo.append(other)
                elif signs[other] != signs[m] * flip:
                    return None
    return tuple(signs)


class _PreparedNetwork:
    """Propagated port-basis columns plus sampled coherent coefficients;
    ``guarded=False`` turns the preparation-leak and top-level guards off.

    A thermal network with a conserved charge Q = sum_m s_m n_m (see
    ``_mode_charges``) is propagated merged: the port columns |k> enter as
    one dense state, sum_k |k>_port |0...0>, and column k is the part of it
    with charge s_port * k, since every gate conserves Q.  Each Gram matrix
    is then one pass over that state, summed per charge; ``basis`` unpacks
    the columns on demand.  Other networks propagate the columns as a stack.
    """

    def __init__(self, cfg: FockConfig, elements: tuple[Element, ...], guarded: bool = True):
        self.cfg = cfg
        self.elements = elements
        self.thermal = _validate_elements(cfg, elements)
        dim = cfg.dim
        gates = [el for el in elements if not isinstance(el, ThermalInput)]

        n_basis = dim if self.thermal is not None else 1
        amplitudes = n_basis * dim**cfg.n_modes
        if amplitudes > MAX_DIMENSION:
            raise ResourceLimitError(
                f"{n_basis} basis columns x (cutoff+1)^n_modes = {amplitudes} amplitudes "
                f"exceed the {MAX_DIMENSION} dimension guard"
            )
        if self.thermal is not None and cfg.mc_samples * dim > MAX_DIMENSION:
            raise ResourceLimitError(
                f"{cfg.mc_samples} samples x (cutoff+1) = {cfg.mc_samples * dim} coherent "
                f"coefficients exceed the {MAX_DIMENSION} dimension guard"
            )
        self._signs = None if self.thermal is None else _mode_charges(cfg.n_modes, tuple(gates))
        self._sectors = None
        merged = self._signs is not None
        state = np.zeros((1 if merged else n_basis,) + (dim,) * cfg.n_modes, dtype=complex)
        for k in range(n_basis):
            idx = [0] * cfg.n_modes
            if self.thermal is not None:
                idx[self.thermal.mode] = k
            state[(0 if merged else k, *idx)] = 1.0
        if merged:
            levels = np.arange(dim)
            charge = sum(
                s * levels.reshape([dim if a == m else 1 for a in range(cfg.n_modes)])
                for m, s in enumerate(self._signs)
            )
            # sector index of each amplitude: its charge, shifted to start at 0
            self._min_charge = int(charge.min())
            charge -= self._min_charge
            self._sectors = charge
        for el in gates:
            state = _apply_to_stack(state, el, cfg.cutoff, self._sectors)
        self._state = np.ascontiguousarray(state)

        if self.thermal is None:
            self.coeffs = np.ones((1, 1), dtype=complex)
            self.mean_prep_leak = 0.0
        else:
            alphas = _thermal_amplitudes(cfg.seed, cfg.mc_samples, self.thermal.n_bar)
            self.coeffs, leaks = _coherent_table(alphas, dim)
            self.mean_prep_leak = float(np.mean(leaks))
            if guarded and self.mean_prep_leak > MEAN_PREP_LEAK_TOL:
                raise TruncationError(
                    f"mean coherent-preparation leak {self.mean_prep_leak:.3e} "
                    "indicates the cutoff is too small for this thermal brightness"
                )
        self._coeffs_conj = self.coeffs.conj()
        if guarded and self.thermal is None and top_level_mass(self._state[0]) > TOP_LEVEL_TOL:
            raise TruncationError("cutoff-level occupation exceeds the truncation guard")
        self._grams: dict[tuple, np.ndarray] = {}
        self._offsets: dict[tuple, int] = {}

    def _columns_of(self, charges: np.ndarray) -> np.ndarray:
        """Port column whose part of the merged state has each charge."""
        return self._signs[self.thermal.mode] * charges

    @cached_property
    def basis(self) -> np.ndarray:
        """The (cutoff+1 or 1,) + (dim,)*n_modes stack of propagated columns."""
        if self._sectors is None:
            return self._state
        dim = self.cfg.dim
        flat = self._state.reshape(-1)
        column = self._columns_of(self._sectors.reshape(-1) + self._min_charge)
        keep = np.flatnonzero((column >= 0) & (column < dim))
        basis = np.zeros((dim, flat.size), dtype=complex)
        basis[column[keep], keep] = flat[keep]
        return basis.reshape((dim,) + self._state.shape[1:])

    # -- observables ------------------------------------------------------

    def _number_weighted(self, modes: tuple[int, ...]) -> np.ndarray:
        out = self._state
        dim = self.cfg.dim
        for mode in modes:
            shape = [1] * out.ndim
            shape[mode + 1] = dim
            out = out * np.arange(dim).reshape(shape)
        return out

    def _gram(
        self, left: np.ndarray, right: np.ndarray, lowered_left: int = 0, lowered_right: int = 0
    ) -> np.ndarray:
        """<left_k|right_l> over every pair of columns k, l.  On the merged
        state, ``lowered_left`` and ``lowered_right`` are the charges the
        operators behind ``left`` and ``right`` remove: a_i removes s_i."""
        if self._sectors is None:
            columns = left.shape[0]
            if columns == 1:
                # a vacuum network's one column: a plain reduction, which
                # BLAS cannot spread over threads
                return np.sum(np.conj(left) * right).reshape(1, 1)
            return left.reshape(columns, -1).conj() @ right.reshape(columns, -1).T
        w = np.conj(left).reshape(-1)
        w *= right.reshape(-1)
        labels = self._sectors.reshape(-1)
        sums = np.bincount(labels, w.real) + 1j * np.bincount(labels, w.imag)
        charges = np.arange(sums.size) + self._min_charge
        k = self._columns_of(charges + lowered_left)
        l = self._columns_of(charges + lowered_right)
        dim = self.cfg.dim
        keep = (k >= 0) & (k < dim) & (l >= 0) & (l < dim)
        gram = np.zeros((dim, dim), dtype=complex)
        gram[k[keep], l[keep]] = sums[keep]
        return gram

    def gram_matrix(self, kind: MomentKind, i: int, j: int | None) -> np.ndarray:
        key = (kind, i, j)
        cached = self._grams.get(key)
        if cached is not None:
            return cached
        state = self._state
        s = self._signs or (0,) * self.cfg.n_modes
        if kind == "mean":
            left, right, lowered = state, self._number_weighted((i,)), (0, 0)
        elif kind == "normal":
            left, right, lowered = _annihilated(state, i), _annihilated(state, j), (s[i], s[j])
        elif kind == "anomalous":
            left, right, lowered = state, _annihilated(_annihilated(state, j), i), (0, s[i] + s[j])
        elif kind == "number_product":
            left, right, lowered = state, self._number_weighted((i, j)), (0, 0)
        else:
            raise ValueError(f"unknown moment kind {kind!r}")
        q = self._gram(left, right, *lowered)
        if self._sectors is not None:
            # column k meets column l = k + offset only: Q_kl is nonzero on
            # that one diagonal
            self._offsets[key] = self._columns_of(lowered[1] - lowered[0])
        self._grams[key] = q
        return q

    def per_sample(self, kind: MomentKind, i: int, j: int | None = None) -> np.ndarray:
        q = self.gram_matrix(kind, i, j)
        if self._sectors is None:
            return ((self._coeffs_conj @ q) * self.coeffs).sum(1)
        d = self._offsets[kind, i, j]
        k = slice(max(0, -d), self.cfg.dim - max(0, d))
        l = slice(k.start + d, k.stop + d)
        # einsum, not BLAS: no thread pool for a samples x (cutoff+1) pass
        return np.einsum("sk,sk,k->s", self._coeffs_conj[:, k], self.coeffs[:, l], np.diagonal(q, d))

    def sample_states(self) -> Iterator[np.ndarray]:
        for c in self.coeffs:
            yield np.tensordot(c, self.basis, axes=([0], [0]))


@lru_cache(maxsize=2)
def _prepare(
    cfg: FockConfig, elements: tuple[Element, ...], guarded: bool = True
) -> _PreparedNetwork:
    return _PreparedNetwork(cfg, elements, guarded)


# ---------------------------------------------------------------------------
# Public oracle operations
# ---------------------------------------------------------------------------


def simulate_network(cfg: FockConfig, elements: tuple[Element, ...]) -> Iterator[np.ndarray]:
    """Yield the final truncated state vector of every coherent sample.

    Deterministic networks (no thermal port) yield a single state.  Each
    state has shape (cutoff+1,) * n_modes.
    """
    return _prepare(cfg, tuple(elements)).sample_states()


def _estimate(
    cfg: FockConfig,
    elements: tuple[Element, ...],
    moments: list[tuple],
    value: Callable[..., complex | float],
    stat_error: Callable[..., float],
) -> OracleEstimate:
    """The one oracle estimator: ``value(*series)`` of the per-sample series
    of ``moments``, with a standard error combining in quadrature
    ``stat_error(value, *series)`` and the truncation term
    |value - value at cutoff - 2|.

    The statistical error is zero only for a one-row coefficient table (a
    network without a thermal port is simulated once).  The lowered run
    reuses the samples and has its guards off: the leak or top-level mass it
    adds only widens the error bar.
    """
    elements = tuple(elements)
    run = _prepare(cfg, elements)
    series = [run.per_sample(*m) for m in moments]
    estimate = value(*series)
    stat = stat_error(estimate, *series) if len(run.coeffs) > 1 else 0.0
    trunc = 0.0
    if cfg.cutoff - 2 >= 2:
        lowered = _prepare(replace(cfg, cutoff=cfg.cutoff - 2), elements, False)
        trunc = abs(estimate - value(*(lowered.per_sample(*m) for m in moments)))
    return OracleEstimate(estimate, math.hypot(stat, trunc))


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
    real = kind in ("mean", "number_product")

    def value(values: np.ndarray) -> complex | float:
        return float(values.real.mean()) if real else complex(values.mean())

    def stat_error(mean: complex | float, values: np.ndarray) -> float:
        spread = np.sum(np.abs((values.real if real else values) - mean) ** 2) / (values.size - 1)
        return math.sqrt(float(spread) / values.size)

    return _estimate(cfg, elements, [(kind, i, j)], value, stat_error)


def _ratio(num: np.ndarray, den: np.ndarray) -> float:
    den_mean = float(den.real.mean())
    if den_mean <= 0.0:
        raise ValueError("zero herald rate: the herald mode is empty")
    return float(num.real.mean()) / den_mean


def _ratio_error(ratio: float, num: np.ndarray, den: np.ndarray) -> float:
    cov = np.cov(np.vstack([num.real, den.real]), ddof=1)
    var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / (
        num.size * float(den.real.mean()) ** 2
    )
    return math.sqrt(max(0.0, var))


def oracle_conditional(
    cfg: FockConfig, elements: tuple[Element, ...], mode_i: int, mode_s: int
) -> OracleEstimate:
    """Click-conditioned signal mean <n_I n_S> / <n_I> from the state vector.

    The ratio uses sample-averaged numerator over sample-averaged
    denominator; its statistical error comes from first-order propagation
    of the joint sample covariance.
    """
    moments = [("number_product", mode_i, mode_s), ("mean", mode_i, None)]
    return _estimate(cfg, elements, moments, _ratio, _ratio_error)


def _residual(*series: np.ndarray) -> float:
    nn, ni, ns = (float(s.real.mean()) for s in series[:3])
    an, nm = (complex(s.mean()) for s in series[3:])
    return nn - ni * ns - abs(an) ** 2 - abs(nm) ** 2


def wick_residual(
    cfg: FockConfig,
    elements: tuple[Element, ...],
    mode_i: int,
    mode_s: int,
    n_batches: int = 20,
) -> OracleEstimate:
    """Residual of the Gaussian fourth-order factorization,

        <n_I n_S> - <n_I><n_S> - |<a_I a_S>|^2 - |<a_I^dag a_S>|^2,

    which vanishes for any zero-mean Gaussian network.  The statistical
    error bar comes from a batched jackknife over Monte-Carlo samples.
    """

    def batch_error(_: float, *series: np.ndarray) -> float:
        m = series[0].size
        edges = np.linspace(0, m, max(2, min(n_batches, m)) + 1, dtype=int)
        batches = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
        batch_values = np.array([_residual(*(s[b] for s in series)) for b in batches])
        return float(np.std(batch_values, ddof=1) / math.sqrt(batch_values.size))

    moments = [
        ("number_product", mode_i, mode_s),
        ("mean", mode_i, None),
        ("mean", mode_s, None),
        ("anomalous", mode_i, mode_s),
        ("normal", mode_i, mode_s),
    ]
    return _estimate(cfg, elements, moments, _residual, batch_error)
