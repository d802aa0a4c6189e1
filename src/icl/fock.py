"""Brute-force verifier: exact truncated-Fock-space network simulation.

Networks are the same element lists the moment engine consumes.  A two-mode
gate conserves a photon number (n_a + n_b for a beam splitter, n_a - n_b for
a two-mode squeezer), so its truncated generator is block-diagonal in that
number; each block is exponentiated exactly through a Hermitian
eigendecomposition.  Every element is therefore unitary on the truncated
space and norm is conserved to machine precision; truncation shows up as
occupation piling at the cutoff, which is guarded separately.

A thermal input is handled by Monte-Carlo sampling of its coherent-state
decomposition: a complex amplitude alpha with <|alpha|^2> = n_bar is drawn
per sample and |alpha> enters the port, keeping every sample a pure state.
Because the network is fixed across samples, the port's Fock basis states
are propagated once, as one stack through each gate, and each observable
reduces to a small quadratic form in the sampled coherent coefficients;
this is numerically identical to propagating every sample through the
network.

The kernels use the same block structure.  A gate acts on one contiguous
copy of the stack with its two modes leading, so that a block of fixed
conserved number is a strided slice of the flat pair index, and each block
is one matmul with a cached contiguous block matrix: about (2d^3 + d)/3
multiply-adds per pair column instead of d^4 for the dense (d^2 x d^2)
unitary.  The propagated basis is stored contiguous, so each observable's
Gram matrix is one flat matmul over (columns, states) arrays, and a ladder
operator is an index shift along its mode's axis.  A thermal port's stack
holds cutoff+1 basis states, and is counted whole against the dimension
guard before it is allocated; so is its samples x (cutoff+1) table of
coherent coefficients, before any amplitude is drawn.

All results are deterministic given (seed, config): sample k draws from a
generator seeded with (seed, k), independent of batching or evaluation
order.  The draws depend on nothing else, so one set per (seed, samples,
n_bar) is shared by every network that asks for it, such as the points of
a verify grid and their lowered-cutoff companions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal

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

    ``std_error`` is exactly zero when the network carries no thermal port
    (the simulation is then deterministic and its truncation error is held
    below 1e-8 by the gain/cutoff guards).  For sampled thermal networks it
    combines, in quadrature, the Monte-Carlo statistical error with a
    cutoff-convergence estimate of the sampling-induced truncation error:
    bright coherent samples push joint two-mode occupations past the cutoff,
    a bias that statistics alone cannot see, so the same samples are also
    propagated at a lowered cutoff and the difference bounds the bias.
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
def two_mode_gate(element: Element, dim: int) -> np.ndarray:
    """Unitary of a two-mode element on the (dim*dim)-dimensional pair space.

    The first kron factor is the element's first mode.  The gate is the
    exponential of the truncated generator, built block by block over the
    number the element conserves: U = V exp(-i L) V^dag on each block, with
    (L, V) the eigendecomposition of the Hermitian i * generator.  Within a
    block the generator is tridiagonal, coupling (n_a, n_b) to n_a + 1.
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
    roots = np.sqrt(np.arange(dim))
    gate = np.zeros((dim * dim, dim * dim), dtype=complex)
    for s in _pair_blocks(element, dim):
        n_a, n_b = np.divmod(np.arange(dim * dim)[s], dim)
        # raising n_a on the subdiagonal, its adjoint partner above it
        x = roots[n_a[:-1] + 1] * roots[n_b[:-1] + b_shift]
        k = np.arange(x.size)
        gen = np.zeros((n_a.size, n_a.size), dtype=complex)
        gen[k + 1, k] = raising * x
        gen[k, k + 1] = lowering * x
        lam, vec = np.linalg.eigh(1j * gen)
        gate[s, s] = (vec * np.exp(-1j * lam)) @ vec.conj().T
    gate.flags.writeable = False
    return gate


@lru_cache(maxsize=128)
def _gate_blocks(element: Element, dim: int) -> tuple[tuple[slice, np.ndarray], ...]:
    """Each block of ``two_mode_gate`` as a contiguous (read-only) copy, with
    its slice of the flat pair index."""
    gate = two_mode_gate(element, dim)
    blocks = []
    for s in _pair_blocks(element, dim):
        block = np.ascontiguousarray(gate[s, s])
        block.flags.writeable = False
        blocks.append((s, block))
    return tuple(blocks)


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
    leak = np.abs(
        np.sqrt(_column_norms2(out, columns)) - np.sqrt(_column_norms2(pairs, columns))
    ).max()
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


@lru_cache(maxsize=4)
def _thermal_amplitudes(seed: int, mc_samples: int, n_bar: float) -> np.ndarray:
    """``sample_thermal_amplitude(seed, k, n_bar)`` for k < mc_samples, drawn
    once and shared (read-only) by every network with these settings."""
    alphas = np.array(
        [sample_thermal_amplitude(seed, k, n_bar) for k in range(mc_samples)], dtype=complex
    )
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


class _PreparedNetwork:
    """Propagated port-basis columns plus sampled coherent coefficients."""

    def __init__(
        self, cfg: FockConfig, elements: tuple[Element, ...], guard_prep_leak: bool = True
    ):
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
        basis = np.zeros((n_basis,) + (dim,) * cfg.n_modes, dtype=complex)
        for k in range(n_basis):
            idx = [0] * cfg.n_modes
            if self.thermal is not None:
                idx[self.thermal.mode] = k
            basis[(k, *idx)] = 1.0
        for el in gates:
            basis = _apply_to_stack(basis, el, cfg.cutoff)
        self.basis = np.ascontiguousarray(basis)

        if self.thermal is None:
            self.coeffs = np.ones((1, 1), dtype=complex)
            self.mean_prep_leak = 0.0
        else:
            alphas = _thermal_amplitudes(cfg.seed, cfg.mc_samples, self.thermal.n_bar)
            self.coeffs, leaks = _coherent_table(alphas, dim)
            self.mean_prep_leak = float(np.mean(leaks))
            if guard_prep_leak and self.mean_prep_leak > MEAN_PREP_LEAK_TOL:
                raise TruncationError(
                    f"mean coherent-preparation leak {self.mean_prep_leak:.3e} "
                    "indicates the cutoff is too small for this thermal brightness"
                )
        if self.thermal is None and top_level_mass(self.basis[0]) > TOP_LEVEL_TOL:
            raise TruncationError("cutoff-level occupation exceeds the truncation guard")
        self._grams: dict[tuple, np.ndarray] = {}

    @property
    def deterministic(self) -> bool:
        return self.thermal is None

    # -- observables ------------------------------------------------------

    def _number_weighted(self, modes: tuple[int, ...]) -> np.ndarray:
        out = self.basis
        dim = self.cfg.dim
        for mode in modes:
            shape = [1] * out.ndim
            shape[mode + 1] = dim
            out = out * np.arange(dim).reshape(shape)
        return out

    def _gram(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        columns = left.shape[0]
        return left.reshape(columns, -1).conj() @ right.reshape(columns, -1).T

    def gram_matrix(self, kind: MomentKind, i: int, j: int | None) -> np.ndarray:
        key = (kind, i, j)
        cached = self._grams.get(key)
        if cached is not None:
            return cached
        if kind == "mean":
            q = self._gram(self.basis, self._number_weighted((i,)))
        elif kind == "normal":
            q = self._gram(_annihilated(self.basis, i), _annihilated(self.basis, j))
        elif kind == "anomalous":
            both = _annihilated(_annihilated(self.basis, j), i)
            q = self._gram(self.basis, both)
        elif kind == "number_product":
            q = self._gram(self.basis, self._number_weighted((i, j)))
        else:
            raise ValueError(f"unknown moment kind {kind!r}")
        self._grams[key] = q
        return q

    def per_sample(self, kind: MomentKind, i: int, j: int | None = None) -> np.ndarray:
        q = self.gram_matrix(kind, i, j)
        c = self.coeffs
        return ((c.conj() @ q) * c).sum(1)

    def sample_states(self) -> Iterator[np.ndarray]:
        for c in self.coeffs:
            yield np.tensordot(c, self.basis, axes=([0], [0]))


@lru_cache(maxsize=1)
def _prepare(cfg: FockConfig, elements: tuple[Element, ...]) -> _PreparedNetwork:
    return _PreparedNetwork(cfg, elements)


@lru_cache(maxsize=1)
def _prepare_companion(cfg: FockConfig, elements: tuple[Element, ...]) -> _PreparedNetwork | None:
    """Same samples at a lowered cutoff, used for truncation-error estimates.

    The companion skips the preparation-leak guard: its larger leak only
    makes the error estimate more conservative.
    """
    if cfg.cutoff - 2 < 2:
        return None
    lowered = FockConfig(cfg.cutoff - 2, cfg.n_modes, cfg.mc_samples, cfg.seed)
    return _PreparedNetwork(lowered, elements, guard_prep_leak=False)


# ---------------------------------------------------------------------------
# Public oracle operations
# ---------------------------------------------------------------------------


def simulate_network(cfg: FockConfig, elements: tuple[Element, ...]) -> Iterator[np.ndarray]:
    """Yield the final truncated state vector of every coherent sample.

    Deterministic networks (no thermal port) yield a single state.  Each
    state has shape (cutoff+1,) * n_modes.
    """
    return _prepare(cfg, tuple(elements)).sample_states()


def _statistical_error(values: np.ndarray) -> float:
    mean = values.mean()
    m = values.size
    spread = float(np.sum(np.abs(values - mean) ** 2) / (m - 1))
    return math.sqrt(spread / m)


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
    run = _prepare(cfg, tuple(elements))
    real = kind in ("mean", "number_product")
    values = run.per_sample(kind, i, j)
    if real:
        values = values.real
    mean = values.mean()
    if run.deterministic:
        return OracleEstimate(float(mean) if real else complex(mean), 0.0)
    trunc = 0.0
    companion = _prepare_companion(cfg, tuple(elements))
    if companion is not None:
        lowered = companion.per_sample(kind, i, j)
        trunc = abs(complex(mean - lowered.mean()))
    se = math.hypot(_statistical_error(values), trunc)
    return OracleEstimate(float(mean) if real else complex(mean), se)


def _conditional_ratio(run: _PreparedNetwork, mode_i: int, mode_s: int) -> tuple[float, float]:
    """(ratio, statistical standard error) of <n_I n_S> / <n_I> on one run."""
    num = run.per_sample("number_product", mode_i, mode_s).real
    den = run.per_sample("mean", mode_i).real
    den_mean = float(den.mean())
    if den_mean <= 0.0:
        raise ValueError("zero herald rate: the herald mode is empty")
    ratio = float(num.mean()) / den_mean
    if run.deterministic:
        return ratio, 0.0
    m = num.size
    cov = np.cov(np.vstack([num, den]), ddof=1)
    var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / (m * den_mean**2)
    return ratio, math.sqrt(max(0.0, var))


def oracle_conditional(
    cfg: FockConfig, elements: tuple[Element, ...], mode_i: int, mode_s: int
) -> OracleEstimate:
    """Click-conditioned signal mean <n_I n_S> / <n_I> from the state vector.

    The ratio uses sample-averaged numerator over sample-averaged
    denominator; its statistical error comes from first-order propagation
    of the joint sample covariance.
    """
    run = _prepare(cfg, tuple(elements))
    ratio, se = _conditional_ratio(run, mode_i, mode_s)
    if run.deterministic:
        return OracleEstimate(ratio, 0.0)
    trunc = 0.0
    companion = _prepare_companion(cfg, tuple(elements))
    if companion is not None:
        lowered, _ = _conditional_ratio(companion, mode_i, mode_s)
        trunc = abs(ratio - lowered)
    return OracleEstimate(ratio, math.hypot(se, trunc))


def _residual_series(run: _PreparedNetwork, mode_i: int, mode_s: int) -> dict[str, np.ndarray]:
    return {
        "nn": run.per_sample("number_product", mode_i, mode_s).real,
        "ni": run.per_sample("mean", mode_i).real,
        "ns": run.per_sample("mean", mode_s).real,
        "an": run.per_sample("anomalous", mode_i, mode_s),
        "nm": run.per_sample("normal", mode_i, mode_s),
    }


def _residual_of(series: dict[str, np.ndarray], sel: slice) -> float:
    nn = float(series["nn"][sel].mean())
    ni = float(series["ni"][sel].mean())
    ns = float(series["ns"][sel].mean())
    an = complex(series["an"][sel].mean())
    nm = complex(series["nm"][sel].mean())
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
    error bar comes from a batched jackknife over Monte-Carlo samples; the
    truncation term from the lowered-cutoff companion run.
    """
    run = _prepare(cfg, tuple(elements))
    series = _residual_series(run, mode_i, mode_s)
    value = _residual_of(series, slice(None))
    if run.deterministic:
        return OracleEstimate(value, 0.0)
    m = series["nn"].size
    n_batches = max(2, min(n_batches, m))
    edges = np.linspace(0, m, n_batches + 1, dtype=int)
    batch_values = np.array(
        [_residual_of(series, slice(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    )
    se = float(np.std(batch_values, ddof=1) / math.sqrt(batch_values.size))
    trunc = 0.0
    companion = _prepare_companion(cfg, tuple(elements))
    if companion is not None:
        lowered = _residual_of(_residual_series(companion, mode_i, mode_s), slice(None))
        trunc = abs(value - lowered)
    return OracleEstimate(value, math.hypot(se, trunc))
