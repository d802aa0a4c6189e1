"""Flat key-value run configurations for the command-line front end.

Files are plain ``key = value`` lines with ``#`` comments and dotted keys,
for example::

    topology.kind = 2spdc
    gain.V_A = 0.1
    object.T.min = 0.0
    object.T.max = 1.0
    object.T.count = 100
    noise.N_B = 0, 10, 100

``object.T`` is either a scalar or a sweep (min/max/count plus linear or
log spacing).  Unknown keys are rejected so typos fail loudly.  Each
physical value is admitted through the model type that owns its range, and
that type's ValueError becomes a ConfigError that starts with the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fock import MIN_CUTOFF
from .gaussian import ObjectPort, PhaseShift, SqueezerParams, ThermalInput, reject_subnormal
from .heralding import DetectorModel
from .interferometer import MODE_BACKGROUND, MODE_SIGNAL_B, Topology, TopologyKind

# A sanity bound of the command line, not a model rule: the largest gain of
# the presets, the tests and the benchmark.  The CLI's engine cross-checks
# fail from V = 1000 on, and far above it so do the engine's eigenvalue calls.
MAX_GAIN = 100.0

# Another sanity bound of the command line: the most points an object.T
# sweep or a phase grid may ask for, and the most rows (T points x N_B
# values) of a scan, checked before any grid is allocated.  The presets ask
# for at most 100 points per grid and 400 rows, the benchmark for 256 points
# and 800 rows.
MAX_GRID_COUNT = 100_000


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _check_normal(key: str, values) -> None:
    """ConfigError unless every value is 0 or a normal float."""
    try:
        for value in values:
            reject_subnormal(key, value)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _admit(key: str, owner, *args):
    """``owner(*args)``, its ValueError turned into a ConfigError that
    starts with ``key``."""
    try:
        return owner(*args)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from err


@dataclass(frozen=True)
class SweepSpec:
    lo: float
    hi: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ConfigError("sweep count must be >= 2")
        if not self.lo <= self.hi:
            raise ConfigError("sweep min must be <= max")
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"unknown sweep spacing {self.spacing!r}")
        if self.spacing == "log" and self.lo <= 0.0:
            raise ConfigError("log sweeps need a positive lower bound")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class RunConfig:
    kind: TopologyKind
    v_a: float
    v_b: float
    v_c: float | None
    attenuation: float | None
    transmittance: float | SweepSpec
    n_b_values: tuple[float, ...]
    phase_min: float
    phase_max: float
    phase_count: int
    eta: float
    nu: float
    cutoff: int
    seed: int  # draws verify's random Wick-residual networks
    out_dir: str | None

    def __post_init__(self) -> None:
        # here rather than in the parser, so that a --seed override is
        # checked too
        if self.seed < 0:
            raise ConfigError("oracle.seed must be >= 0")

    def transmittance_values(self) -> np.ndarray:
        if isinstance(self.transmittance, SweepSpec):
            return self.transmittance.values()
        return np.array([self.transmittance])

    def phase_values(self) -> np.ndarray:
        # A span within rounding of the largest double can overflow only in
        # linspace's last point, which linspace then overwrites with
        # phase_max; every other point is bit for bit the unguarded one.
        with np.errstate(over="ignore"):
            return np.linspace(self.phase_min, self.phase_max, self.phase_count)


_KNOWN_KEYS = {
    "topology.kind",
    "gain.V_A",
    "gain.V_B",
    "gain.V_C",
    "attenuation",
    "object.T",
    "object.T.min",
    "object.T.max",
    "object.T.count",
    "object.T.spacing",
    "noise.N_B",
    "phase.min",
    "phase.max",
    "phase.count",
    "detector.eta",
    "detector.nu",
    "oracle.cutoff",
    "oracle.samples",
    "oracle.seed",
    "output.dir",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat mapping."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _as_float(mapping: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in mapping:
        return default
    try:
        value = float(mapping[key])
    except ValueError as err:
        raise ConfigError(f"{key}: not a number: {mapping[key]!r}") from err
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {mapping[key]!r}")
    _check_normal(key, (value,))
    return value


def _as_int(mapping: dict[str, str], key: str, default: int | None = None) -> int | None:
    if key not in mapping:
        return default
    try:
        return int(mapping[key])
    except ValueError as err:
        raise ConfigError(f"{key}: not an integer: {mapping[key]!r}") from err


def _grid_count(mapping: dict[str, str], key: str, default: int | None = None) -> int | None:
    count = _as_int(mapping, key, default)
    if count is not None and count > MAX_GRID_COUNT:
        raise ConfigError(f"{key}: {count} points is above {MAX_GRID_COUNT}, the largest grid")
    return count


def _as_float_list(mapping: dict[str, str], key: str, default: tuple[float, ...]) -> tuple[float, ...]:
    if key not in mapping:
        return default
    parts = [p.strip() for p in mapping[key].split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: empty list")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as err:
        raise ConfigError(f"{key}: not a number list: {mapping[key]!r}") from err
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{key}: not a list of finite numbers: {mapping[key]!r}")
    _check_normal(key, values)
    return values


def _gain(mapping: dict[str, str], key: str) -> SqueezerParams | None:
    """The pair source of a gain key, or None where the key is absent."""
    value = _as_float(mapping, key)
    if value is None:
        return None
    params = _admit(key, SqueezerParams, value)
    if value > MAX_GAIN:
        raise ConfigError(f"{key}: gain {value!r} is above {MAX_GAIN:g}, the largest gain tested")
    return params


def run_config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    unknown = sorted(set(mapping) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    kind_text = mapping.get("topology.kind", "2spdc")
    try:
        kind = TopologyKind(kind_text)
    except ValueError as err:
        raise ConfigError(f"topology.kind: unknown kind {kind_text!r}") from err

    a, b, c = (_gain(mapping, key) for key in ("gain.V_A", "gain.V_B", "gain.V_C"))
    if a is None or b is None:
        raise ConfigError("gain.V_A and gain.V_B are required")
    # scan-visibility reads V_C on every layout, for its three-source column
    _admit("gain.V_C", Topology.check_crystal_c, kind, c if kind is TopologyKind.THREE_SPDC else None)
    attenuation = _as_float(mapping, "attenuation")
    _admit("attenuation", Topology.check_attenuation, kind, attenuation)

    sweep_keys = [k for k in mapping if k.startswith("object.T.")]
    if "object.T" in mapping and sweep_keys:
        raise ConfigError("object.T must be either a scalar or a sweep, not both")
    transmittance: float | SweepSpec
    if "object.T" in mapping:
        transmittance = _as_float(mapping, "object.T")
        t_values = [transmittance]
    elif sweep_keys:
        lo = _as_float(mapping, "object.T.min")
        hi = _as_float(mapping, "object.T.max")
        count = _grid_count(mapping, "object.T.count")
        if lo is None or hi is None or count is None:
            raise ConfigError("object.T sweeps need min, max, and count")
        spacing = mapping.get("object.T.spacing", "linear")
        transmittance = _admit("object.T", SweepSpec, lo, hi, count, spacing)
        t_values = transmittance.values().tolist()
    else:
        raise ConfigError("object.T (scalar or sweep) is required")
    for T in t_values:
        _admit("object.T", ObjectPort, T)

    n_b_values = _as_float_list(mapping, "noise.N_B", (0.0,))
    rows = len(t_values) * len(n_b_values)
    if rows > MAX_GRID_COUNT:
        raise ConfigError(f"noise.N_B: {rows} rows (T points x N_B values) are above {MAX_GRID_COUNT}")
    for n_b in n_b_values:
        _admit("noise.N_B", ThermalInput, MODE_BACKGROUND, n_b)

    phase_min = _as_float(mapping, "phase.min", 0.0)
    phase_max = _as_float(mapping, "phase.max", math.pi)
    # the network's phase element turns the fringe phase phi into 2 phi
    _admit("phase.min", PhaseShift, MODE_SIGNAL_B, 2.0 * phase_min)
    _admit("phase.max", PhaseShift, MODE_SIGNAL_B, 2.0 * phase_max)
    phase_count = _grid_count(mapping, "phase.count", 64)
    if phase_count < 1:
        raise ConfigError("phase.count must be >= 1")

    eta = _as_float(mapping, "detector.eta", 1.0)
    nu = _as_float(mapping, "detector.nu", 0.0)
    _admit("detector.eta", DetectorModel, eta)
    _admit("detector.nu", DetectorModel, 1.0, nu)

    cutoff = _as_int(mapping, "oracle.cutoff", 12)
    if cutoff < MIN_CUTOFF:
        raise ConfigError(f"oracle.cutoff must be >= {MIN_CUTOFF}")
    # validated as documented, though the oracle samples nothing
    if _as_int(mapping, "oracle.samples", 10_000) < 2:
        raise ConfigError("oracle.samples must be >= 2")

    return RunConfig(
        kind=kind,
        v_a=a.V,
        v_b=b.V,
        v_c=None if c is None else c.V,
        attenuation=attenuation,
        transmittance=transmittance,
        n_b_values=n_b_values,
        phase_min=phase_min,
        phase_max=phase_max,
        phase_count=phase_count,
        eta=eta,
        nu=nu,
        cutoff=cutoff,
        seed=_as_int(mapping, "oracle.seed", 0),
        out_dir=mapping.get("output.dir"),
    )


def load_run_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return run_config_from_mapping(parse_config_text(text))
