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
log spacing).  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaussian import reject_subnormal
from .interferometer import TopologyKind


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _check_normal(key: str, values) -> None:
    """ConfigError unless every value is 0 or a normal float."""
    try:
        for value in values:
            reject_subnormal(key, value)
    except ValueError as err:
        raise ConfigError(str(err)) from err


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
    samples: int
    seed: int
    out_dir: str | None
    tolerance_scale: float

    def transmittance_values(self) -> np.ndarray:
        if isinstance(self.transmittance, SweepSpec):
            return self.transmittance.values()
        return np.array([self.transmittance])

    def phase_values(self) -> np.ndarray:
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
    "verify.tolerance_scale",
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


def run_config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    unknown = sorted(set(mapping) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    kind_text = mapping.get("topology.kind", "2spdc")
    try:
        kind = TopologyKind(kind_text)
    except ValueError as err:
        raise ConfigError(f"topology.kind: unknown kind {kind_text!r}") from err

    v_a = _as_float(mapping, "gain.V_A")
    v_b = _as_float(mapping, "gain.V_B")
    if v_a is None or v_b is None:
        raise ConfigError("gain.V_A and gain.V_B are required")
    v_c = _as_float(mapping, "gain.V_C")
    if any(v is not None and v < 0.0 for v in (v_a, v_b, v_c)):
        raise ConfigError("gains must be >= 0")
    attenuation = _as_float(mapping, "attenuation")
    if kind is TopologyKind.THREE_SPDC and v_c is None:
        raise ConfigError("gain.V_C is required for the three-source layout")
    if kind is TopologyKind.TWO_SPDC_ATTENUATED and attenuation is None:
        raise ConfigError("attenuation is required for the attenuated layout")
    if kind is not TopologyKind.TWO_SPDC_ATTENUATED and attenuation is not None:
        raise ConfigError("attenuation only applies to the attenuated layout")
    if attenuation is not None and not 0.0 <= attenuation <= 1.0:
        raise ConfigError("attenuation must lie in [0, 1]")

    sweep_keys = [k for k in mapping if k.startswith("object.T.")]
    if "object.T" in mapping and sweep_keys:
        raise ConfigError("object.T must be either a scalar or a sweep, not both")
    transmittance: float | SweepSpec
    if "object.T" in mapping:
        transmittance = _as_float(mapping, "object.T")
    elif sweep_keys:
        lo = _as_float(mapping, "object.T.min")
        hi = _as_float(mapping, "object.T.max")
        count = _as_int(mapping, "object.T.count")
        if lo is None or hi is None or count is None:
            raise ConfigError("object.T sweeps need min, max, and count")
        transmittance = SweepSpec(lo, hi, count, mapping.get("object.T.spacing", "linear"))
    else:
        raise ConfigError("object.T (scalar or sweep) is required")
    t_values = (
        transmittance.values()
        if isinstance(transmittance, SweepSpec)
        else np.array([transmittance])
    )
    if t_values.min() < 0.0 or t_values.max() > 1.0:
        raise ConfigError("object.T values must lie in [0, 1]")
    _check_normal("object.T", t_values.tolist())

    n_b_values = _as_float_list(mapping, "noise.N_B", (0.0,))
    if any(n < 0.0 for n in n_b_values):
        raise ConfigError("noise.N_B values must be >= 0")

    phase_count = _as_int(mapping, "phase.count", 64)
    if phase_count < 1:
        raise ConfigError("phase.count must be >= 1")

    eta = _as_float(mapping, "detector.eta", 1.0)
    nu = _as_float(mapping, "detector.nu", 0.0)
    if not 0.0 < eta <= 1.0:
        raise ConfigError("detector.eta must lie in (0, 1]")
    if nu < 0.0:
        raise ConfigError("detector.nu must be >= 0")

    tolerance_scale = _as_float(mapping, "verify.tolerance_scale", 1.0)
    if tolerance_scale <= 0.0:
        raise ConfigError("verify.tolerance_scale must be positive")

    cutoff = _as_int(mapping, "oracle.cutoff", 12)
    samples = _as_int(mapping, "oracle.samples", 10_000)
    if cutoff < 1:
        raise ConfigError("oracle.cutoff must be >= 1")
    if samples < 2:
        raise ConfigError("oracle.samples must be >= 2")

    return RunConfig(
        kind=kind,
        v_a=v_a,
        v_b=v_b,
        v_c=v_c,
        attenuation=attenuation,
        transmittance=transmittance,
        n_b_values=n_b_values,
        phase_min=_as_float(mapping, "phase.min", 0.0),
        phase_max=_as_float(mapping, "phase.max", math.pi),
        phase_count=phase_count,
        eta=eta,
        nu=nu,
        cutoff=cutoff,
        samples=samples,
        seed=_as_int(mapping, "oracle.seed", 0),
        out_dir=mapping.get("output.dir"),
        tolerance_scale=tolerance_scale,
    )


def load_run_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return run_config_from_mapping(parse_config_text(text))
