"""Seeded command streams for the three benchmark workloads.

A workload is an endless sequence of cycles of CLI commands.  Every cycle
holds the same command shapes (subcommand, layout, grid sizes, sample
counts) in a seed-shuffled order, and the seed draws every physical
parameter.  Work per cycle is therefore fixed, so rates and medians compare
across seeds, while the inputs themselves differ from seed to seed.

Every command gets distinct inputs (fresh gains, transmittances, oracle
seed), so no command can be served from an earlier command's cache.

Why each workload exists:

* ``scan-closed`` -- closed-form scans (``scan-visibility`` on all three
  layouts, low and high gain, plus ``fringe`` on the attenuated and
  three-source layouts, whose heralded column is nan).  No moment-engine or
  oracle call happens; the CSV and SVG writers take a visible share.
* ``scan-herald`` -- ``scan-snr`` (engine-backed ``snr_herald_general``) and
  ``fringe`` on the two-source layout with a non-ideal detector (engine-backed
  heralded column).  Time goes to the moment engine; the oracle is never run.
* ``verify`` -- the truncated-Fock oracle on grids drawn from its whole
  documented envelope (V <= 0.3, N_B in {0} or (0, 1], cutoff 12-14,
  2k-10k samples).  Thermal networks pay Monte-Carlo preparation, vacuum
  networks only gate builds and applies.  Points near the envelope's edge
  can trip the truncation guards (exit 4); they are kept and counted as
  failed commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

WORKLOADS = ("scan-closed", "scan-herald", "verify")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand plus the config keys it is given."""

    index: int
    subcommand: str
    keys: dict = field(hash=False)

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.keys.items())


def _num(x: float) -> float:
    """Round to 6 significant digits so the config text is short and exact."""
    return float(f"{x:.6g}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _gain(rng: np.random.Generator, regime: str) -> float:
    if regime == "low":
        return _num(rng.uniform(0.01, 0.3))
    return _num(10.0 ** rng.uniform(0.0, 2.0))


def _backgrounds(rng: np.random.Generator, count: int) -> list[float]:
    """Distinct background occupations in [0, 100]; the first may be 0."""
    values: list[float] = [0.0] if rng.random() < 0.4 else []
    while len(values) < count:
        v = _num(10.0 ** rng.uniform(-2.0, 2.0))
        if v not in values:
            values.append(v)
    return values[:count]


def _t_sweep(rng: np.random.Generator, count: int, spacing: str) -> dict:
    if spacing == "log":
        lo = _num(10.0 ** rng.uniform(-4.0, -2.0))
    else:
        lo = _num(rng.uniform(0.0, 0.2)) if rng.random() < 0.5 else 0.0
    hi = _num(rng.uniform(0.6, 1.0)) if rng.random() < 0.5 else 1.0
    return {
        "object.T.min": _fmt(lo),
        "object.T.max": _fmt(hi),
        "object.T.count": str(count),
        "object.T.spacing": spacing,
    }


def _layout_keys(rng: np.random.Generator, kind: str, regime: str) -> dict:
    keys = {
        "topology.kind": kind,
        "gain.V_A": _fmt(_gain(rng, regime)),
        "gain.V_B": _fmt(_gain(rng, regime)),
    }
    if kind == "2spdc-attenuated":
        keys["attenuation"] = _fmt(_num(rng.uniform(0.05, 1.0)))
    return keys


# ---------------------------------------------------------------------------
# Command shapes per cycle.  Sizes spread evenly over a range, so both the
# per-command fixed cost and the per-point cost show and the median command
# falls inside a continuum rather than between two size classes.
# ---------------------------------------------------------------------------

_KINDS = ("2spdc", "2spdc-attenuated", "3spdc")

# scan-visibility: (n_T, n_NB); rows = n_T * n_NB from 5 to 800.
_VIS_SIZES = (
    (5, 1), (10, 1), (20, 1), (40, 1), (25, 2), (50, 2),
    (40, 3), (100, 2), (80, 3), (100, 3), (150, 3), (200, 4),
)
# closed-form fringe: (layout, phase count).
_CLOSED_FRINGES = (("2spdc-attenuated", 16), ("3spdc", 64), ("2spdc-attenuated", 128), ("3spdc", 256))

# scan-snr: (n_T, n_NB); every row costs three engine-backed propagations.
_SNR_SIZES = ((3, 1), (5, 1), (8, 1), (5, 2), (10, 2), (8, 3), (12, 3), (20, 4))
_HERALD_FRINGE_PHASES = (8, 16, 32, 64)

# verify: (cutoff, samples, n_T, backgrounds) with backgrounds one of
# "vacuum" ([0]), "thermal" ([x], 0 < x <= 1) or "both" ([0, x]).
# The first shape is the ROADMAP's thermal preparation reference point.
_VERIFY_SHAPES = (
    (12, 10_000, 2, "thermal"),
    (13, 2_000, 5, "vacuum"),
    (14, 6_000, 3, "both"),
    (12, 4_000, 4, "vacuum"),
    (13, 8_000, 2, "thermal"),
    (14, 2_000, 4, "both"),
)


def _scan_closed_cycle(rng: np.random.Generator) -> list[tuple[str, dict]]:
    out = []
    for k, (n_t, n_nb) in enumerate(_VIS_SIZES):
        kind = _KINDS[k % 3]
        regime = "low" if k % 2 == 0 else "high"
        keys = _layout_keys(rng, kind, regime)
        keys["gain.V_C"] = _fmt(_gain(rng, regime))
        keys.update(_t_sweep(rng, n_t, "log" if k % 4 == 3 else "linear"))
        keys["noise.N_B"] = ", ".join(_fmt(v) for v in _backgrounds(rng, n_nb))
        out.append(("scan-visibility", keys))
    for k, (kind, phases) in enumerate(_CLOSED_FRINGES):
        keys = _layout_keys(rng, kind, "low" if k % 2 == 0 else "high")
        if kind == "3spdc":
            keys["gain.V_C"] = _fmt(_gain(rng, "low" if k % 2 == 0 else "high"))
        keys["object.T"] = _fmt(_num(rng.uniform(0.0, 1.0)))
        keys["noise.N_B"] = _fmt(_backgrounds(rng, 1)[0])
        keys["phase.count"] = str(phases)
        keys["phase.max"] = _fmt(_num(rng.uniform(1.0, 2.0 * math.pi)))
        out.append(("fringe", keys))
    return out


def _scan_herald_cycle(rng: np.random.Generator) -> list[tuple[str, dict]]:
    out = []
    for k, (n_t, n_nb) in enumerate(_SNR_SIZES):
        keys = _layout_keys(rng, "2spdc", "low" if k % 2 == 0 else "high")
        keys.update(_t_sweep(rng, n_t, "log" if k % 3 != 2 else "linear"))
        keys["noise.N_B"] = ", ".join(_fmt(v) for v in _backgrounds(rng, n_nb))
        out.append(("scan-snr", keys))
    for k, phases in enumerate(_HERALD_FRINGE_PHASES):
        keys = _layout_keys(rng, "2spdc", "low" if k % 2 == 0 else "high")
        keys["object.T"] = _fmt(_num(rng.uniform(0.0, 1.0)))
        keys["noise.N_B"] = _fmt(_backgrounds(rng, 1)[0])
        keys["phase.count"] = str(phases)
        keys["detector.eta"] = _fmt(_num(rng.uniform(0.1, 1.0)))
        keys["detector.nu"] = _fmt(_num(rng.uniform(0.0, 1.0)))
        out.append(("fringe", keys))
    return out


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled, so
    every cycle spans the whole range and differs from seed to seed."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return [_num(lo + (hi - lo) * x) for x in u]


def _verify_cycle(rng: np.random.Generator) -> list[tuple[str, dict]]:
    n = len(_VERIFY_SHAPES)
    v_a, v_b = _stratified(rng, n, 0.01, 0.3), _stratified(rng, n, 0.01, 0.3)
    t_lo, t_hi = _stratified(rng, n, 0.0, 0.5), _stratified(rng, n, 0.5, 1.0)
    thermal = _stratified(rng, n, 0.01, 1.0)
    out = []
    for k, (cutoff, samples, n_t, backgrounds) in enumerate(_VERIFY_SHAPES):
        n_b = {"vacuum": [0.0], "thermal": [thermal[k]], "both": [0.0, thermal[k]]}[backgrounds]
        keys = {
            "topology.kind": "2spdc",
            "gain.V_A": _fmt(v_a[k]),
            "gain.V_B": _fmt(v_b[k]),
            "object.T.min": _fmt(t_lo[k]),
            "object.T.max": _fmt(t_hi[k]),
            "object.T.count": str(n_t),
            "noise.N_B": ", ".join(_fmt(v) for v in n_b),
            "oracle.cutoff": str(cutoff),
            "oracle.samples": str(samples),
        }
        out.append(("verify", keys))
    return out


_CYCLES = {
    "scan-closed": _scan_closed_cycle,
    "scan-herald": _scan_herald_cycle,
    "verify": _verify_cycle,
}

# Cycles per traced run: a fixed count, so traced counts repeat exactly.
TRACE_CYCLES = {"scan-closed": 30, "scan-herald": 8, "verify": 1}


def cycles(workload: str, seed: int) -> Iterator[list[Command]]:
    """Endless, seed-determined sequence of command cycles for one workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make_cycle = _CYCLES[workload]
    index = 0
    while True:
        cycle = make_cycle(rng)
        commands = []
        for k in rng.permutation(len(cycle)):
            subcommand, keys = cycle[int(k)]
            if subcommand == "verify":
                # Distinct oracle seed per command: fresh samples and fresh
                # random Wick-residual networks every time.
                keys = dict(keys, **{"oracle.seed": str(seed * 100_003 + index)})
            commands.append(Command(index, subcommand, keys))
            index += 1
        yield commands


# Tiny fixed commands run once before timing, so lazy imports and first-call
# costs inside numpy and scipy are not charged to the first measured command.
WARMUP = {
    "scan-closed": (
        Command(-2, "scan-visibility", {
            "gain.V_A": "0.1", "gain.V_B": "0.1", "gain.V_C": "0.1", "object.T.min": "0.0",
            "object.T.max": "1.0", "object.T.count": "5", "noise.N_B": "0, 1"}),
        Command(-1, "fringe", {
            "topology.kind": "3spdc", "gain.V_A": "0.1", "gain.V_B": "0.1", "gain.V_C": "0.1",
            "object.T": "0.5", "phase.count": "8"}),
    ),
    "scan-herald": (
        Command(-2, "scan-snr", {
            "gain.V_A": "0.1", "gain.V_B": "0.1", "object.T.min": "0.01", "object.T.max": "1.0",
            "object.T.count": "3", "object.T.spacing": "log", "noise.N_B": "0, 1"}),
        Command(-1, "fringe", {
            "gain.V_A": "0.1", "gain.V_B": "0.1", "object.T": "0.5", "noise.N_B": "1",
            "phase.count": "4", "detector.eta": "0.5", "detector.nu": "0.1"}),
    ),
    "verify": (
        Command(-1, "verify", {
            "gain.V_A": "0.05", "gain.V_B": "0.05", "object.T.min": "0.0", "object.T.max": "1.0",
            "object.T.count": "2", "noise.N_B": "0, 0.2", "oracle.cutoff": "8",
            "oracle.samples": "100", "oracle.seed": "1"}),
    ),
}
