"""Output checks against reference formulas kept here, independent of icl.

Each checker reads one command's output directory and returns a
``Checked`` record: how many result items it holds (CSV rows, or oracle
checks for ``verify``), how many of those checks passed, the output digest
and the output sizes.  The first problem found raises ``OutputMismatch``.
Numbers must match the reference to 1e-9 relative; grids must match the
README contract (single header row, LF endings, N_B outermost, then T,
then phase).
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_FLOOR = 1e-15
GRID_REL_TOL = 1e-11  # grid coordinates are printed with 12 significant digits


class OutputMismatch(ValueError):
    """A command's output disagrees with the reference."""


@dataclass
class Checked:
    items: int = 0
    checks_passed: int = 0
    output_sha256: str = ""  # of the CSV, or of the verify report
    csv_bytes: int = 0
    svg_bytes: int = 0


# ---------------------------------------------------------------------------
# Reference closed forms (plain Python floats).
# ---------------------------------------------------------------------------


def arm_intensities(kind: str, v_a, v_b, v_c, kappa, T, n_b) -> tuple[float, float, float]:
    """(<N_1>, <N_2>, |<a_1^dag a_2>|) of the two signal arms before the splitter."""
    n2 = v_b * (1.0 + T * v_a + (1.0 - T) * n_b)
    coh = math.sqrt(T * (1.0 + v_a) * v_a * v_b)
    if kind == "2spdc":
        return v_a, n2, coh
    if kind == "2spdc-attenuated":
        return v_a, kappa * n2, math.sqrt(kappa) * coh
    return (1.0 + v_c) * v_a + v_c, n2, math.sqrt(1.0 + v_c) * coh


def singles(kind, v_a, v_b, v_c, kappa, T, n_b, phi) -> tuple[float, float]:
    n1, n2, coh = arm_intensities(kind, v_a, v_b, v_c, kappa, T, n_b)
    cross = 2.0 * coh * math.cos(2.0 * phi)
    return 0.5 * (n1 + n2 + cross), 0.5 * (n1 + n2 - cross)


def visibility(kind, v_a, v_b, v_c, kappa, T, n_b) -> float:
    n1, n2, coh = arm_intensities(kind, v_a, v_b, v_c, kappa, T, n_b)
    dc = 0.5 * (n1 + n2)
    return coh / dc if dc > 0.0 else 0.0


def g1_bound(v_a, T, n_b) -> float:
    return math.sqrt(T * (1.0 + v_a) / (1.0 + T * v_a + (1.0 - T) * n_b))


def pair_denominator(v_a, v_b, T) -> float:
    return v_a + v_b + T * v_a * v_b


def heralded_visibility_pair(v_a, v_b, T) -> float:
    denom = pair_denominator(v_a, v_b, T)
    return 0.0 if denom <= 0.0 else 2.0 * math.sqrt(T * (1.0 + v_a) * v_a * v_b) / denom


def snr_unconditional(v_a, v_b, T, n_b) -> float:
    denom = v_a + v_b + T * v_a * v_b + (1.0 - T) * n_b * v_b
    return 0.0 if denom <= 0.0 else 4.0 * T * (1.0 + v_a) * v_a * v_b / denom


def snr_heralded_pair(v_a, v_b, T) -> float:
    """The pair-limit heralded SNR: the unconditional one without background."""
    return snr_unconditional(v_a, v_b, T, 0.0)


def herald_rate(v_a, v_b, T) -> float:
    """Mode-matched herald mean <n_I>; independent of the background."""
    return (1.0 + v_b) * T * v_a + v_b


def heralded_dc_amplitude(v_a, v_b, T) -> tuple[float, float]:
    """dc and amplitude of the mode-matched conditional signal fringe."""
    u_a, u_b = 1.0 + v_a, 1.0 + v_b
    n_i = herald_rate(v_a, v_b, T)
    dc = 0.5 * pair_denominator(v_a, v_b, T) + 0.5 * u_b / n_i * (
        v_b * (T * u_a) ** 2 + T * u_a * v_a
    )
    amp = math.sqrt(T * u_a * v_a * v_b) * (1.0 + u_b * T * u_a / n_i)
    return dc, amp


def snr_heralded_general(v_a, v_b, T) -> float:
    dc, amp = heralded_dc_amplitude(v_a, v_b, T)
    return 0.0 if dc <= 0.0 else 2.0 * amp**2 / dc


def heralded_conditional_mean(v_a, v_b, T, phi, eta, nu) -> float:
    """Detector-degraded conditional "+" mean of the mode-matched fringe."""
    u_a, u_b = 1.0 + v_a, 1.0 + v_b
    root = math.sqrt(T * u_a * v_a * v_b)
    cos2 = math.cos(2.0 * phi)
    n_i = herald_rate(v_a, v_b, T)
    n_s = 0.5 * pair_denominator(v_a, v_b, T) + root * cos2
    corr_sq = 0.5 * u_b * T * u_a * (T * u_a * v_b + v_a + 2.0 * root * cos2)
    return n_s + eta * corr_sq / (eta * n_i + nu)


# ---------------------------------------------------------------------------
# Config helpers (the same keys the benchmark wrote).
# ---------------------------------------------------------------------------


def _f(keys: dict, name: str, default: float | None = None) -> float | None:
    return float(keys[name]) if name in keys else default


def t_grid(keys: dict) -> np.ndarray:
    if "object.T" in keys:
        return np.array([float(keys["object.T"])])
    lo, hi, count = float(keys["object.T.min"]), float(keys["object.T.max"]), int(keys["object.T.count"])
    if keys.get("object.T.spacing", "linear") == "log":
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


def n_b_list(keys: dict) -> list[float]:
    return [float(p) for p in keys.get("noise.N_B", "0").split(",")]


def phase_grid(keys: dict) -> np.ndarray:
    return np.linspace(
        _f(keys, "phase.min", 0.0), _f(keys, "phase.max", math.pi), int(keys.get("phase.count", 64))
    )


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _close(got: float, ref: float, rel: float = REL_TOL) -> bool:
    return abs(got - ref) <= rel * abs(ref) + ABS_FLOOR


def _expect(got: float, ref: float, what: str, rel: float = REL_TOL) -> None:
    if not _close(got, ref, rel):
        raise OutputMismatch(f"{what}: got {got!r}, reference {ref!r}")


def _read_csv(path: Path, header: list[str], n_rows: int, result: Checked) -> list[list[float]]:
    if not path.is_file():
        raise OutputMismatch(f"missing {path.name}")
    raw = path.read_bytes()
    result.output_sha256 = hashlib.sha256(raw).hexdigest()
    result.csv_bytes = len(raw)
    text = raw.decode("utf-8")
    if "\r" in text or not text.endswith("\n"):
        raise OutputMismatch(f"{path.name}: line endings are not LF-terminated")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(header):
        raise OutputMismatch(f"{path.name}: header {lines[0]!r}")
    if len(lines) - 1 != n_rows:
        raise OutputMismatch(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise OutputMismatch(f"{path.name}: ragged rows")
    result.items = n_rows
    return rows


def _check_svgs(out_dir: Path, expected: int, result: Checked) -> None:
    svgs = sorted(out_dir.glob("*.svg"))
    if len(svgs) != expected:
        raise OutputMismatch(f"{len(svgs)} SVG files, expected {expected}")
    for svg in svgs:
        text = svg.read_text(encoding="utf-8")
        if not (text.startswith("<svg ") and text.endswith("</svg>\n")):
            raise OutputMismatch(f"{svg.name}: not a complete SVG document")
        result.svg_bytes += len(text.encode("utf-8"))


def _scan_grid(keys: dict) -> list[tuple[float, float]]:
    """(N_B, T) pairs in README row order: N_B outermost, then T (also the
    order of the verify suite's grid networks)."""
    return [(n_b, float(T)) for n_b in n_b_list(keys) for T in t_grid(keys)]


# ---------------------------------------------------------------------------
# Per-subcommand checkers
# ---------------------------------------------------------------------------


def check_scan_visibility(keys: dict, out_dir: Path) -> Checked:
    result = Checked()
    grid = _scan_grid(keys)
    header = ["T", "N_B", "vis_2spdc", "vis_3spdc", "vis_atten_opt", "vis_heralded", "g1_bound"]
    rows = _read_csv(out_dir / "scan_visibility.csv", header, len(grid), result)
    v_a, v_b, v_c = float(keys["gain.V_A"]), float(keys["gain.V_B"]), float(keys["gain.V_C"])
    for row, (n_b, T) in zip(rows, grid):
        where = f"scan_visibility T={T!r} N_B={n_b!r}"
        _expect(row[0], T, f"{where} T", GRID_REL_TOL)
        _expect(row[1], n_b, f"{where} N_B", GRID_REL_TOL)
        bound = g1_bound(v_a, T, n_b)
        _expect(row[2], visibility("2spdc", v_a, v_b, None, None, T, n_b), f"{where} vis_2spdc")
        _expect(row[3], visibility("3spdc", v_a, v_b, v_c, None, T, n_b), f"{where} vis_3spdc")
        _expect(row[4], bound, f"{where} vis_atten_opt")
        _expect(row[5], heralded_visibility_pair(v_a, v_b, T), f"{where} vis_heralded")
        _expect(row[6], bound, f"{where} g1_bound")
    _check_svgs(out_dir, len(n_b_list(keys)), result)
    return result


def check_scan_snr(keys: dict, out_dir: Path) -> Checked:
    result = Checked()
    grid = _scan_grid(keys)
    header = ["T", "N_B", "snr_uncond", "snr_herald_pair", "snr_herald_general"]
    rows = _read_csv(out_dir / "scan_snr.csv", header, len(grid), result)
    v_a, v_b = float(keys["gain.V_A"]), float(keys["gain.V_B"])
    for row, (n_b, T) in zip(rows, grid):
        where = f"scan_snr T={T!r} N_B={n_b!r}"
        _expect(row[0], T, f"{where} T", GRID_REL_TOL)
        _expect(row[1], n_b, f"{where} N_B", GRID_REL_TOL)
        _expect(row[2], snr_unconditional(v_a, v_b, T, n_b), f"{where} snr_uncond")
        _expect(row[3], snr_heralded_pair(v_a, v_b, T), f"{where} snr_herald_pair")
        _expect(row[4], snr_heralded_general(v_a, v_b, T), f"{where} snr_herald_general")
    _check_svgs(out_dir, 1, result)
    return result


def check_fringe(keys: dict, out_dir: Path) -> Checked:
    result = Checked()
    phis = phase_grid(keys)
    header = ["phi", "n_plus", "n_minus", "n_plus_heralded"]
    rows = _read_csv(out_dir / "fringe.csv", header, len(phis), result)
    kind = keys.get("topology.kind", "2spdc")
    v_a, v_b = float(keys["gain.V_A"]), float(keys["gain.V_B"])
    v_c, kappa = _f(keys, "gain.V_C"), _f(keys, "attenuation")
    T, n_b = float(keys["object.T"]), n_b_list(keys)[0]
    eta, nu = _f(keys, "detector.eta", 1.0), _f(keys, "detector.nu", 0.0)
    for row, phi in zip(rows, phis):
        phi = float(phi)
        where = f"fringe phi={phi!r}"
        _expect(row[0], phi, f"{where} phi", GRID_REL_TOL)
        n_plus, n_minus = singles(kind, v_a, v_b, v_c, kappa, T, n_b, phi)
        _expect(row[1], n_plus, f"{where} n_plus")
        _expect(row[2], n_minus, f"{where} n_minus")
        if kind == "2spdc":
            ref = heralded_conditional_mean(v_a, v_b, T, phi, eta, nu)
            _expect(row[3], ref, f"{where} n_plus_heralded")
        elif not math.isnan(row[3]):
            raise OutputMismatch(f"{where}: heralded column {row[3]!r} should be nan")
    if list(out_dir.glob("*.svg")):
        raise OutputMismatch("fringe wrote an SVG")
    return result


_REPORT_LINE = re.compile(
    r"(PASS|FAIL)  (.+): expected=(\S+) got=(\S+) tol=(\d\.\d{3}e[+-]\d{2})"
)
_GRID_NAMES = ("n_plus", "n_minus", "n_idler", "normal_idler_plus", "anomalous_idler_plus",
               "conditional_mean", "wick_residual")
VERIFY_PHI = 0.7          # phase of the grid networks in the default suite
VERIFY_RANDOM_NETWORKS = 5


def check_verify(keys: dict, out_dir: Path, stdout: str, exit_code: int) -> Checked:
    """Report format, per-grid-point check names, reference singles and idler
    means, and the ``n/m checks passed`` tally against the exit code."""
    result = Checked()
    path = out_dir / "verify_report.txt"
    if not path.is_file():
        raise OutputMismatch("missing verify_report.txt")
    raw = path.read_bytes()
    result.output_sha256 = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    if stdout != text:
        raise OutputMismatch("stdout differs from verify_report.txt")
    lines = text.rstrip("\n").split("\n")
    if lines[:2] != ["oracle verification report", "=" * 26]:
        raise OutputMismatch("verify report header")
    parsed = [_REPORT_LINE.fullmatch(line) for line in lines[2:-1]]
    if not all(parsed):
        bad = next(line for line, m in zip(lines[2:-1], parsed) if not m)
        raise OutputMismatch(f"malformed report line {bad!r}")
    grid = _scan_grid(keys)
    expected_checks = len(_GRID_NAMES) * len(grid) + VERIFY_RANDOM_NETWORKS
    if len(parsed) != expected_checks:
        raise OutputMismatch(f"{len(parsed)} checks, expected {expected_checks}")
    passed = sum(m.group(1) == "PASS" for m in parsed)
    if lines[-1] != f"{passed}/{len(parsed)} checks passed":
        raise OutputMismatch(f"tally {lines[-1]!r} disagrees with {passed}/{len(parsed)} PASS lines")
    if exit_code != (0 if passed == len(parsed) else 3):
        raise OutputMismatch(f"exit code {exit_code} with {passed}/{len(parsed)} passed")

    v_a, v_b = float(keys["gain.V_A"]), float(keys["gain.V_B"])
    for g, (n_b, T) in enumerate(grid):
        block = parsed[g * len(_GRID_NAMES):(g + 1) * len(_GRID_NAMES)]
        n_plus, n_minus = singles("2spdc", v_a, v_b, None, None, T, n_b, VERIFY_PHI)
        n_idler = (1.0 + v_b) * (T * v_a + (1.0 - T) * n_b) + v_b
        refs = {"n_plus": n_plus, "n_minus": n_minus, "n_idler": n_idler}
        for name, m in zip(_GRID_NAMES, block):
            if not m.group(2).startswith(name + " ["):
                raise OutputMismatch(f"check {m.group(2)!r} out of order, expected {name}")
            if name in refs:
                # Report values carry 10 significant digits.
                _expect(float(m.group(3)), refs[name], f"verify {m.group(2)}", 1e-9)
    result.items = len(parsed)
    result.checks_passed = passed
    return result


def check_command(subcommand: str, keys: dict, out_dir: Path, stdout: str, exit_code: int) -> Checked:
    """Check one command that exited with a code its subcommand allows."""
    if subcommand == "verify":
        return check_verify(keys, out_dir, stdout, exit_code)
    if subcommand == "scan-visibility":
        return check_scan_visibility(keys, out_dir)
    if subcommand == "scan-snr":
        return check_scan_snr(keys, out_dir)
    return check_fringe(keys, out_dir)
