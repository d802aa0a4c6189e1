"""Command-line front end: fringe scans, visibility/SNR sweeps, verification.

    icl fringe|scan-visibility|scan-snr|verify --config <file> --out <dir> [--seed N]

Configs are flat key-value files (see `config`); bundled presets such as
``fig2.cfg`` .. ``fig5.cfg`` and ``verify.cfg`` resolve by bare name when no
matching file exists on disk.  CSV output is deterministic: one header row,
12-significant-digit numbers, LF endings, rows ordered with N_B outermost,
then T, then phase.

Exit codes: 0 success, 2 config error (including a network outside the
oracle's envelope), 3 verification failure, 4 the oracle's memory guard or
a norm leak in its kernels.  Truncation never refuses a check: each oracle
number carries its truncation error bar.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import closed_forms, heralding, interferometer, svgplot, verify
from .config import ConfigError, RunConfig, load_run_config
from .fock import OracleEnvelopeError, ResourceLimitError, TruncationError
from .interferometer import TopologyKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4

# Grid points per scan-snr or two-source fringe command that the moment
# engine re-derives, as a live check of the closed-form heralded column.
ENGINE_SAMPLE = 8


def resolve_config_path(name: str) -> Path:
    path = Path(name)
    if path.is_file():
        return path
    candidate = resources.files("icl").joinpath("presets", name)
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(f"config file not found: {name}")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def cmd_fringe(cfg: RunConfig, out_dir: Path) -> int:
    if not isinstance(cfg.transmittance, float):
        raise ConfigError("object.T: fringe needs a scalar")
    if len(cfg.n_b_values) != 1:
        raise ConfigError("noise.N_B: fringe needs a single value")
    T, n_b = cfg.transmittance, cfg.n_b_values[0]
    v_c = cfg.v_c if cfg.kind is TopologyKind.THREE_SPDC else None
    detector = heralding.DetectorModel(cfg.eta, cfg.nu)

    phis = cfg.phase_values()
    n_plus, n_minus = closed_forms.singles(
        cfg.v_a, cfg.v_b, T, n_b, phis, v_c=v_c, kappa=cfg.attenuation
    )
    if cfg.kind is TopologyKind.TWO_SPDC:
        heralded = closed_forms.heralded_signal_mean(cfg.v_a, cfg.v_b, T, phis, cfg.eta, cfg.nu)
        sample = engine_sample(len(phis))
        topo = interferometer.two_spdc(cfg.v_a, cfg.v_b, T, n_b)
        engine = heralding.mode_matched_conditional_means(
            [topo] * len(sample), phis[sample], detector
        )
        interferometer.check_closed_forms("sampled heralded means", (heralded[sample],), (engine,))
    else:
        heralded = np.full(len(phis), np.nan)
    table = {"phi": phis, "n_plus": n_plus, "n_minus": n_minus, "n_plus_heralded": heralded}
    _write_table(out_dir / "fringe.csv", table)
    return EXIT_OK


def engine_sample(count: int) -> np.ndarray:
    """Indices of at most ENGINE_SAMPLE evenly strided points of a grid of
    ``count`` points, the first and the last included."""
    k = min(count, ENGINE_SAMPLE)
    return np.arange(k) * (count - 1) // max(k - 1, 1)


def _write_table(path: Path, table: dict) -> dict[str, list[float]]:
    """Write named columns as CSV rows; return them as lists of floats."""
    table = {name: np.asarray(column, dtype=float).tolist() for name, column in table.items()}
    write_csv(path, list(table), list(zip(*table.values())))
    return table


def _scan_grid(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, dict[float, slice]]:
    """Flat T and N_B arrays in CSV row order, and the rows of each N_B."""
    n_b, T = np.meshgrid(cfg.n_b_values, cfg.transmittance_values(), indexing="ij")
    count = T.shape[1]
    blocks = {float(v): slice(k * count, (k + 1) * count) for k, v in enumerate(cfg.n_b_values)}
    return T.ravel(), n_b.ravel(), blocks


def cmd_scan_visibility(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.v_c is None:
        raise ConfigError("gain.V_C: scan-visibility needs it for the three-source column")
    T, n_b, blocks = _scan_grid(cfg)
    v_a, v_b = cfg.v_a, cfg.v_b
    table = {
        "T": T,
        "N_B": n_b,
        "vis_2spdc": [f.visibility for f in interferometer.fringes(v_a, v_b, T, n_b)],
        "vis_3spdc": [f.visibility for f in interferometer.fringes(v_a, v_b, T, n_b, v_c=cfg.v_c)],
        "vis_atten_opt": closed_forms.optimal_attenuated_visibility(v_a, T, n_b),
        "vis_heralded": closed_forms.heralded_visibility_pair_limit(v_a, v_b, T),
        "g1_bound": closed_forms.coherence_bound(v_a, T, n_b),
    }
    table = _write_table(out_dir / "scan_visibility.csv", table)

    for n_b, rows in blocks.items():
        ts = table["T"][rows]
        series = [
            svgplot.Series("two-source", ts, table["vis_2spdc"][rows]),
            svgplot.Series("three-source", ts, table["vis_3spdc"][rows]),
            svgplot.Series("optimal attenuation", ts, table["vis_atten_opt"][rows]),
            svgplot.Series("heralded (pair)", ts, table["vis_heralded"][rows]),
            svgplot.Series("coherence bound", ts, table["g1_bound"][rows]),
        ]
        svgplot.line_plot(
            out_dir / f"scan_visibility_nb{_fmt(n_b)}.svg",
            series,
            x_label="idler transmittance T",
            y_label="visibility",
            title=f"visibility vs T (N_B = {_fmt(n_b)})",
        )
    return EXIT_OK


def cmd_scan_snr(cfg: RunConfig, out_dir: Path) -> int:
    """Unconditional and heralded difference SNRs over the N_B x T grid.

    Every column is a closed form over the whole grid.  The moment engine
    re-derives ``snr_herald_general`` at the ``engine_sample`` points, from
    its own fitted heralded fringes, and must agree to 1e-10."""
    T, n_b, blocks = _scan_grid(cfg)
    v_a, v_b = cfg.v_a, cfg.v_b
    general = closed_forms.snr_heralded_general(v_a, v_b, T, 0.0)
    sample = engine_sample(T.size)
    points = zip(T[sample].tolist(), n_b[sample].tolist())
    fitted = heralding.heralded_fringes_mode_matched(
        [interferometer.two_spdc(v_a, v_b, t, nb) for t, nb in points]
    )
    engine = [
        np.nan if fr is None else closed_forms.fringe_snr(fr.dc, fr.amplitude, 0.0)
        for fr in fitted
    ]
    interferometer.check_closed_forms("sampled heralded SNRs", (general[sample],), (engine,))
    table = {
        "T": T,
        "N_B": n_b,
        "snr_uncond": closed_forms.snr_unconditional(v_a, v_b, T, n_b, 0.0),
        "snr_herald_pair": closed_forms.snr_unconditional(v_a, v_b, T, 0.0, 0.0),
        "snr_herald_general": general,
    }
    table = _write_table(out_dir / "scan_snr.csv", table)

    series = [
        svgplot.Series(f"uncond N_B={_fmt(n_b)}", table["T"][rows], table["snr_uncond"][rows])
        for n_b, rows in blocks.items()
    ]
    first = next(iter(blocks.values()))
    pair = svgplot.Series("heralded pair", table["T"][first], table["snr_herald_pair"][first])
    svgplot.line_plot(
        out_dir / "scan_snr.svg",
        [*series, pair],
        x_label="idler transmittance T",
        y_label="difference SNR",
        x_scale="log",
        y_scale="log",
        title="difference SNR vs T",
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    results = verify.run_default_suite(cfg)
    report = verify.format_report(results)
    (out_dir / "verify_report.txt").write_text(report, encoding="utf-8", newline="\n")
    sys.stdout.write(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


_COMMANDS = {
    "fringe": cmd_fringe,
    "scan-visibility": cmd_scan_visibility,
    "scan-snr": cmd_scan_snr,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icl", description="induced-coherence interferometry scans"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", help="output directory (overrides output.dir)")
        cmd.add_argument("--seed", type=int, help="override oracle.seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(resolve_config_path(args.config))
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out_name = args.out or cfg.out_dir
        if out_name is None:
            raise ConfigError("no output directory: pass --out or set output.dir")
        out_dir = Path(out_name)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, OracleEnvelopeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, TruncationError) as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
