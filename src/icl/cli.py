"""Command-line front end: fringe scans, visibility/SNR sweeps, verification.

    icl fringe|scan-visibility|scan-snr|verify --config <file> --out <dir> [--seed N]

Configs are flat key-value files (see `config`); bundled presets such as
``fig2.cfg`` .. ``fig5.cfg`` and ``verify.cfg`` resolve by bare name when no
matching file exists on disk.  CSV output is deterministic: one header row,
12-significant-digit numbers, LF endings, rows ordered with N_B outermost,
then T, then phase.

Exit codes: 0 success, 2 config error, 3 verification failure, 4 resource
or truncation guard.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import heralding, interferometer, metrics, svgplot, verify
from .config import ConfigError, RunConfig, load_run_config
from .fock import ResourceLimitError, TruncationError
from .interferometer import Topology, TopologyKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4


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


def _topology(cfg: RunConfig, T: float, n_b: float) -> Topology:
    if cfg.kind is TopologyKind.TWO_SPDC:
        return interferometer.two_spdc(cfg.v_a, cfg.v_b, T, n_b)
    if cfg.kind is TopologyKind.TWO_SPDC_ATTENUATED:
        return interferometer.two_spdc_attenuated(cfg.v_a, cfg.v_b, T, n_b, cfg.attenuation)
    return interferometer.three_spdc(cfg.v_a, cfg.v_b, cfg.v_c, T, n_b)


def cmd_fringe(cfg: RunConfig, out_dir: Path) -> int:
    if not isinstance(cfg.transmittance, float):
        raise ConfigError("fringe needs a scalar object.T")
    if len(cfg.n_b_values) != 1:
        raise ConfigError("fringe needs a single noise.N_B value")
    T = cfg.transmittance
    n_b = cfg.n_b_values[0]
    topo = _topology(cfg, T, n_b)
    detector = heralding.DetectorModel(cfg.eta, cfg.nu)
    heralded_ok = cfg.kind is TopologyKind.TWO_SPDC

    phis = [float(phi) for phi in cfg.phase_values()]
    if heralded_ok:
        heralded = heralding.mode_matched_conditional_means([topo] * len(phis), phis, detector)
    else:
        heralded = [float("nan")] * len(phis)
    rows = [
        [phi, *interferometer.singles_fringe_analytic(topo, phi), float(conditional)]
        for phi, conditional in zip(phis, heralded)
    ]
    write_csv(out_dir / "fringe.csv", ["phi", "n_plus", "n_minus", "n_plus_heralded"], rows)
    return EXIT_OK


def cmd_scan_visibility(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.v_c is None:
        raise ConfigError("scan-visibility needs gain.V_C for the three-source column")
    header = ["T", "N_B", "vis_2spdc", "vis_3spdc", "vis_atten_opt", "vis_heralded", "g1_bound"]
    rows = []
    per_background: dict[float, list[list[float]]] = {}
    for n_b in cfg.n_b_values:
        block = []
        for T in cfg.transmittance_values():
            T = float(T)
            vis2 = metrics.visibility(interferometer.two_spdc(cfg.v_a, cfg.v_b, T, n_b))
            vis3 = metrics.visibility(
                interferometer.three_spdc(cfg.v_a, cfg.v_b, cfg.v_c, T, n_b)
            )
            atten = metrics.optimal_attenuated_visibility(T, cfg.v_a, n_b)
            heralded = heralding.heralded_visibility_pair_limit(
                interferometer.two_spdc(cfg.v_a, cfg.v_b, T, n_b)
            )
            bound = interferometer.g1_coherence(interferometer.two_spdc(cfg.v_a, cfg.v_b, T, n_b))
            row = [T, float(n_b), vis2, vis3, atten, heralded, bound]
            rows.append(row)
            block.append(row)
        per_background[float(n_b)] = block
    write_csv(out_dir / "scan_visibility.csv", header, rows)

    for n_b, block in per_background.items():
        ts = [r[0] for r in block]
        series = [
            svgplot.Series("two-source", ts, [r[2] for r in block]),
            svgplot.Series("three-source", ts, [r[3] for r in block]),
            svgplot.Series("optimal attenuation", ts, [r[4] for r in block]),
            svgplot.Series("heralded (pair)", ts, [r[5] for r in block]),
            svgplot.Series("coherence bound", ts, [r[6] for r in block]),
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
    header = ["T", "N_B", "snr_uncond", "snr_herald_pair", "snr_herald_general"]
    t_values = [float(T) for T in cfg.transmittance_values()]
    grid = [(T, float(n_b)) for n_b in cfg.n_b_values for T in t_values]
    topos = [interferometer.two_spdc(cfg.v_a, cfg.v_b, T, n_b) for T, n_b in grid]
    general = metrics.snr_heralded_general_grid(topos, 0.0)
    rows = [
        [
            T,
            n_b,
            metrics.snr_unconditional(topo, 0.0).value,
            metrics.snr_heralded(topo, 0.0, "pair").value,
            herald_general,
        ]
        for (T, n_b), topo, herald_general in zip(grid, topos, general)
    ]
    count = len(t_values)
    per_background = {
        float(n_b): rows[k * count : (k + 1) * count] for k, n_b in enumerate(cfg.n_b_values)
    }
    write_csv(out_dir / "scan_snr.csv", header, rows)

    series = []
    for n_b, block in per_background.items():
        series.append(
            svgplot.Series(f"uncond N_B={_fmt(n_b)}", [r[0] for r in block], [r[2] for r in block])
        )
    first = next(iter(per_background.values()))
    series.append(
        svgplot.Series("heralded pair", [r[0] for r in first], [r[3] for r in first])
    )
    svgplot.line_plot(
        out_dir / "scan_snr.svg",
        series,
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
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, TruncationError) as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
