"""The bundled scan presets reproduce the committed golden CSVs and SVGs.

``tests/golden`` holds the output of ``scripts/run_figures.py --seed 7``
for ``fig2``-``fig5`` and ``fringe.cfg``, each file named
``<preset>_<output>``.  Each preset is rerun through the CLI and must give
the same header, the same rows in the same order, and every cell within
1e-12 relative of the golden cell, so the README's CSV contract holds
across versions.  The SVG plots must come out byte for byte the same.
"""

import math
from pathlib import Path

import pytest

from icl import cli

GOLDEN = Path(__file__).parent / "golden"

RUNS = (
    ("scan-visibility", "fig2.cfg", "scan_visibility.csv", "fig2_scan_visibility.csv"),
    ("scan-visibility", "fig3.cfg", "scan_visibility.csv", "fig3_scan_visibility.csv"),
    ("scan-visibility", "fig4.cfg", "scan_visibility.csv", "fig4_scan_visibility.csv"),
    ("scan-snr", "fig5.cfg", "scan_snr.csv", "fig5_scan_snr.csv"),
    ("fringe", "fringe.cfg", "fringe.csv", "fringe_fringe.csv"),
)


def same_cell(got: str, expected: str) -> bool:
    a, b = float(got), float(expected)
    if math.isnan(b):
        return math.isnan(a)
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("command, preset, output, golden", RUNS, ids=[r[1] for r in RUNS])
def test_preset_matches_golden_csv(tmp_path, command, preset, output, golden):
    argv = [command, "--config", preset, "--out", str(tmp_path), "--seed", "7"]
    assert cli.main(argv) == 0
    got = (tmp_path / output).read_text(encoding="utf-8").splitlines()
    expected = (GOLDEN / golden).read_text(encoding="utf-8").splitlines()
    assert got[0] == expected[0]
    assert len(got) == len(expected)
    for line, (row, golden_row) in enumerate(zip(got[1:], expected[1:]), start=2):
        cells, golden_cells = row.split(","), golden_row.split(",")
        assert len(cells) == len(golden_cells), f"line {line}"
        for column, got_cell, golden_cell in zip(expected[0].split(","), cells, golden_cells):
            assert same_cell(got_cell, golden_cell), (
                f"line {line}, column {column}: {got_cell} != {golden_cell}"
            )


SVG_RUNS = tuple(
    (command, preset, svg.name)
    for command, preset, _, golden in RUNS
    for svg in sorted(GOLDEN.glob(golden.split("_")[0] + "_*.svg"))
)


def test_every_preset_plot_has_a_golden_svg():
    names = {name for _, _, name in SVG_RUNS}
    assert names == {
        "fig2_scan_visibility_nb0.svg",
        "fig2_scan_visibility_nb10.svg",
        "fig2_scan_visibility_nb100.svg",
        "fig3_scan_visibility_nb0.svg",
        "fig3_scan_visibility_nb10.svg",
        "fig3_scan_visibility_nb100.svg",
        "fig4_scan_visibility_nb10.svg",
        "fig5_scan_snr.svg",
    }


@pytest.mark.parametrize("command, preset, golden", SVG_RUNS, ids=[r[2] for r in SVG_RUNS])
def test_preset_matches_golden_svg(tmp_path, command, preset, golden):
    argv = [command, "--config", preset, "--out", str(tmp_path), "--seed", "7"]
    assert cli.main(argv) == 0
    output = golden.split("_", 1)[1]
    assert (tmp_path / output).read_bytes() == (GOLDEN / golden).read_bytes()
