"""Config parsing and command-line behavior, including determinism and the
exit-code contract."""

import math

import numpy as np
import pytest

from icl import cli, closed_forms
from icl.config import ConfigError, load_run_config, parse_config_text, run_config_from_mapping
from icl.interferometer import TopologyKind

N_PLUS_REF = 0.42666198487095663

FRINGE_CFG = """
topology.kind = 2spdc
gain.V_A = 0.1
gain.V_B = 0.1
object.T = 0.5
noise.N_B = 10
phase.count = 16
"""

SCAN_CFG = """
topology.kind = 2spdc
gain.V_A = 0.1
gain.V_B = 0.1
gain.V_C = 0.1
object.T.min = 0.05
object.T.max = 1.0
object.T.count = 8
noise.N_B = 0, 10
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_comments_and_whitespace(self):
        mapping = parse_config_text("# header\n  a.b = 1  # trailing\n\nc = x\n")
        assert mapping == {"a.b": "1", "c": "x"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            run_config_from_mapping({"gain.V_A": "1", "gain.V_B": "1", "object.T": "0.5", "zzz": "1"})

    def test_full_round_trip(self, tmp_path):
        cfg = load_run_config(write_cfg(tmp_path, SCAN_CFG))
        assert cfg.kind is TopologyKind.TWO_SPDC
        assert cfg.n_b_values == (0.0, 10.0)
        values = cfg.transmittance_values()
        assert len(values) == 8
        assert values[0] == pytest.approx(0.05)

    def test_sweep_validation(self):
        base = {"gain.V_A": "1", "gain.V_B": "1"}
        with pytest.raises(ConfigError, match="min"):
            run_config_from_mapping(
                base | {"object.T.min": "0.9", "object.T.max": "0.1", "object.T.count": "5"}
            )
        with pytest.raises(ConfigError, match="count"):
            run_config_from_mapping(
                base | {"object.T.min": "0.1", "object.T.max": "0.9", "object.T.count": "1"}
            )
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            run_config_from_mapping(base | {"object.T": "1.5"})

    def test_three_source_needs_gain(self):
        with pytest.raises(ConfigError, match="V_C"):
            run_config_from_mapping(
                {"topology.kind": "3spdc", "gain.V_A": "1", "gain.V_B": "1", "object.T": "0.5"}
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise.N_B", "nan"),
            ("noise.N_B", "0, inf"),
            ("gain.V_A", "inf"),
            ("object.T", "nan"),
            ("phase.max", "-inf"),
            ("detector.nu", "inf"),
            ("verify.tolerance_scale", "nan"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, key, value):
        mapping = parse_config_text(FRINGE_CFG) | {key: value}
        with pytest.raises(ConfigError, match="finite"):
            run_config_from_mapping(mapping)
        cfg = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in mapping.items()))
        assert cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_subnormal_numbers_rejected(self):
        mapping = parse_config_text(FRINGE_CFG)
        subnormal = {"gain.V_A": "1e-310", "object.T": "5e-324", "noise.N_B": "0, 1e-320"}
        for key, value in subnormal.items():
            with pytest.raises(ConfigError, match="subnormal"):
                run_config_from_mapping(mapping | {key: value})
        sweep = {"object.T.min": "0", "object.T.max": "4e-308", "object.T.count": "3"}
        with pytest.raises(ConfigError, match="object.T must be 0 or a normal float"):
            run_config_from_mapping({"gain.V_A": "1", "gain.V_B": "1"} | sweep)

    def test_log_sweep_values(self):
        cfg = run_config_from_mapping(
            {
                "gain.V_A": "1",
                "gain.V_B": "1",
                "object.T.min": "1e-4",
                "object.T.max": "1",
                "object.T.count": "5",
                "object.T.spacing": "log",
            }
        )
        assert np.allclose(cfg.transmittance_values(), np.logspace(-4, 0, 5))


class TestFringeCommand:
    def test_reference_row_and_shape(self, tmp_path):
        cfg = write_cfg(tmp_path, FRINGE_CFG)
        assert cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "fringe.csv").read_text().splitlines()
        assert lines[0] == "phi,n_plus,n_minus,n_plus_heralded"
        assert len(lines) == 17  # header + phase.count rows
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1]) - N_PLUS_REF) < 1e-9

    def test_opaque_object_constant_column(self, tmp_path):
        cfg = write_cfg(tmp_path, FRINGE_CFG.replace("object.T = 0.5", "object.T = 0.0"))
        cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")])
        rows = (tmp_path / "out" / "fringe.csv").read_text().splitlines()[1:]
        n_plus = [float(r.split(",")[1]) for r in rows]
        assert max(n_plus) - min(n_plus) < 1e-15

    def test_dark_herald_writes_nan(self, tmp_path):
        text = FRINGE_CFG.replace("gain.V_B = 0.1", "gain.V_B = 0")
        text = text.replace("object.T = 0.5", "object.T = 0")
        cfg = write_cfg(tmp_path, text + "detector.eta = 0.5\ndetector.nu = 0.1\n")
        assert cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "fringe.csv").read_text().splitlines()[1:]
        assert len(rows) == 16
        assert all(r.split(",")[3] == "nan" and math.isfinite(float(r.split(",")[1])) for r in rows)

    def test_sweep_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, SCAN_CFG)
        assert cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_multiple_backgrounds_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, FRINGE_CFG.replace("noise.N_B = 10", "noise.N_B = 0, 10"))
        assert cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestScanVisibilityCommand:
    def test_columns_and_invariants(self, tmp_path):
        cfg = write_cfg(tmp_path, SCAN_CFG)
        out = tmp_path / "out"
        assert cli.main(["scan-visibility", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scan_visibility.csv").read_text().splitlines()
        assert lines[0] == "T,N_B,vis_2spdc,vis_3spdc,vis_atten_opt,vis_heralded,g1_bound"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert data.shape == (16, 7)
        # N_B outer, T inner ordering
        assert np.all(data[:8, 1] == 0.0) and np.all(data[8:, 1] == 10.0)
        assert np.all(np.diff(data[:8, 0]) > 0)
        # bound and equality invariants
        assert np.all(data[:, 2] <= data[:, 6] + 1e-10)
        assert np.allclose(data[:, 4], data[:, 6], atol=1e-12)
        # heralded column repeats across backgrounds
        assert np.allclose(data[:8, 5], data[8:, 5], atol=1e-12)
        for n_b in ("0", "10"):
            assert (out / f"scan_visibility_nb{n_b}.svg").is_file()

    def test_svg_is_polyline_plot(self, tmp_path):
        cfg = write_cfg(tmp_path, SCAN_CFG)
        out = tmp_path / "out"
        cli.main(["scan-visibility", "--config", str(cfg), "--out", str(out)])
        body = (out / "scan_visibility_nb0.svg").read_text()
        assert body.startswith("<svg")
        assert 'viewBox="0 0 800 600"' in body
        assert body.count("<polyline") == 5


    def test_dark_arm_a_exits_0(self, tmp_path):
        cfg = write_cfg(tmp_path, SCAN_CFG.replace("gain.V_A = 0.1", "gain.V_A = 0"))
        out = tmp_path / "out"
        assert cli.main(["scan-visibility", "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "scan_visibility.csv", delimiter=",", skiprows=1)
        assert rows.shape == (16, 7)
        # arm A is dark: no fringe in any column but the coherence bound
        assert np.all(rows[:, 2:6] == 0.0)
        assert np.all(rows[:, 6] > 0.0)


class TestScanSnrCommand:
    def test_columns_and_invariants(self, tmp_path):
        cfg = write_cfg(tmp_path, SCAN_CFG.replace("0, 10", "0, 1, 10"))
        out = tmp_path / "out"
        assert cli.main(["scan-snr", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scan_snr.csv").read_text().splitlines()
        assert lines[0] == "T,N_B,snr_uncond,snr_herald_pair,snr_herald_general"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        blocks = data.reshape(3, 8, 5)
        # heralded pair column constant across N_B
        assert np.allclose(blocks[0, :, 3], blocks[1, :, 3], atol=1e-12)
        assert np.allclose(blocks[0, :, 3], blocks[2, :, 3], atol=1e-12)
        # unconditional decreases with N_B at T < 1
        assert np.all(blocks[1, :-1, 2] < blocks[0, :-1, 2])
        assert np.all(blocks[2, :-1, 2] < blocks[1, :-1, 2])
        # convergence at T = 1
        assert blocks[2, -1, 2] == pytest.approx(blocks[2, -1, 3], abs=1e-12)
        assert (out / "scan_snr.svg").is_file()


    def test_dark_herald_point_writes_nan(self, tmp_path):
        text = SCAN_CFG.replace("gain.V_B = 0.1", "gain.V_B = 0")
        cfg = write_cfg(tmp_path, text.replace("object.T.min = 0.05", "object.T.min = 0"))
        out = tmp_path / "out"
        assert cli.main(["scan-snr", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scan_snr.csv").read_text().splitlines()[1:]
        general = {(r.split(",")[0], r.split(",")[1]): r.split(",")[4] for r in lines}
        assert len(general) == 16
        assert general[("0", "0")] == "nan" and general[("0", "10")] == "nan"
        assert all(math.isfinite(float(v)) for (T, _), v in general.items() if T != "0")

    def test_grid_wide_closed_form_check_is_live(self, tmp_path, monkeypatch):
        closed_form = closed_forms.herald_moments

        def skewed(v_a, v_b, T, phi):
            n_i, n_s, corr_sq = closed_form(v_a, v_b, T, phi)
            n_s = np.array(n_s, dtype=float)
            n_s[-1] += 1e-6  # the last point of the engine sample
            return n_i, n_s, corr_sq

        monkeypatch.setattr(closed_forms, "herald_moments", skewed)
        cfg = write_cfg(tmp_path, SCAN_CFG)
        with pytest.raises(RuntimeError, match="closed forms"):
            cli.main(["scan-snr", "--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_sampled_check_sees_the_written_column(self, tmp_path, monkeypatch):
        # the skew reaches only the 16-point grid the CSV is written from,
        # not the 8-point engine sample, so the command's own comparison fails
        skew_last_grid_point(monkeypatch, "heralded_fringe", item=1, size=16)
        cfg = write_cfg(tmp_path, SCAN_CFG)
        with pytest.raises(RuntimeError, match="closed forms"):
            cli.main(["scan-snr", "--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_sampled_check_sees_a_nan_on_one_side(self, tmp_path, monkeypatch):
        # a nan dc at the last grid point only; the engine sample is finite there
        skew_last_grid_point(monkeypatch, "heralded_fringe", item=1, size=16, shift=math.nan)
        cfg = write_cfg(tmp_path, SCAN_CFG)
        with pytest.raises(RuntimeError, match="closed forms"):
            cli.main(["scan-snr", "--config", str(cfg), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "command, text",
        [
            ("scan-snr", SCAN_CFG.replace("= 0.1\n", "= 1e-310\n")),
            ("fringe", "gain.V_A = 1\ngain.V_B = 0\nobject.T = 5e-324\nphase.count = 16\n"),
        ],
        ids=["scan-snr-gains-1e-310", "fringe-T-5e-324"],
    )
    def test_subnormal_inputs_are_config_errors(self, tmp_path, capsys, command, text):
        cfg = write_cfg(tmp_path, text)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "subnormal" in capsys.readouterr().err


def skew_last_grid_point(monkeypatch, name, *, item, size, shift=1e-6):
    """Add ``shift`` to output ``item`` of ``closed_forms.<name>`` at the last
    point of every call that covers ``size`` points."""
    closed_form = getattr(closed_forms, name)

    def skewed(*args):
        values = [np.array(v, dtype=float) for v in closed_form(*args)]
        if values[item].size == size:
            values[item][-1] += shift
        return tuple(values)

    monkeypatch.setattr(closed_forms, name, skewed)


class TestEngineSample:
    @pytest.mark.parametrize(
        "count, expected",
        [
            (1, [0]),
            (2, [0, 1]),
            (8, [0, 1, 2, 3, 4, 5, 6, 7]),
            (9, [0, 1, 2, 3, 4, 5, 6, 8]),
            (400, [0, 57, 114, 171, 228, 285, 342, 399]),
        ],
    )
    def test_strided_first_and_last(self, count, expected):
        picked = cli.engine_sample(count).tolist()
        assert picked == expected == cli.engine_sample(count).tolist()
        assert len(picked) <= cli.ENGINE_SAMPLE == 8
        assert picked[0] == 0 and picked[-1] == count - 1

    def test_fringe_check_sees_the_written_column(self, tmp_path, monkeypatch):
        skew_last_grid_point(monkeypatch, "herald_moments", item=1, size=16)
        cfg = write_cfg(tmp_path, FRINGE_CFG + "detector.eta = 0.5\ndetector.nu = 0.1\n")
        with pytest.raises(RuntimeError, match="closed forms"):
            cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")])


class TestVerifyCommand:
    VERIFY_CFG = """
topology.kind = 2spdc
gain.V_A = 0.1
gain.V_B = 0.1
object.T.min = 0.0
object.T.max = 1.0
object.T.count = 2
noise.N_B = 0
oracle.cutoff = 12
oracle.samples = 200
oracle.seed = 3
"""

    def test_default_checks_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, self.VERIFY_CFG)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "verify_report.txt").read_text().splitlines()
        checks = [line for line in report if line.startswith(("PASS", "FAIL"))]
        assert len(checks) >= 2 * 7
        assert all(line.startswith("PASS") for line in checks)

    def test_corrupted_tolerance_fails(self, tmp_path):
        cfg = write_cfg(tmp_path, self.VERIFY_CFG + "verify.tolerance_scale = 1e-12\n")
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3

    def test_resource_guard_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, self.VERIFY_CFG.replace("oracle.cutoff = 12", "oracle.cutoff = 100"))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4

    def test_sample_table_guard_exit_code(self, tmp_path, capsys):
        text = self.VERIFY_CFG.replace("noise.N_B = 0", "noise.N_B = 0.5")
        cfg = write_cfg(tmp_path, text.replace("oracle.samples = 200", "oracle.samples = 1000000"))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "coherent coefficients exceed" in capsys.readouterr().err

    def test_one_sample_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.VERIFY_CFG.replace("oracle.samples = 200", "oracle.samples = 1"))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "oracle.samples must be >= 2" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "old, new, bound",
        [
            ("gain.V_A = 0.1", "gain.V_A = 0.5", "squeezer gain 0.5"),
            ("noise.N_B = 0", "noise.N_B = 2", "thermal occupation 2.0"),
        ],
    )
    def test_outside_oracle_envelope_is_config_error(self, tmp_path, capsys, old, new, bound):
        cfg = write_cfg(tmp_path, self.VERIFY_CFG.replace(old, new))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and bound in err
        assert "Traceback" not in err


class TestCliPlumbing:
    def test_missing_config_is_config_error(self, tmp_path):
        assert cli.main(["fringe", "--config", "nope.cfg", "--out", str(tmp_path)]) == 2

    def test_bundled_presets_resolve(self):
        for name in ("fig2.cfg", "fig3.cfg", "fig4.cfg", "fig5.cfg", "verify.cfg", "fringe.cfg"):
            assert cli.resolve_config_path(name).is_file()

    def test_out_dir_required(self, tmp_path):
        cfg = write_cfg(tmp_path, FRINGE_CFG)
        assert cli.main(["fringe", "--config", str(cfg)]) == 2

    def test_output_dir_key_used(self, tmp_path):
        cfg = write_cfg(tmp_path, FRINGE_CFG + f"output.dir = {tmp_path / 'from_cfg'}\n")
        assert cli.main(["fringe", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_cfg" / "fringe.csv").is_file()

    def test_csv_numbers_have_12_significant_digits(self, tmp_path):
        cfg = write_cfg(tmp_path, FRINGE_CFG)
        cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")])
        row = (tmp_path / "out" / "fringe.csv").read_text().splitlines()[3]
        value = row.split(",")[1]
        digits = value.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) == 12

    def test_lf_line_endings(self, tmp_path):
        cfg = write_cfg(tmp_path, FRINGE_CFG)
        cli.main(["fringe", "--config", str(cfg), "--out", str(tmp_path / "out")])
        raw = (tmp_path / "out" / "fringe.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
