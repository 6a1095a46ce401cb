import json
import math

import numpy as np
import pytest

from icfsim import read_pattern_csv, read_pattern_json
from icfsim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalytic:
    def test_coherent_order3_visibility(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, text, _ = run(capsys, "analytic", "--kind", "coherent",
                            "--order", "3", "--scheme", "symmetric-opposite",
                            "--out", str(out))
        assert code == 0
        assert "visibility = 0.818181818" in text
        assert "PASS" in text
        pattern = read_pattern_csv(out)
        assert abs(pattern.visibility - 9 / 11) < 1e-9

    def test_thermal_order4_double_speed(self, tmp_path, capsys):
        code, text, _ = run(capsys, "analytic", "--kind", "thermal",
                            "--order", "4", "--scheme", "double-speed",
                            "--out", str(tmp_path / "p.csv"))
        assert code == 0
        assert "visibility = 0.7777777" in text

    def test_json_and_csv_hold_identical_numbers(self, tmp_path, capsys):
        code, _, _ = run(capsys, "analytic", "--order", "3",
                         "--out", str(tmp_path / "a"), "--format", "csv")
        assert code == 0
        code, _, _ = run(capsys, "analytic", "--order", "3",
                         "--out", str(tmp_path / "b"), "--format", "json")
        assert code == 0
        a = read_pattern_csv(tmp_path / "a.csv")
        b = read_pattern_json(tmp_path / "b.json")
        assert np.max(np.abs(a.values - b.values)) < 1e-12
        assert abs(a.visibility - b.visibility) < 1e-12

    def test_plot_is_pure_side_output(self, tmp_path, capsys):
        code, _, _ = run(capsys, "analytic", "--order", "3",
                         "--out", str(tmp_path / "plain.csv"))
        assert code == 0
        code, _, _ = run(capsys, "analytic", "--order", "3",
                         "--out", str(tmp_path / "plotted.csv"),
                         "--plot", str(tmp_path / "p.svg"))
        assert code == 0
        assert (tmp_path / "p.svg").exists()
        assert (tmp_path / "plain.csv").read_bytes() == \
            (tmp_path / "plotted.csv").read_bytes()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["analytic", "--scheme", "zigzag"])
        assert err.value.code == 2

    def test_malformed_roi_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["process", "somewhere", "--roi", "0,0,600"])
        assert err.value.code == 2


class TestMc:
    def test_deterministic_output_files(self, tmp_path, capsys):
        args = ("mc", "--kind", "coherent", "--order", "3",
                "--samples", "20000", "--batches", "20", "--seed", "33",
                "--grid-points", "9")
        code, _, _ = run(capsys, *args, "--out", str(tmp_path / "a.csv"))
        assert code == 0
        code, _, _ = run(capsys, *args, "--out", str(tmp_path / "b.csv"))
        assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_coherent_order4_visibility(self, tmp_path, capsys):
        code, text, _ = run(capsys, "mc", "--order", "4", "--scheme",
                            "double-speed", "--out", str(tmp_path / "p.csv"))
        assert code == 0
        vis = float(text.split("visibility = ")[1].split(" ")[0])
        assert abs(vis - 17 / 18) < 0.03
        assert "+/-" in text

    def test_thermal_envelope_bracketed(self, tmp_path, capsys):
        code, text, _ = run(capsys, "mc", "--kind", "thermal", "--order", "3",
                            "--coherence-width", str(2 * math.pi),
                            "--out", str(tmp_path / "p.csv"))
        assert code == 0
        vis = float(text.split("visibility = ")[1].split(" ")[0])
        assert 0.30 < vis < 0.60


    def test_zero_samples_exit_1(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "mc", "--samples", "0", "--out", str(out))
        assert code == 1
        assert err.startswith("error:")
        assert not out.exists()


class TestLimits:
    def test_six_row_table(self, capsys):
        code, text, _ = run(capsys, "limits")
        assert code == 0
        rows = [l for l in text.splitlines() if l and l.split()[0] in "234"]
        assert len(rows) == 6
        assert any("0.81818182" in r for r in rows)
        assert any("77.78" in r for r in rows)

    def test_written_file(self, tmp_path, capsys):
        out = tmp_path / "limits.json"
        code, _, _ = run(capsys, "limits", "--out", str(out), "--format", "json")
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 6
        assert {"order": 4, "kind": "coherent", "limit": 17 / 18} in rows


class TestVerify:
    def test_all_orders_pass(self, capsys):
        code, text, _ = run(capsys, "verify", "--trials", "200")
        assert code == 0
        assert text.count("PASS") == 3

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_exit_1(self, capsys, trials):
        code, text, err = run(capsys, "verify", "--trials", trials)
        assert code == 1
        assert text == ""
        assert err.startswith("error:") and "trials" in err


class TestFramesCli:
    def test_synth_then_process_default_noise(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        code, text, _ = run(capsys, "synth", "--kind", "coherent",
                            "--frames", "500", "--out", str(stack_dir))
        assert code == 0
        assert (stack_dir / "manifest.json").exists()
        code, text, _ = run(capsys, "process", str(stack_dir),
                            "--roi", "0,0,600,50", "--ref-col", "300",
                            "--out", str(tmp_path / "run"))
        assert code == 0
        assert (tmp_path / "run_intensity.csv").exists()
        g3 = read_pattern_csv(tmp_path / "run_g3.csv")
        g4 = read_pattern_csv(tmp_path / "run_g4.csv")
        assert g3.visibility >= 0.70
        assert g4.visibility >= 0.85
        assert "mean-intensity fringe visibility" in text

    def test_roi_out_of_bounds_exit_1(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "3", "--frame-height", "8",
            "--out", str(stack_dir))
        code, _, err = run(capsys, "process", str(stack_dir),
                           "--roi", "0,0,700,8", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error" in err

    def test_frozen_phase_gives_flat_g3(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        code, _, _ = run(capsys, "synth", "--frames", "100",
                         "--frame-height", "8", "--phase-modulation", "harmonic",
                         "--mod-amplitude", "0", "--out", str(stack_dir))
        assert code == 0
        code, _, _ = run(capsys, "process", str(stack_dir),
                         "--out", str(tmp_path / "run"))
        assert code == 0
        g3 = read_pattern_csv(tmp_path / "run_g3.csv")
        assert np.all(np.abs(g3.values - 1.0) < 0.1)
        assert g3.visibility < 0.05

    def test_csv_frame_format(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        code, _, _ = run(capsys, "synth", "--frames", "2", "--frame-height", "4",
                         "--frame-width", "64", "--format", "csv",
                         "--out", str(stack_dir))
        assert code == 0
        assert (stack_dir / "frame_0000.csv").exists()

    def test_process_plot(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "60", "--frame-height", "8",
            "--out", str(stack_dir))
        code, _, _ = run(capsys, "process", str(stack_dir),
                         "--out", str(tmp_path / "run"),
                         "--plot", str(tmp_path / "run.svg"))
        assert code == 0
        assert (tmp_path / "run_g3.svg").exists()
        assert (tmp_path / "run_g4.svg").exists()

    def test_out_of_range_csv_pixel_exit_1(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "3", "--frame-height", "4",
            "--frame-width", "64", "--format", "csv", "--out", str(stack_dir))
        frame = stack_dir / "frame_0001.csv"
        rows = frame.read_text().splitlines()
        rows[2] = "70000," + rows[2].split(",", 1)[1]
        frame.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "process", str(stack_dir),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error: ") and "frame_0001.csv" in err
        assert "16-bit range" in err

    def test_non_finite_float_pixel_exit_1(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "3", "--frame-height", "4", "--frame-width", "64",
            "--format", "csv", "--bit-depth", "0", "--out", str(stack_dir))
        frame = stack_dir / "frame_0002.csv"
        rows = frame.read_text().splitlines()
        rows[1] = "nan," + rows[1].split(",", 1)[1]
        frame.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "process", str(stack_dir),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error: ") and "frame_0002.csv" in err
        assert "finite" in err
        assert not (tmp_path / "run_intensity.csv").exists()

    @pytest.mark.parametrize("kind, warns", [("thermal", True), ("coherent", False)])
    def test_saturation_reported_on_stderr(self, tmp_path, capsys, kind, warns):
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--kind", kind, "--frames", "200", "--frame-height", "8",
            "--out", str(stack_dir))
        code, text, err = run(capsys, "process", str(stack_dir),
                              "--out", str(tmp_path / "run"))
        assert code == 0
        assert "saturated" not in text
        if not warns:
            assert err == ""
            return
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert " of 960000 ROI pixels (" in lines[0]
        assert "saturated at 65535" in lines[0]
        fraction = float(lines[0].split("(")[1].split("%")[0]) / 100
        assert 0.002 < fraction < 0.05


class TestConfig:
    def test_config_supplies_values_and_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"kind": "thermal", "order": 3,
                                      "grid-points": 181}))
        code, text, _ = run(capsys, "analytic", "--config", str(config),
                            "--out", str(tmp_path / "a.csv"))
        assert code == 0
        assert "thermal" in text
        assert "0.6000000" in text
        # flag overrides the config kind
        code, text, _ = run(capsys, "analytic", "--config", str(config),
                            "--kind", "coherent", "--out", str(tmp_path / "b.csv"))
        assert code == 0
        assert "0.818181818" in text

    def test_custom_model_via_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"kind": "custom", "moments": {"2": 2.0, "3": 6.0, "4": 24.0}}))
        code, text, _ = run(capsys, "analytic", "--config", str(config),
                            "--order", "3", "--out", str(tmp_path / "c.csv"))
        assert code == 0
        assert "visibility = 0.6000000" in text

    @pytest.mark.parametrize("content, message", [
        ({"kind": "thermal", "grid-pionts": 181}, "'grid-pionts'"),
        (["kind", "thermal"], "must hold a JSON object"),
    ])
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, content, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as err:
            main(["analytic", "--config", str(config), "--out", str(tmp_path / "a.csv")])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()


class TestOutOfRangeIntegers:
    """Integer options below their minimum are data errors, not tracebacks."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--trials", "5", "--seed", "-1"],
        ["mc", "--samples", "1000", "--batches", "10", "--seed", "-1"],
        ["synth", "--frames", "2", "--seed", "-1"],
        ["synth", "--frames", "0"],
        ["synth", "--frames", "2", "--frame-width", "0"],
        ["synth", "--frames", "2", "--frame-height", "0"],
        ["analytic", "--grid-points", "-2"],
    ], ids=["verify-seed", "mc-seed", "synth-seed", "synth-frames", "synth-width",
            "synth-height", "analytic-grid"])
    def test_exit_1_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code, text, err = run(capsys, *argv, *([] if argv[0] == "verify" else ["--out", str(out)]))
        assert code == 1
        assert text == ""
        assert err.startswith("error:") and argv[-2].lstrip("-") in err
        assert not any(tmp_path.iterdir())

    def test_config_file_seed_is_checked(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -3}))
        code, _, err = run(capsys, "verify", "--config", str(config))
        assert code == 1
        assert err.startswith("error:") and "seed" in err
