import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from icfsim import SourceModel, estimate_scan, read_pattern_csv, read_pattern_json
import icfsim.cli as cli
from icfsim.cli import main
from icfsim.errors import IcfSimError

README = Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plot_labels(path):
    """A written plot's title and its floor label (None without a floor)."""
    svg = path.read_text()
    title = re.search(r'font-size="15">([^<]*)</text>', svg).group(1)
    floor = re.search(r'fill="#d62728">([^<]*)</text>', svg)
    return title, floor and floor.group(1)


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

    @pytest.mark.parametrize("order, scheme, message", [
        ("4", "single-detector", "scheme 'single_detector' does not serve order 4; "
                                 "its orders: 3"),
        ("3", "double-speed", "scheme 'four_point_double_speed' does not serve order 3; "
                              "its orders: 4"),
    ])
    def test_scheme_order_mismatch_names_the_scheme_exit_1(self, tmp_path, capsys, order,
                                                           scheme, message):
        # printed "unsupported correlation order: 4", although order 4 is supported
        code, text, err = run(capsys, "analytic", "--order", order, "--scheme", scheme,
                              "--out", str(tmp_path / "p"))
        assert (code, text, err) == (1, "", f"error: {message}\n")
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize("argv, title, floor", [
        ([], "coherent order-3 scan (V = 0.8182)", "classical-limit floor (V = 0.8182)"),
        (["--kind", "thermal", "--order", "4"], "thermal order-4 scan (V = 0.7778)",
         "classical-limit floor (V = 0.7778)"),
        (["--kind", "custom"], "custom order-3 scan (V = 0.7219)", None),
    ], ids=["coherent", "thermal-order4", "custom"])
    def test_plot_title_and_floor_label(self, tmp_path, capsys, argv, title, floor):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"moments": {"2": 1.5, "3": 2.6, "4": 6.0}}
                                     if argv == ["--kind", "custom"] else {}))
        code, _, _ = run(capsys, "analytic", "--config", str(config), *argv,
                         "--out", str(tmp_path / "a.csv"), "--plot", str(tmp_path / "a.svg"))
        assert code == 0
        assert plot_labels(tmp_path / "a.svg") == (title, floor)

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

    @pytest.mark.parametrize("points", ["1", "2"])
    def test_flat_pattern_visibility_has_no_error(self, tmp_path, capsys, points):
        # one point, or points at 0 and 2 pi with the same draws, printed
        # `visibility = 0.000000 +/- 0.000857` and `z = -954.57`
        code, text, _ = run(capsys, "mc", "--grid-points", points,
                            "--out", str(tmp_path / "p.csv"))
        assert code == 0
        assert text.splitlines()[:3] == [
            "visibility = 0.000000 +/- 0.000000",
            "classical limit (coherent, order 3) = 0.818181818",
            "PASS: visibility within the classical bound (z = -inf)"]

    def test_failed_allocation_exit_1(self, tmp_path, capsys):
        # numpy's "Unable to allocate" ended in a traceback; the request
        # fails at once, before any sample is drawn
        out = tmp_path / "p.csv"
        code, text, err = run(capsys, "mc", "--samples", str(10 ** 17), "--grid-points", "3",
                              "--out", str(out))
        assert (code, text) == (1, "")
        assert err == ("error: Unable to allocate 7.11 PiB for an array with shape "
                       "(1, 1000000000000000) and data type float64\n")
        assert not any(tmp_path.iterdir())

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


    def test_plot_title_floor_and_closed_form_overlay(self, tmp_path, capsys):
        code, text, _ = run(capsys, "mc", "--samples", "20000", "--batches", "20",
                            "--out", str(tmp_path / "m.csv"), "--plot", str(tmp_path / "m.svg"))
        assert code == 0
        assert text.splitlines()[0] == "visibility = 0.818118 +/- 0.000414"
        assert plot_labels(tmp_path / "m.svg") == (
            "coherent order-3 Monte Carlo (V = 0.8181 +/- 0.0004)",
            "classical-limit floor (V = 0.8182)")
        overlay = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="#999999"',
                             (tmp_path / "m.svg").read_text())
        assert len(overlay) == 1 and len(overlay[0].split()) == 25

    def test_one_sample_batches_exit_1(self, tmp_path, capsys):
        # a one-sample batch has a ratio of exactly 1, so no spread to measure
        out = tmp_path / "p.csv"
        code, text, err = run(capsys, "mc", "--kind", "thermal", "--samples", "100",
                              "--batches", "100", "--out", str(out))
        assert code == 1
        assert text == ""
        assert err.startswith("error:") and "two samples per batch" in err
        assert not out.exists()

    def test_zero_samples_exit_1(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "mc", "--samples", "0", "--out", str(out))
        assert code == 1
        assert err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["mc", "--samples", "1000", "--batches", "10"],
                                      ["analytic"]])
    @pytest.mark.parametrize("offset", ["nan", "inf"])
    def test_non_finite_offset_exit_1(self, tmp_path, capsys, argv, offset):
        # mc printed visibility = nan and a verdict at z = +inf, and exited 0;
        # analytic printed RuntimeWarnings
        out = tmp_path / "p.csv"
        code, text, err = run(capsys, *argv, "--scheme", "single-detector",
                              "--offset", offset, "--out", str(out))
        assert code == 1
        assert text == ""
        assert err == f"error: offset must be finite, got {offset}\n"
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


class TestOutputPath:
    """analytic, mc and limits resolve --out and --format by one rule."""

    @pytest.mark.parametrize("argv", [
        ["limits"],
        ["analytic", "--grid-points", "5"],
        ["mc", "--samples", "2000", "--batches", "10", "--grid-points", "3"],
        ["process", "missing-stack"],
        ["limits", "--format", "json"],
    ], ids=["limits", "analytic", "mc", "process", "limits-without-out"])
    def test_contradicting_format_exit_1_before_any_output(self, tmp_path, capsys,
                                                           monkeypatch, argv):
        # `limits --out t.csv --format json` wrote JSON into t.csv,
        # `analytic --out a.csv --format json` wrote CSV, `limits --format
        # json` printed the text table and exited 0, and `process` read the
        # stack (here a missing one) before it looked at --format
        monkeypatch.chdir(tmp_path)
        if "--format" in argv:
            code, text, err = run(capsys, *argv)
            assert err == "error: --format json needs --out: the table is printed as text\n"
        else:
            code, text, err = run(capsys, *argv, "--out", "t.csv", "--format", "json")
            assert err.startswith("error: --out ") and ".csv" in err and "json" in err
        assert (code, text) == (1, "")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("out", [".", "..", "/", "sub/"])
    @pytest.mark.parametrize("argv", [
        ["limits"],
        ["analytic", "--grid-points", "5"],
        ["mc", "--samples", "2000", "--batches", "10", "--grid-points", "3"],
    ], ids=["limits", "analytic", "mc"])
    def test_out_naming_a_directory_exit_1_before_any_output(self, tmp_path, capsys,
                                                             monkeypatch, argv, out, via):
        # `--out .` ended in "ValueError: PosixPath('.') has an empty name",
        # and `--out ..` wrote a hidden file named `...csv`
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": out}))
        flags = ["--out", out] if via == "flag" else ["--config", str(config)]
        code, text, err = run(capsys, *argv, *flags)
        assert (code, text, err) == (1, "", f"error: --out {out} names a directory, not a file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "work"]
        assert not any(work.iterdir())

    def test_limits_config_format_without_out_exit_1(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": "csv"}))
        code, text, err = run(capsys, "limits", "--config", str(config))
        assert (code, text) == (1, "")
        assert err.startswith("error: --format csv needs --out")
        code, text, _ = run(capsys, "limits", "--config", str(config),
                            "--out", str(tmp_path / "t"))
        assert code == 0 and text.endswith(f"wrote {tmp_path / 't.csv'}\n")

    @pytest.mark.parametrize("fmt", [None, "csv", "json"])
    def test_limits_out_without_suffix_gains_one(self, tmp_path, capsys, fmt):
        # `limits --out t2` wrote t2, where `analytic --out t2` writes t2.csv
        flags = [] if fmt is None else ["--format", fmt]
        code, text, _ = run(capsys, "limits", "--out", str(tmp_path / "t2"), *flags)
        path = tmp_path / f"t2.{fmt or 'csv'}"
        assert code == 0 and text.endswith(f"wrote {path}\n")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        if fmt == "json":
            assert json.loads(path.read_text())[0] == {"order": 2, "kind": "coherent",
                                                       "limit": 0.5}
        else:
            assert path.read_text().splitlines()[0] == "order,kind,limit"

    @pytest.mark.parametrize("command", ["limits", "analytic"])
    @pytest.mark.parametrize("suffix, fmt", [(".csv", None), (".json", None),
                                             (".csv", "csv"), (".json", "json"),
                                             (".CSV", "csv")])
    def test_same_file_for_limits_and_patterns(self, tmp_path, capsys, command, suffix, fmt):
        flags = [] if fmt is None else ["--format", fmt]
        out = tmp_path / f"t{suffix}"
        extra = ["--grid-points", "5"] if command == "analytic" else []
        code, _, _ = run(capsys, command, *extra, "--out", str(out), *flags)
        assert code == 0 and [p.name for p in tmp_path.iterdir()] == [out.name]
        heads = {("analytic", "json"): "{", ("limits", "json"): "[",
                 ("analytic", "csv"): "x_rad", ("limits", "csv"): "order"}
        assert out.read_text().startswith(heads[command, suffix[1:].lower()])

    @pytest.mark.parametrize("out, fmt, suffix", [
        ("run.csv", None, ".csv"), ("run.json", None, ".json"), ("run.csv", "csv", ".csv"),
        ("run.json", "json", ".json"), ("run.CSV", "csv", ".CSV"), ("run", None, ".csv"),
        ("run", "json", ".json")])
    def test_process_writes_stem_name_suffix(self, tmp_path, capsys, out, fmt, suffix):
        # `process --out run.json` wrote run.json_intensity.csv,
        # run.json_g3.csv and run.json_g4.csv
        stack = tmp_path / "stack"
        run(capsys, "synth", "--frames", "24", "--frame-width", "96", "--frame-height", "3",
            "--out", str(stack))
        work = tmp_path / "work"
        work.mkdir()
        flags = [] if fmt is None else ["--format", fmt]
        code, _, _ = run(capsys, "process", str(stack), "--out", str(work / out), *flags)
        names = [f"run_{name}{suffix}" for name in ("g3", "g4", "intensity")]
        assert code == 0 and sorted(p.name for p in work.iterdir()) == names
        read = read_pattern_json if suffix == ".json" else read_pattern_csv
        assert read(work / names[-1]).values.shape == (96,)  # the intensity profile

    def test_analytic_out_without_suffix_takes_the_format(self, tmp_path, capsys):
        code, _, _ = run(capsys, "analytic", "--grid-points", "5",
                         "--out", str(tmp_path / "a"), "--format", "json")
        assert code == 0
        assert read_pattern_json(tmp_path / "a.json").values.shape == (5,)


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



VERDICT = re.compile(r"^(PASS: visibility within|INFO: visibility exceeds) the classical "
                     r"bound \(z = ([+-]\d+\.\d\d)\)$", re.M)


class TestMcVerdict:
    def test_default_run_passes_with_z_on_the_verdict_line(self, tmp_path, capsys):
        code, text, _ = run(capsys, "mc", "--out", str(tmp_path / "p.csv"))
        assert code == 0
        lines = [
            "visibility = 0.818216 +/- 0.000200",
            "classical limit (coherent, order 3) = 0.818181818",
            "PASS: visibility within the classical bound (z = +0.17)"]
        assert text.splitlines()[:3] == lines
        # README shows this run as its example
        assert "\n".join(lines) in README.read_text()

    def test_info_rate_small_when_the_truth_sits_at_the_limit(self):
        # coherent order 3 reaches 9/11 exactly, so z sits near 0 apart from
        # the max/min selection bias of a noisy scan; `mc` defaults but 1e4
        # samples per point
        scan_pattern = cli._scan_pattern(vars(cli.build_parser().parse_args(["mc"])))
        zs = []
        for seed in range(40):
            p = estimate_scan(SourceModel.coherent(), scan_pattern, 10_000, 100, seed=seed,
                              workers=2)
            lines = cli._limit_lines(p.visibility, 3, "coherent", p.visibility_stderr())
            verdict, z = VERDICT.search(lines[-1]).groups()
            zs.append(float(z))
            assert verdict.startswith("INFO") == (float(z) > 3)
        assert sum(z > 3 for z in zs) <= 2
        assert np.median(zs) < 2


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

    @pytest.mark.parametrize("out", [".", "..", "/", "sub/"])
    def test_process_out_naming_a_directory_exit_1_before_any_output(
            self, tmp_path, capsys, monkeypatch, out):
        # `--out .` exited 0 after writing ._intensity.csv, ._g3.csv and
        # ._g4.csv: the suffixed names hid the directory from the check
        stack_dir = tmp_path / "stack"
        assert run(capsys, "synth", "--frames", "8", "--frame-height", "8",
                   "--out", str(stack_dir))[0] == 0
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, text, err = run(capsys, "process", str(stack_dir), "--out", out)
        assert (code, text, err) == (1, "", f"error: --out {out} names a directory, not a file\n")
        assert not any(work.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stack", "work"]
        assert not any(Path(f"{out}_{name}.csv").exists() for name in ("intensity", "g3", "g4"))

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

    @pytest.mark.parametrize("flags", [["--bit-depth", "0"],
                                       ["--bit-depth", "20", "--peak-level", "200000"]])
    def test_pgm_bit_depth_outside_1_to_16_exit_1(self, tmp_path, capsys, flags):
        stack_dir = tmp_path / "stack"
        code, text, err = run(capsys, "synth", "--frames", "2", "--frame-height", "2",
                              *flags, "--out", str(stack_dir))
        assert code == 1
        assert err.startswith("error: ") and "bit depth of 1-16" in err
        assert text == "" and not stack_dir.exists()

    @pytest.mark.parametrize("level, message", [
        ("inf", "peak_level must be positive and finite, got inf"),
        ("1e300", "peak_level 1e+300: lam value too large"),
    ])
    def test_huge_peak_level_exit_1(self, tmp_path, capsys, level, message):
        # both ended in numpy's ValueError and a traceback
        stack_dir = tmp_path / "stack"
        code, text, err = run(capsys, "synth", "--frames", "3", "--peak-level", level,
                              "--out", str(stack_dir))
        assert code == 1
        assert err == f"error: {message}\n"
        assert text == "" and not stack_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--noise-sigma", "-5"], "gaussian_sigma must be >= 0, got -5.0"),
        (["--envelope-fwhm-px", "0"], "envelope_fwhm_px must be positive, got 0.0"),
        (["--envelope-fwhm-px", "-40"], "envelope_fwhm_px must be positive, got -40.0"),
    ])
    def test_bad_noise_or_envelope_exit_1(self, tmp_path, capsys, flags, message):
        # each exited 0: no read noise, dark fringes, or the width +40
        stack_dir = tmp_path / "stack"
        code, text, err = run(capsys, "synth", "--frames", "2", "--frame-height", "2",
                              *flags, "--out", str(stack_dir))
        assert (code, text, err) == (1, "", f"error: {message}\n")
        assert not stack_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--phase-modulation", "harmonic", "--mod-amplitude", "nan"],
         "harmonic drive amplitude nan and frequency 0.6180339887498949 give non-finite phases"),
        (["--phase-modulation", "harmonic", "--mod-amplitude", "nan", "--no-poisson",
          "--noise-sigma", "0"],
         "harmonic drive amplitude nan and frequency 0.6180339887498949 give non-finite phases"),
        (["--phase-modulation", "harmonic", "--mod-frequency", "inf", "--no-poisson"],
         "harmonic drive amplitude 316.843 and frequency inf give non-finite phases"),
        (["--noise-sigma", "inf", "--bit-depth", "0", "--format", "csv"],
         "gaussian_sigma must be finite, got inf"),
        (["--noise-sigma", "1e308", "--bit-depth", "0", "--format", "csv"],
         "rendered frames rejected: pixel values must be finite"),
        (["--period-px", "inf"],
         "fringe_period_px must be positive and finite, at least 4 px (Nyquist margin), "
         "got inf"),
    ])
    def test_non_finite_input_exit_1(self, tmp_path, capsys, flags, message):
        # the first blamed the peak level, the next two wrote NaN-cast frames,
        # the two read noises ended in a traceback and the period was written
        # as Infinity
        stack_dir = tmp_path / "stack"
        code, text, err = run(capsys, "synth", "--frames", "2", "--frame-height", "2",
                              *flags, "--out", str(stack_dir))
        assert (code, text, err) == (1, "", f"error: {message}\n")
        assert not stack_dir.exists()

    def test_process_non_finite_period_exit_1(self, tmp_path, capsys):
        # inf printed a mean-intensity fringe visibility of 2.0000, and 1e-320,
        # whose phase step 2 pi/period is inf, ended in a ValueError traceback
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "2", "--frame-height", "2", "--out", str(stack_dir))
        manifest = stack_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        for period, message in (
                (math.inf, "fringe_period_px must be positive and finite, got inf"),
                (1e-320, "fringe_period_px 1e-320 is too small: the fringe phase across "
                         "600 px overflows float range")):
            code, text, err = run(capsys, "process", str(stack_dir), "--period-px",
                                  str(period), "--out", str(tmp_path / "run"))
            assert (code, text, err) == (1, "", f"error: {message}\n")
            manifest.write_text(json.dumps({**data, "fringe_period_px": period}))
            code, text, err = run(capsys, "process", str(stack_dir),
                                  "--out", str(tmp_path / "run"))
            assert (code, text, err) == (1, "", f"error: {message}\n")
        assert not list(tmp_path.glob("run*"))

    def test_process_dark_frame_batch_exit_1(self, tmp_path, capsys):
        # the pooled mean profile is bright enough, but one batch of frames
        # sums to 0 at a used column: it ended in a ValueError traceback
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "24", "--frame-width", "96", "--frame-height", "3",
            "--peak-level", "100", "--out", str(stack_dir))
        code, _, err = run(capsys, "process", str(stack_dir), "--out", str(tmp_path / "run"))
        assert (code, err) == (1, "error: the mean profile of a batch of frames vanishes at "
                                  "a column used by the correlation arguments\n")

    def test_refused_stack_writes_no_file(self, tmp_path, capsys):
        # the intensity profile was written before g3 refused the stack
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "24", "--frame-width", "96", "--frame-height", "3",
            "--peak-level", "100", "--out", str(stack_dir))
        code, text, _ = run(capsys, "process", str(stack_dir), "--out", str(tmp_path / "run"))
        assert code == 1 and text.startswith("mean-intensity fringe visibility = ")
        assert not list(tmp_path.glob("run*"))

    def test_process_period_too_narrow_to_estimate_exit_1(self, tmp_path, capsys):
        # ended in a ValueError traceback from frames.estimate_fringe_period
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "4", "--frame-width", "3", "--frame-height", "2",
            "--out", str(stack_dir))
        manifest = stack_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        del data["fringe_period_px"]
        manifest.write_text(json.dumps(data))
        code, text, err = run(capsys, "process", str(stack_dir), "--out", str(tmp_path / "run"))
        assert (code, text) == (1, "")
        assert err == (f"error: {manifest}: no fringe_period_px, and frames 3 px wide are too "
                       "narrow to estimate one; pass --period-px\n")
        assert not list(tmp_path.glob("run*"))
        code, _, _ = run(capsys, "process", str(stack_dir), "--period-px", "2",
                         "--out", str(tmp_path / "run"))
        assert code == 0

    @pytest.mark.parametrize("edit, message", [
        ({"fringe_period_px": "abc"}, "fringe_period_px must be a number, got 'abc'"),
        ({"metadata": [1]}, "metadata must be an object or null"),
        ({"frames": "x"}, "frames must be a list of file names"),
        ({"fringe_period_px": 10 ** 400},  # ended in an uncaught OverflowError
         "fringe_period_px must be within float range, got an integer of 401 digits"),
    ])
    def test_process_manifest_field_of_wrong_type_exit_1(self, tmp_path, capsys, edit,
                                                         message):
        # these ended in a ValueError or AttributeError traceback, or in a
        # missing file named after one character of "x"
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "20", "--frame-height", "2", "--out", str(stack_dir))
        manifest = stack_dir / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **edit}))
        code, text, err = run(capsys, "process", str(stack_dir), "--out", str(tmp_path / "run"))
        assert (code, text, err) == (1, "", f"error: {manifest}: {message}\n")
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("flags, named", [
        (["--mod-amplitude", "3"], "--mod-amplitude"),
        (["--mod-frequency", "0.25"], "--mod-frequency"),
        (["--phase-modulation", "uniform", "--mod-amplitude", "3", "--mod-frequency", "0.25"],
         "--mod-amplitude and --mod-frequency")])
    def test_drive_flags_without_harmonic_modulation_exit_1(self, tmp_path, capsys, flags,
                                                           named):
        stack_dir = tmp_path / "stack"
        code, text, err = run(capsys, "synth", "--frames", "2", "--frame-height", "2",
                              *flags, "--out", str(stack_dir))
        assert code == 1
        verb = "need" if " and " in named else "needs"
        assert err == f"error: {named} {verb} --phase-modulation harmonic\n"
        assert text == "" and not stack_dir.exists()

    @pytest.mark.parametrize("key", ["mod_amplitude", "mod-frequency"])
    def test_drive_config_key_without_harmonic_modulation_exit_1(self, tmp_path, capsys, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 0.5}))
        stack_dir = tmp_path / "stack"
        code, text, err = run(capsys, "synth", "--config", str(config), "--frames", "2",
                              "--frame-height", "2", "--out", str(stack_dir))
        assert code == 1
        assert err.startswith("error: --mod-") and "--phase-modulation harmonic" in err
        assert text == "" and not stack_dir.exists()
        code, _, _ = run(capsys, "synth", "--config", str(config), "--frames", "2",
                         "--frame-height", "2", "--phase-modulation", "harmonic",
                         "--out", str(stack_dir))
        assert code == 0
        modulation = json.loads((stack_dir / "manifest.json").read_text())[
            "metadata"]["phase_modulation"]
        assert modulation["type"] == "harmonic"
        assert modulation[key.replace("-", "_").removeprefix("mod_")] == 0.5

    def test_float_csv_frames_at_bit_depth_0(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        code, _, _ = run(capsys, "synth", "--frames", "2", "--frame-height", "2",
                         "--bit-depth", "0", "--format", "csv", "--out", str(stack_dir))
        assert code == 0
        assert (stack_dir / "frame_0001.csv").exists()

    @pytest.mark.parametrize("batches, needed", [("30", "60 frames for 30 batches"),
                                                 ("-3", "4 frames for 2 batches")])
    def test_process_warns_when_stderrs_are_dropped(self, tmp_path, capsys, batches, needed):
        stack_dir = tmp_path / "stack"
        run(capsys, "synth", "--frames", "40", "--frame-height", "4",
            "--out", str(stack_dir))
        code, text, err = run(capsys, "process", str(stack_dir), "--batches", batches,
                              "--out", str(tmp_path / "run"))
        assert code == 0
        assert err == (f"warning: no standard errors from 40 frames in {batches} batches: "
                       f"they need at least 2 batches of 2 or more frames ({needed})\n")
        assert "+/-" not in text and "g3 visibility = " in text and "warning" not in text
        code, text, err = run(capsys, "process", str(stack_dir), "--batches", "20",
                              "--out", str(tmp_path / "run"))
        assert (code, err) == (0, "")
        assert "+/-" in text

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
        # 30000 clips thermal pixels; the thermal default level does not
        stack_dir = tmp_path / "stack"
        code, text, err = run(capsys, "synth", "--kind", kind, "--frames", "200",
                              "--frame-height", "8", "--peak-level", "30000",
                              "--out", str(stack_dir))
        assert code == 0
        assert "saturated" not in text
        manifest = json.loads((stack_dir / "manifest.json").read_text())["metadata"]
        if warns:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("warning: ")
            assert (f"{manifest['saturated_pixels']} of 960000 pixels (" in lines[0]
                    and f"in {manifest['saturated_frames']} of 200 frames" in lines[0])
            assert "saturated at 65535" in lines[0]
            assert 0 < manifest["saturated_frames"] <= 200
        else:
            assert err == ""
            assert manifest["saturated_pixels"] == manifest["saturated_frames"] == 0
        code, text, err = run(capsys, "process", str(stack_dir),
                              "--out", str(tmp_path / "run"))
        assert code == 0
        assert "saturated" not in text
        if not warns:
            assert err == ""
            return
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert f"warning: {manifest['saturated_pixels']} of 960000 ROI pixels (" in lines[0]
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

    @pytest.mark.parametrize("command", ["analytic", "mc"])
    @pytest.mark.parametrize("argv, content", [
        ([], {"moments": {"2": 5.0, "3": 40.0, "4": 400.0}}),
        (["--kind", "thermal"], {"kind": "custom", "moments": {"2": 2.0, "3": 6.0}}),
    ], ids=["coherent-default", "thermal-flag-over-custom"])
    def test_moments_of_a_named_kind_exit_1(self, tmp_path, capsys, command, argv, content):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(content))
        code, text, err = run(capsys, command, "--config", str(config), *argv,
                              "--out", str(tmp_path / "p.csv"))
        assert code == 1
        assert err.startswith("error: ") and "'moments'" in err
        assert text == "" and not (tmp_path / "p.csv").exists()

    # NaN printed "visibility = nan" and exited 0, True and key "1" were
    # accepted or ignored, and "x", a list, "abc" and a 401-digit integer
    # ended in a traceback
    @pytest.mark.parametrize("command", ["analytic", "mc"])
    @pytest.mark.parametrize("moments, message", [
        ({"2": math.nan, "3": 6.0}, "moment g(2) must be a positive finite number, got nan"),
        ({"2": 10 ** 400},
         "moment g(2) must be a positive finite number, got an integer beyond float range"),
        ({"2": 2.0, "x": 6.0}, "'moments' orders must be distinct integers >= 2, got 'x'"),
        ([2.0, 6.0], "'moments' must be a table of order: g(order), got [2.0, 6.0]"),
        ({"2": "abc"}, "moment g(2) must be a positive finite number, got 'abc'"),
        ({"2": True, "3": True}, "moment g(2) must be a positive finite number, got True"),
        ({"1": 1.0, "2": 2.0}, "'moments' orders must be distinct integers >= 2, got '1'"),
        ({}, "custom models need a 'moments' table in the --config file"),
    ], ids=["nan", "int-beyond-float", "key-x", "list", "abc", "true", "key-1", "empty"])
    def test_malformed_moments_table_exit_1(self, tmp_path, capsys, command, moments,
                                            message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"kind": "custom", "moments": moments}))
        code, text, err = run(capsys, command, "--config", str(config),
                              "--out", str(tmp_path / "p.csv"))
        assert (code, text, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "p.csv").exists()

    # each ended in OverflowError: a float option keeps a config integer as
    # it is, and float() of one beyond float range overflows
    @pytest.mark.parametrize("command, text", [
        ("analytic", '{"coherence_width": 1' + "0" * 400 + "}"),
        ("analytic", '{"scheme": "single-detector", "offset": -1' + "0" * 400 + "}"),
        ("synth", '{"frames": 2, "period_px": 1' + "0" * 400 + "}"),
    ], ids=["coherence-width", "offset", "period-px"])
    def test_integer_beyond_float_range_exit_1(self, tmp_path, capsys, command, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        key = next(iter(json.loads(text).keys() - {"scheme", "frames"}))
        code, out, err = run(capsys, command, "--config", str(config),
                             "--out", str(tmp_path / "p"))
        assert (code, out) == (1, "")
        assert err == (f"error: {key} in config file {config} must be within float range, "
                       f"got an integer of 401 digits\n")
        assert not any(tmp_path.glob("p*"))

    # json.load refuses an integer of over 4300 digits with a ValueError,
    # which ended every subcommand in a traceback
    @pytest.mark.parametrize("command", ["verify", "analytic", "synth"])
    def test_integer_of_over_4300_digits_exit_1(self, tmp_path, capsys, command):
        config = tmp_path / "run.json"
        config.write_text('{"seed": 1' + "0" * 5000 + "}")
        out = [] if command == "verify" else ["--out", str(tmp_path / "p")]
        code, text, err = run(capsys, command, "--config", str(config), *out)
        assert (code, text) == (1, "")
        assert err.startswith(f"error: invalid JSON in config file {config}: ")
        assert "4300" in err and err.count("\n") == 1
        assert not any(tmp_path.glob("p*"))

    @pytest.mark.parametrize("content, message", [
        ({"kind": "thermal", "grid-pionts": 181}, "'grid-pionts'"),
        (["kind", "thermal"], "must hold a JSON object"),
        ({"command": "limits"}, "'command'"),
        ({"config": "other.json"}, "'config'"),
        ({"help": True}, "'help'"),
        ({"stack": "stack"}, "'stack'"),
    ])
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, content, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as err:
            main(["analytic", "--config", str(config), "--out", str(tmp_path / "a.csv")])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("argv, content", [
        (["process", "stack"], {"stack": "elsewhere"}),
        (["synth", "--frames", "2"], {"moments": {"2": 2.0}}),
        (["verify"], {"samples": 1000}),  # main declares no mc option for verify
    ], ids=["process-stack", "synth-moments", "verify-samples"])
    def test_only_options_of_the_subcommand_are_keys(self, tmp_path, capsys, argv, content):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as err:
            main([*argv, "--config", str(config)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown key {next(iter(content))!r}" in captured.err

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_parsed_defaults_round_trip_through_a_config_file(self, tmp_path, command):
        argv = [command, "stack"] if command == "process" else [command]
        defaults = vars(cli.build_parser().parse_args(argv))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value for key, value in defaults.items()
                                      if key not in ("command", "config", "stack")}))
        assert (cli._resolve(cli.build_parser(), [*argv, "--config", str(config)])
                == cli._resolve(cli.build_parser(), argv))


class TestDeclaredParser:
    """main declares the options of the subcommand it runs alone, and reads
    as the full parser does."""

    build = staticmethod(cli.build_parser)

    @pytest.fixture
    def built(self, monkeypatch):
        """Every parser that main builds, through a wrapped build_parser."""
        parsers = []

        def wrapped(*args):
            parsers.append(self.build(*args))
            return parsers[-1]

        monkeypatch.setattr(cli, "build_parser", wrapped)
        return parsers

    @staticmethod
    def dests(parser, command):
        return [a.dest for a in cli._command_parser(parser, command)._actions]

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_and_defaults_match_the_full_parser(self, built, capsys, monkeypatch,
                                                     columns, command):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as err:
            main([command, "-h"])
        assert err.value.code == 0
        full, [parser] = self.build(), built
        assert capsys.readouterr().out == cli._command_parser(full, command).format_help()
        assert parser.format_help() == full.format_help()
        argv = [command, "stack"] if command == "process" else [command]
        assert vars(parser.parse_args(argv)) == vars(full.parse_args(argv))

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["--config", "x", "verify"], ["mc", "--bogus"],
        ["limits", "extra"], ["verify", "--trials"],
    ], ids=["none", "help", "unknown", "config-first", "mc-bogus", "limits-extra",
            "trials-without-value"])
    def test_usage_matches_the_full_parser(self, capsys, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as full:
            cli._resolve(cli.build_parser(), argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as ran:
            main(argv)
        assert (ran.value.code, capsys.readouterr()) == (full.value.code, expected)

    # registering the named subcommand alone, or pinning the subcommand
    # metavar, would change these lines from what the full parser prints
    @pytest.mark.parametrize("argv, error", [
        ([], "the following arguments are required: command"),
        (["mc", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["none", "mc-bogus"])
    def test_usage_names_every_subcommand(self, capsys, monkeypatch, argv, error):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            "usage: icfsim [-h] {analytic,mc,limits,verify,synth,process} ...\n"
            f"icfsim: error: {error}\n")

    def test_only_the_named_subcommand_is_declared(self, built, capsys):
        assert main(["verify", "--trials", "3"]) == 0
        assert main(["verify", "--trials", "3"]) == 0
        assert len(built) == 2 and built[0] is not built[1]  # no parser is kept
        for name in cli._COMMANDS:
            assert self.dests(built[0], name) == (
                ["help", "config", "trials", "seed"] if name == "verify" else ["help"])

    def test_argv_none_reads_sys_argv(self, built, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["icfsim", "verify", "--trials", "3"])
        assert main() == 0
        [parser] = built
        assert self.dests(parser, "verify") == ["help", "config", "trials", "seed"]
        assert self.dests(parser, "mc") == ["help"]


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

    def test_every_minimum_names_an_integer_option(self):
        parser = cli.build_parser()
        options = {action.dest for command in cli._COMMANDS
                   for action in cli._command_parser(parser, command)._actions
                   if action.option_strings and action.type is int}
        assert set(cli._MINIMUM) <= options

    @pytest.mark.parametrize("argv", [
        ["mc", "--samples", str(10 ** 23)],
        ["mc", "--grid-points", str(10 ** 23)],
        ["synth", "--frames", str(10 ** 23)],
        ["synth", "--frames", "2", "--frame-width", str(10 ** 20)],
    ], ids=["mc-samples", "mc-grid", "synth-frames", "synth-width"])
    def test_size_beyond_index_range_exit_1(self, tmp_path, capsys, argv):
        code, text, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert text == ""
        assert err.startswith("error:") and argv[-2].lstrip("-") in err
        assert not any(tmp_path.iterdir())

    def test_config_file_size_is_checked(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"samples": 10 ** 23}))
        code, text, err = run(capsys, "mc", "--config", str(config),
                              "--out", str(tmp_path / "out"))
        assert code == 1
        assert text == "" and err.startswith("error:") and "samples" in err

    @pytest.mark.parametrize("key", list(cli._MAXIMUM))
    def test_maximum_is_numpy_index_range(self, key):
        # options are resolved, not run: no value here is allocated
        command = {"trials": "verify", "frames": "synth", "frame_width": "synth",
                   "frame_height": "synth"}.get(key, "mc")
        top = np.iinfo(np.intp).max
        flag = "--" + key.replace("_", "-")
        parser = cli.build_parser()
        assert cli._resolve(parser, [command, flag, str(top)])[key] == top
        with pytest.raises(IcfSimError, match=f"{flag[2:]} must be at most {top}"):
            cli._resolve(parser, [command, flag, str(top + 1)])

    def test_every_maximum_names_an_integer_option(self):
        parser = cli.build_parser()
        options = {action.dest for command in cli._COMMANDS
                   for action in cli._command_parser(parser, command)._actions
                   if action.option_strings and action.type is int}
        assert set(cli._MAXIMUM) <= options

    def test_config_file_seed_is_checked(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -3}))
        code, _, err = run(capsys, "verify", "--config", str(config))
        assert code == 1
        assert err.startswith("error:") and "seed" in err


class TestConfigTypes:
    """A config value must have the type its flag takes."""

    @pytest.mark.parametrize("command, content, key", [
        ("verify", {"seed": "x"}, "seed"),
        ("verify", {"trials": "5"}, "trials"),
        ("verify", {"trials": True}, "trials"),
        ("synth", {"frames": 2.5}, "frames"),
    ], ids=["verify-seed-str", "verify-trials-str", "verify-trials-bool", "synth-frames-float"])
    def test_mismatch_exit_1(self, tmp_path, capsys, command, content, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(content))
        out = [] if command == "verify" else ["--out", str(tmp_path / "out")]
        code, text, err = run(capsys, command, "--config", str(config), *out)
        assert code == 1
        assert text == ""
        assert err.startswith("error: ") and key in err and "int" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, content, key", [
        ("analytic", {"order": 5}, "order"),
        ("synth", {"kind": "bogus"}, "kind"),
    ], ids=["analytic-order-5", "synth-kind-bogus"])
    def test_value_outside_choices_exit_1(self, tmp_path, capsys, command, content, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(content))
        code, text, err = run(capsys, command, "--config", str(config),
                              "--out", str(tmp_path / "out"))
        assert (code, text) == (1, "")
        assert err.startswith(f"error: {key} in config file ") and "must be one of" in err
        assert repr(content[key]) in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "out.csv").exists()

    def test_value_refused_by_its_type_function_exit_1(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"roi": "1,2"}))
        code, text, err = run(capsys, "process", str(tmp_path / "stack"), "--config",
                              str(config), "--out", str(tmp_path / "out"))
        assert (code, text) == (1, "")
        assert err == (f"error: roi in config file {config}: expected x0,y0,w,h integers, "
                       f"got '1,2'\n")
        assert sorted(tmp_path.iterdir()) == [config]

    def test_matching_types_accepted(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"frames": 2, "peak_level": 20000, "poisson": False,
                                      "envelope_fwhm_px": None, "frame_height": 2}))
        code, _, err = run(capsys, "synth", "--config", str(config),
                           "--out", str(tmp_path / "stack"))
        assert (code, err) == (0, "")
        metadata = json.loads((tmp_path / "stack" / "manifest.json").read_text())["metadata"]
        assert metadata["peak_level"] == 20000 and metadata["noise"]["poisson"] is False


class TestThreads:
    @pytest.mark.parametrize("cpus, workers", [({0}, 1), ({0, 1}, 2), (set(range(8)), 2)])
    def test_at_most_two_threads(self, monkeypatch, cpus, workers):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert cli._workers() == workers

    @pytest.mark.parametrize("argv", [
        ["synth", "--kind", "thermal", "--frames", "40", "--peak-level", "30000"],
        ["mc", "--kind", "thermal", "--order", "4", "--samples", "2000",
         "--batches", "10", "--grid-points", "5"],
    ], ids=["synth", "mc"])
    def test_outputs_independent_of_thread_count(self, tmp_path, capsys, monkeypatch, argv):
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_workers", lambda: workers)
            base = tmp_path / f"w{workers}"
            base.mkdir()
            code, text, err = run(capsys, *argv, "--out", str(base / "out"))
            assert code == 0
            results.append((text.replace(str(base), "BASE"), err,
                            [(str(p.relative_to(base)), p.read_bytes())
                             for p in sorted(base.rglob("*")) if p.is_file()]))
        assert results[0] == results[1]
        assert results[0][2]
