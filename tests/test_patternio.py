import json
import re

import numpy as np
import pytest

from icfsim import (
    InterferencePattern,
    read_pattern_csv,
    read_pattern_json,
    write_pattern_csv,
    write_pattern_json,
)
from icfsim.errors import EmptyPattern, MalformedFile
from icfsim.svgplot import write_pattern_svg


def sample_pattern(with_err=True):
    rng = np.random.default_rng(0)
    xs = np.linspace(0, 2 * np.pi, 17)
    values = 1.0 + np.cos(xs) + 0.5 * np.cos(2 * xs) + 1e-3 * rng.uniform(size=17)
    errs = rng.uniform(0.001, 0.01, 17) if with_err else None
    return InterferencePattern(xs=xs, values=values, stderrs=errs)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        pattern = sample_pattern()
        path = tmp_path / "p.csv"
        write_pattern_csv(pattern, path)
        again = read_pattern_csv(path)
        assert np.array_equal(pattern.xs, again.xs)
        assert np.array_equal(pattern.values, again.values)
        assert np.array_equal(pattern.stderrs, again.stderrs)
        assert again.visibility == pattern.visibility

    def test_header_without_stderr(self, tmp_path):
        path = tmp_path / "p.csv"
        write_pattern_csv(sample_pattern(with_err=False), path)
        assert path.read_text().splitlines()[0] == "x_rad,g_value"
        assert read_pattern_csv(path).stderrs is None

    def test_header_with_stderr(self, tmp_path):
        path = tmp_path / "p.csv"
        write_pattern_csv(sample_pattern(), path)
        assert path.read_text().splitlines()[0] == "x_rad,g_value,stderr"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(MalformedFile):
            read_pattern_csv(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x_rad,g_value\n0.0,abc\n")
        with pytest.raises(MalformedFile):
            read_pattern_csv(path)


class TestJson:
    def test_round_trip_exact(self, tmp_path):
        pattern = sample_pattern()
        path = tmp_path / "p.json"
        write_pattern_json(pattern, path)
        again = read_pattern_json(path)
        assert np.array_equal(pattern.xs, again.xs)
        assert np.array_equal(pattern.values, again.values)
        assert np.array_equal(pattern.stderrs, again.stderrs)
        assert again.visibility == pattern.visibility

    def test_csv_and_json_agree(self, tmp_path):
        pattern = sample_pattern()
        write_pattern_csv(pattern, tmp_path / "p.csv")
        write_pattern_json(pattern, tmp_path / "p.json")
        a = read_pattern_csv(tmp_path / "p.csv")
        b = read_pattern_json(tmp_path / "p.json")
        assert np.max(np.abs(a.values - b.values)) < 1e-12
        assert np.max(np.abs(a.xs - b.xs)) < 1e-12

    def test_malformed(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 2")
        with pytest.raises(MalformedFile):
            read_pattern_json(path)

    def test_visibility_read_from_the_values(self, tmp_path):
        pattern = sample_pattern()
        path = tmp_path / "p.json"
        write_pattern_json(pattern, path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "visibility": 0.25}))
        assert read_pattern_json(path).visibility == pattern.visibility != 0.25


# Each ended in a TypeError, ValueError or UnicodeDecodeError, and the
# 0-d columns were read as a pattern that the CSV writer could not iterate.
@pytest.mark.parametrize("suffix, content, message", [
    (".json", b"[1, 2]", "expected an object, got list"),
    (".json", b'{"xs": 1, "values": 2}', "'xs' must be a list of numbers"),
    (".json", b'{"xs": [0, 1]}', "'values' must be a list of numbers"),
    (".json", b'{"xs": [[0, 1]], "values": [[1, 2]]}', "'xs' must be a list of numbers"),
    (".json", b'{"xs": [0], "values": ["1"]}', "'values' must be a list of numbers"),
    (".json", b'{"xs": [0], "values": [1], "stderrs": 0.1}',
     "'stderrs' must be a list of numbers"),
    (".json", b'{"xs": [0, 1], "values": [1, 2], "stderrs": [0.1]}',
     "stderrs must match values in shape"),
    (".json", b'{"xs": [0], "values": [1' + b"0" * 400 + b"]}", "int too large"),
    (".json", b'{"xs": [0], "values": [1\xff]}', "'utf-8' codec can't decode byte 0xff"),
    (".csv", b"x_rad,g_value\n0.0,1\xff\n", "'utf-8' codec can't decode byte 0xff"),
], ids=["list", "0-d", "no-values", "2-d", "string", "stderrs-number", "stderrs-length",
        "beyond-float", "json-utf-8", "csv-utf-8"])
def test_malformed_file_rejected(tmp_path, suffix, content, message):
    path = tmp_path / f"p{suffix}"
    path.write_bytes(content)
    with pytest.raises(MalformedFile, match=re.escape(message)):
        (read_pattern_json if suffix == ".json" else read_pattern_csv)(path)


# Each was read as a pattern whose visibility, or its error, came out nan
# or of the wrong sign.
@pytest.mark.parametrize("suffix, content, message", [
    (".csv", "x_rad,g_value\n0.0,nan\n1.0,2.0\n", "xs and values must be finite"),
    (".csv", "x_rad,g_value\n0.0,1.0\ninf,2.0\n", "xs and values must be finite"),
    (".csv", "x_rad,g_value,stderr\n0.0,1.0,-1\n1.0,2.0,0.1\n",
     "stderrs must be finite and nonnegative"),
    (".csv", "x_rad,g_value,stderr\n0.0,1.0,0.1\n1.0,2.0,nan\n",
     "stderrs must be finite and nonnegative"),
    (".json", '{"xs": [0, 1], "values": [NaN, 2]}', "xs and values must be finite"),
    (".json", '{"xs": [0, Infinity], "values": [1, 2]}', "xs and values must be finite"),
    (".json", '{"xs": [0, 1], "values": [1, 2], "stderrs": [-1, 0.1]}',
     "stderrs must be finite and nonnegative"),
    (".json", '{"xs": [0, 1], "values": [1, 2], "stderrs": [0.1, -Infinity]}',
     "stderrs must be finite and nonnegative"),
], ids=["csv-nan-value", "csv-inf-x", "csv-negative-stderr", "csv-nan-stderr",
        "json-nan-value", "json-inf-x", "json-negative-stderr", "json-inf-stderr"])
def test_non_finite_or_negative_columns_rejected(tmp_path, suffix, content, message):
    path = tmp_path / f"p{suffix}"
    path.write_text(content)
    kind = suffix[1:].upper()
    with pytest.raises(MalformedFile, match=re.escape(f"invalid pattern {kind}: {message}")):
        (read_pattern_json if suffix == ".json" else read_pattern_csv)(path)


@pytest.mark.parametrize("values, stderrs", [
    ([1.0, np.inf], None), ([np.nan, 1.0], None), ([1.0, 2.0], [0.1, -0.1]),
    ([1.0, 2.0], [0.1, np.nan])])
def test_pattern_rejects_non_finite_columns(values, stderrs):
    with pytest.raises(ValueError, match="must be finite"):
        InterferencePattern(xs=[0.0, 1.0], values=values, stderrs=stderrs)


# the CSV reader raised MalformedFile ("no data rows") and the JSON reader
# EmptyPattern
@pytest.mark.parametrize("suffix, content", [
    (".csv", "x_rad,g_value\n"), (".csv", "x_rad,g_value,stderr\n\n"),
    (".json", '{"xs": [], "values": []}')], ids=["csv", "csv-stderr", "json"])
def test_empty_pattern_raises_empty_pattern_in_both_formats(tmp_path, suffix, content):
    path = tmp_path / f"p{suffix}"
    path.write_text(content)
    with pytest.raises(EmptyPattern):
        (read_pattern_json if suffix == ".json" else read_pattern_csv)(path)


class TestSvg:
    def test_writes_valid_svg_with_all_elements(self, tmp_path):
        pattern = sample_pattern()
        path = tmp_path / "p.svg"
        write_pattern_svg(path, pattern, title="demo",
                          overlay=sample_pattern(with_err=False),
                          hline=0.3, hline_label="floor")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2
        assert "stroke-dasharray" in text
        assert "floor" in text

    def test_deterministic(self, tmp_path):
        pattern = sample_pattern()
        write_pattern_svg(tmp_path / "a.svg", pattern)
        write_pattern_svg(tmp_path / "b.svg", pattern)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
