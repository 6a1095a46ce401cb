import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from icfsim import (
    FrameOptics,
    FrameReader,
    FrameStack,
    NoiseModel,
    RoiSpec,
    SourceModel,
    load_frames,
    roi_average,
    save_frames,
    synth_frames,
)
from icfsim.cli import main
from icfsim.errors import BadOptics, InconsistentDimensions, MalformedFile
from icfsim.frameio import read_frame_csv, read_pgm, write_frame_csv, write_pgm


def random_stack(rng, n=4, h=6, w=10, maxval=65535):
    frames = rng.integers(0, maxval + 1, (n, h, w), dtype=np.uint16)
    return FrameStack(frames=frames, fringe_period_px=5.0,
                      metadata={"bit_depth": 16})


class TestPgm:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 65536, (7, 11), dtype=np.uint16)
        path = tmp_path / "frame.pgm"
        write_pgm(path, image)
        again = read_pgm(path)
        assert np.array_equal(image, again)
        assert again.dtype == np.uint16

    def test_header_is_binary_16_bit(self, tmp_path):
        path = tmp_path / "frame.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint16))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 2\n65535\n")
        assert len(raw) == len(b"P5\n3 2\n65535\n") + 2 * 3 * 2

    def test_big_endian_samples(self, tmp_path):
        path = tmp_path / "frame.pgm"
        write_pgm(path, np.array([[0x0102]], dtype=np.uint16))
        assert path.read_bytes().endswith(b"\x01\x02")

    def test_reads_8_bit_files(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 7]))
        arr = read_pgm(path)
        assert np.array_equal(arr, [[0, 128], [255, 7]])

    @pytest.mark.parametrize("header", [b"P5\t2\t2\t255\n", b"P5\r2\r2\r255\r",
                                        b"P5   2  \t 2 \r\n\n  255\n"])
    def test_header_fields_split_by_any_whitespace_run(self, tmp_path, header):
        path = tmp_path / "gray.pgm"
        path.write_bytes(header + bytes([0, 128, 255, 7]))
        assert np.array_equal(read_pgm(path), [[0, 128], [255, 7]])

    def test_unterminated_comment(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n2 2 # no newline after this")
        with pytest.raises(MalformedFile, match="unterminated comment") as err:
            read_pgm(path)
        assert err.value.offset == 7
        assert "(byte 7)" in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(MalformedFile):
            read_pgm(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n65535\n\x00\x01")
        with pytest.raises(MalformedFile) as err:
            read_pgm(path)
        assert "truncated" in str(err.value)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "odd.pgm"
        path.write_bytes(b"P5\nwide tall\n255\n")
        with pytest.raises(MalformedFile):
            read_pgm(path)

    def test_float_stack_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "f.pgm", np.array([[1.5]]))


class TestCsvFrames:
    def test_integer_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 1000, (5, 8))
        path = tmp_path / "frame.csv"
        write_frame_csv(path, image)
        assert np.array_equal(read_frame_csv(path), image)

    def test_float_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        image = rng.uniform(0, 100, (4, 4))
        path = tmp_path / "frame.csv"
        write_frame_csv(path, image)
        assert np.array_equal(read_frame_csv(path), image)

    def test_negative_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1,2,3\n4,-5,6\n")
        with pytest.raises(MalformedFile) as err:
            read_frame_csv(path)
        assert err.value.line == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(MalformedFile):
            read_frame_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,2\n3,four\n")
        with pytest.raises(MalformedFile) as err:
            read_frame_csv(path)
        assert err.value.line == 2


class TestStackRoundTrip:
    @pytest.mark.parametrize("fmt", ["pgm", "csv"])
    def test_bit_identical(self, tmp_path, fmt):
        stack = random_stack(np.random.default_rng(4))
        manifest = save_frames(stack, tmp_path / "stack", fmt=fmt)
        again = load_frames(manifest)
        assert np.array_equal(stack.frames, again.frames)
        assert again.frames.dtype == stack.frames.dtype
        assert again.fringe_period_px == stack.fringe_period_px
        assert again.metadata == stack.metadata

    def test_zero_padded_names(self, tmp_path):
        stack = random_stack(np.random.default_rng(5), n=3)
        save_frames(stack, tmp_path / "stack")
        names = sorted(p.name for p in (tmp_path / "stack").glob("*.pgm"))
        assert names == ["frame_0000.pgm", "frame_0001.pgm", "frame_0002.pgm"]

    def test_load_from_directory(self, tmp_path):
        stack = random_stack(np.random.default_rng(6))
        save_frames(stack, tmp_path / "stack")
        again = load_frames(tmp_path / "stack")
        assert np.array_equal(stack.frames, again.frames)

    def test_synthetic_stack_round_trip(self, tmp_path):
        stack = synth_frames(SourceModel.thermal(),
                             FrameOptics(frame_width=64, frame_height=8),
                             n=6, seed=7)
        manifest = save_frames(stack, tmp_path / "stack")
        again = load_frames(manifest)
        assert np.array_equal(stack.frames, again.frames)

    def test_inconsistent_dimensions(self, tmp_path):
        d = tmp_path / "stack"
        d.mkdir()
        write_pgm(d / "frame_0000.pgm", np.zeros((4, 4), dtype=np.uint16))
        write_pgm(d / "frame_0001.pgm", np.zeros((4, 5), dtype=np.uint16))
        (d / "manifest.json").write_text(json.dumps({
            "format": "pgm", "fringe_period_px": 4.0,
            "frames": ["frame_0000.pgm", "frame_0001.pgm"], "metadata": {}}))
        with pytest.raises(InconsistentDimensions):
            load_frames(d)

    def test_supplied_period_wins_over_manifest(self, tmp_path):
        stack = random_stack(np.random.default_rng(8))
        manifest = save_frames(stack, tmp_path / "stack")
        again = load_frames(manifest, fringe_period_px=9.0)
        assert again.fringe_period_px == 9.0

    def test_zero_supplied_period_rejected(self, tmp_path):
        # a falsy supplied period fell back to the manifest's
        manifest = save_frames(random_stack(np.random.default_rng(8)), tmp_path / "stack")
        with pytest.raises(BadOptics, match="positive"):
            FrameReader(manifest, fringe_period_px=0.0)
        with pytest.raises(BadOptics, match="positive"):
            load_frames(manifest, fringe_period_px=0.0)
        code = main(["process", str(manifest), "--period-px", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert not any(tmp_path.glob("run*"))

    def test_missing_period_is_fitted(self, tmp_path):
        stack = synth_frames(SourceModel.coherent(),
                             FrameOptics(noise=NoiseModel.none(), bit_depth=16,
                                         frame_width=600, frame_height=2),
                             n=2, seed=9)
        d = tmp_path / "stack"
        manifest = save_frames(stack, d)
        data = json.loads(manifest.read_text())
        data["fringe_period_px"] = None
        manifest.write_text(json.dumps(data))
        again = load_frames(manifest)
        assert again.fringe_period_px == pytest.approx(60.0, abs=0.5)

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        # json.loads refuses an integer of over 4300 digits with a ValueError
        for text in ("{not json", '{"fringe_period_px": 1' + "0" * 5000 + "}"):
            path.write_text(text)
            with pytest.raises(MalformedFile, match="invalid manifest JSON"):
                load_frames(path)


def write_stack(directory, frames, fmt, metadata, period=4.0):
    directory.mkdir()
    names = []
    for j, frame in enumerate(frames):
        names.append(f"frame_{j:04d}.{fmt}")
        (write_pgm if fmt == "pgm" else write_frame_csv)(directory / names[-1], frame)
    (directory / "manifest.json").write_text(json.dumps({
        "format": fmt, "fringe_period_px": period, "frames": names,
        "metadata": metadata}))
    return directory


class TestFrameReader:
    @pytest.mark.parametrize("fmt", ["pgm", "csv"])
    @pytest.mark.parametrize("roi", [None, RoiSpec(x0=7, y0=2, width=40, height=5,
                                                   reference_column=21)])
    @pytest.mark.parametrize("period", [20.0, None])
    def test_profiles_match_loaded_stack(self, tmp_path, fmt, roi, period):
        stack = synth_frames(SourceModel.thermal(),
                             FrameOptics(fringe_period_px=20.0, frame_width=64,
                                         frame_height=8),
                             n=12, seed=11)
        manifest = save_frames(stack, tmp_path / "stack", fmt=fmt)
        data = json.loads(manifest.read_text())
        data["fringe_period_px"] = period
        manifest.write_text(json.dumps(data))
        roi = roi or RoiSpec(width=64, height=8, reference_column=32)
        streamed = roi_average(FrameReader(manifest), roi)
        loaded = load_frames(manifest)
        in_memory = roi_average(loaded, roi)
        assert np.array_equal(streamed.profiles, in_memory.profiles)
        assert streamed.pixel_to_phase == in_memory.pixel_to_phase
        assert streamed.saturated_pixels == in_memory.saturated_pixels
        block = loaded.frames[:, roi.y0:roi.y0 + roi.height, roi.x0:roi.x0 + roi.width]
        assert np.array_equal(streamed.profiles, block.mean(axis=1, dtype=np.float64))

    def test_mismatched_shape_mid_stack(self, tmp_path):
        frames = [np.zeros((4, 6), dtype=np.uint16)] * 5
        frames[2] = np.zeros((4, 7), dtype=np.uint16)
        d = write_stack(tmp_path / "stack", frames, "pgm", {})
        with pytest.raises(InconsistentDimensions, match="frame_0002"):
            load_frames(d)
        with pytest.raises(InconsistentDimensions, match="frame_0002"):
            roi_average(FrameReader(d), RoiSpec(0, 0, 6, 4, 3))

    def test_nonpositive_manifest_period_rejected(self, tmp_path):
        frames = [np.zeros((4, 6), dtype=np.uint16)] * 2
        d = write_stack(tmp_path / "stack", frames, "pgm", {}, period=-4.0)
        with pytest.raises(BadOptics):
            FrameReader(d)
        # an infinite period, in the manifest or supplied, gave a fringe
        # visibility of 2
        for period in (math.inf, math.nan):
            d = write_stack(tmp_path / f"stack-{period}", frames, "pgm", {}, period=period)
            with pytest.raises(BadOptics, match="finite"):
                FrameReader(d)
        with pytest.raises(BadOptics, match="finite"):
            FrameReader(tmp_path / "stack", fringe_period_px=math.inf)

    # each ended in a ValueError, AttributeError or a missing file "x"
    @pytest.mark.parametrize("edit, named", [
        ({"fringe_period_px": "abc"}, "fringe_period_px must be a number, got 'abc'"),
        ({"fringe_period_px": True}, "fringe_period_px must be a number, got True"),
        ({"fringe_period_px": [4.0]}, "fringe_period_px must be a number"),
        ({"metadata": [1]}, "metadata must be an object or null"),
        ({"metadata": "x"}, "metadata must be an object or null"),
        ({"frames": "x"}, "frames must be a list of file names"),
        ({"frames": ["frame_0000.pgm", 1]}, "frames must be a list of file names"),
        ({"frames": None}, "frames must be a list of file names"),
        # float() of these raised OverflowError
        ({"fringe_period_px": 10 ** 400},
         "fringe_period_px must be within float range, got an integer of 401 digits"),
        ({"fringe_period_px": -10 ** 309},
         "fringe_period_px must be within float range, got an integer of 310 digits"),
    ])
    def test_manifest_field_of_wrong_type_rejected(self, tmp_path, edit, named):
        frames = [np.zeros((4, 6), dtype=np.uint16)] * 2
        d = write_stack(tmp_path / "stack", frames, "pgm", {})
        data = json.loads((d / "manifest.json").read_text())
        (d / "manifest.json").write_text(json.dumps({**data, **edit}))
        with pytest.raises(MalformedFile, match="manifest.json: " + re.escape(named)):
            FrameReader(d)

    @pytest.mark.parametrize("manifest", [[1, 2], "stack", 4.0, None])
    def test_manifest_not_an_object_rejected(self, tmp_path, manifest):
        d = tmp_path / "stack"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(MalformedFile, match="manifest must be a JSON object"):
            FrameReader(d)

    def test_null_metadata_and_period_accepted(self, tmp_path):
        frames = [np.tile(np.array([0, 9, 0, 9], dtype=np.uint16), (2, 4))] * 2
        d = write_stack(tmp_path / "stack", frames, "pgm", None, period=None)
        reader = FrameReader(d)
        assert reader.metadata == {}
        assert reader.fringe_period_px == pytest.approx(2.0)

    @pytest.mark.parametrize("fmt, bit_depth, value", [
        ("csv", 16, 70000.0),   # would wrap to 4464 if cast first
        ("csv", 16, 3.5),       # not integral
        ("pgm", 12, 5000),      # inside 16 bits, outside 12
        ("csv", 40, 2.0 ** 33),  # no integer dtype holds 40 bits
        ("csv", 0, 1.0), ("csv", 33, 1.0), ("csv", 8.5, 1.0), ("csv", True, 1.0),
    ])
    def test_values_checked_before_cast(self, tmp_path, fmt, bit_depth, value):
        frames = [np.zeros((2, 3)) for _ in range(3)]
        frames[1][1, 2] = value
        if fmt == "pgm":
            frames = [f.astype(np.uint16) for f in frames]
        d = write_stack(tmp_path / "stack", frames, fmt, {"bit_depth": bit_depth})
        bad = f"frame_0001.{fmt}" if bit_depth in (12, 16) else "manifest.json"
        with pytest.raises(MalformedFile, match=bad):
            load_frames(d)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_float_pixel_rejected(self, tmp_path, value):
        frames = [np.ones((2, 3)) for _ in range(3)]
        frames[1][0, 1] = value
        d = write_stack(tmp_path / "stack", frames, "csv", {})
        with pytest.raises(MalformedFile, match="frame_0001.csv"):
            load_frames(d)
        with pytest.raises(MalformedFile, match="frame_0001.csv"):
            roi_average(FrameReader(d), RoiSpec(0, 0, 3, 2, 1))

    def test_memory_stays_below_the_stack(self, tmp_path):
        stack = synth_frames(SourceModel.coherent(),
                             FrameOptics(noise=NoiseModel.none()), n=200, seed=12)
        manifest = save_frames(stack, tmp_path / "stack")
        stack_bytes = stack.frames.nbytes
        del stack
        tracemalloc.start()
        try:
            assert main(["process", str(manifest), "--out", str(tmp_path / "run")]) == 0
            process_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_frames(manifest)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.frames.nbytes == stack_bytes
        assert process_peak < stack_bytes
        assert load_peak < 1.5 * stack_bytes
