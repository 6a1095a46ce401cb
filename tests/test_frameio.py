import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from icfsim import (
    FrameOptics,
    FrameReader,
    FrameStack,
    InterferencePattern,
    NoiseModel,
    RoiSpec,
    SourceModel,
    load_frames,
    roi_average,
    save_frames,
    synth_frames,
    write_pattern_csv,
)
import icfsim.frameio as frameio
import icfsim.frames as frames_module
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

    @pytest.mark.parametrize("header, message", [
        (b"P5\n0 5\n65535\n", "(byte 12): bad dimensions 0x5"),
        (b"P5\n2 2\n70000\n", "(byte 12): maxval 70000 out of range"),
        (b"P5\n2", "(byte 4): unexpected end of header"),
    ], ids=["zero-width", "maxval", "cut-short"])
    def test_bad_header_fields(self, tmp_path, header, message):
        path = tmp_path / "odd.pgm"
        path.write_bytes(header)
        with pytest.raises(MalformedFile, match=re.escape(message)):
            read_pgm(path)

    def test_float_stack_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "f.pgm", np.array([[1.5]]))

    # check_pixels at 16 bits is the PGM pixel rule, and nothing is written
    # for a frame that fails it
    @pytest.mark.parametrize("image, message", [
        (np.array([[1.5]]), "bit-depth-limited stacks must hold integer values"),
        (np.array([[math.nan]]), "pixel values must be finite"),
        (np.array([[-1]]), "pixel values must be nonnegative"),
        (np.array([[65536]], dtype=np.uint32), "pixel values exceed the 16-bit range"),
    ], ids=["fraction", "nan", "negative", "beyond-16-bit"])
    def test_pixel_rule_messages(self, tmp_path, image, message):
        path = tmp_path / "f.pgm"
        with pytest.raises(ValueError, match=message):
            write_pgm(path, image)
        assert not path.exists()

    def test_integral_float_frame_written_as_its_integers(self, tmp_path):
        write_pgm(tmp_path / "f.pgm", np.array([[0.0, -0.0, 7.0, 65535.0]]))
        write_pgm(tmp_path / "i.pgm", np.array([[0, 0, 7, 65535]], dtype=np.uint16))
        assert (tmp_path / "f.pgm").read_bytes() == (tmp_path / "i.pgm").read_bytes()


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

    def test_empty_frame_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedFile, match="empty.csv:1: no pixel rows"):
            read_frame_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,2\n3,four\n")
        with pytest.raises(MalformedFile) as err:
            read_frame_csv(path)
        assert err.value.line == 2


def per_element_frame_csv(image):
    """A CSV frame as the writer once formatted it, one element at a time."""
    integral = np.issubdtype(image.dtype, np.integer)
    return "".join(",".join(str(int(v)) if integral else repr(float(v)) for v in row) + "\n"
                   for row in image)


def per_element_pattern_csv(pattern):
    """A pattern CSV as the writer once formatted it, one element at a time."""
    if pattern.stderrs is None:
        return "x_rad,g_value\n" + "".join(
            f"{float(x)!r},{float(v)!r}\n" for x, v in zip(pattern.xs, pattern.values))
    return "x_rad,g_value,stderr\n" + "".join(
        f"{float(x)!r},{float(v)!r},{float(e)!r}\n"
        for x, v, e in zip(pattern.xs, pattern.values, pattern.stderrs))


def test_csv_writers_match_per_element_formatters(tmp_path):
    specials = [-0.0, 5e-324, 0.1, 1e308, 2 ** 53 + 1]
    tiny32, max32 = np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max
    frames = {
        "uint16": np.array([[0, 1, 65535], [7, 300, 4095]], dtype=np.uint16),
        "int64": np.array([[-2 ** 63, -1, 0], [1, 2 ** 53 + 1, 2 ** 63 - 1]], dtype=np.int64),
        "uint64": np.array([[0, 2 ** 64 - 1]], dtype=np.uint64),
        "float64": np.array([specials, specials[::-1]], dtype=np.float64),
        "float32": np.array([[-0.0, tiny32, 0.1], [max32, 2 ** 53 + 1, 1.5]], dtype=np.float32),
    }
    for name, image in frames.items():
        path = tmp_path / f"{name}.csv"
        write_frame_csv(path, image)
        assert path.read_text() == per_element_frame_csv(image), name
    xs = np.array(specials)
    for stderrs in (None, np.array(specials[::-1])):
        pattern = InterferencePattern(xs=xs, values=np.array(specials[::-1]), stderrs=stderrs)
        path = tmp_path / "pattern.csv"
        write_pattern_csv(pattern, path)
        assert path.read_text() == per_element_pattern_csv(pattern), stderrs is None


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
        ({"frames": []}, "manifest lists no frames"),
        ({"format": "tiff"}, "unknown frame format 'tiff'"),
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

    @pytest.mark.parametrize("width", [1, 3])
    def test_period_too_narrow_to_estimate_names_the_manifest(self, tmp_path, width):
        # ended in frames.estimate_fringe_period's bare ValueError
        frames = [np.arange(2 * width, dtype=np.uint16).reshape(2, width)] * 2
        d = write_stack(tmp_path / "stack", frames, "pgm", {}, period=None)
        with pytest.raises(MalformedFile, match=re.escape(
                f"manifest.json: no fringe_period_px, and frames {width} px wide are too "
                "narrow to estimate one; pass --period-px")):
            FrameReader(d)
        assert FrameReader(d, fringe_period_px=2.0).fringe_period_px == 2.0

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


BLOCK = 3  # frames per block in TestBlocks


def pgm_bytes(image, header=None, maxval=65535, tail=b""):
    """A P5 file of ``image`` under ``header`` (default: the one write_pgm writes)."""
    height, width = image.shape
    header = header or f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    return header + image.astype(">u2" if maxval > 255 else np.uint8).tobytes() + tail


def small_blocks(monkeypatch, fmt="pgm"):
    """Set the block budget to BLOCK 4x6 frames as read (16-bit PGM, float64 CSV)."""
    monkeypatch.setattr(frames_module, "_BLOCK_BYTES", BLOCK * 4 * 6 * (2 if fmt == "pgm" else 8))


class TestBlocks:
    """FrameReader reads a stack in blocks of ``frames.block_frames`` frames."""

    def test_budget_holds_at_least_one_frame(self):
        assert frames_module._BLOCK_BYTES == 1 << 20
        assert frames_module.block_frames(600 * 50 * 2) == 17
        assert frames_module.block_frames(2 << 20) == 1
        assert frames_module.block_frames(1 << 20) == 1

    @pytest.mark.parametrize("fmt", ["pgm", "csv"])
    @pytest.mark.parametrize("n, sizes", [(1, [1]), (BLOCK, [BLOCK]), (BLOCK + 1, [BLOCK, 1]),
                                          (2 * BLOCK + 2, [BLOCK, BLOCK, 2])],
                             ids=["one-frame", "one-block", "block-plus-one", "three-blocks"])
    def test_block_edges(self, tmp_path, monkeypatch, fmt, n, sizes):
        frames = np.random.default_rng(n).integers(0, 4096, (n, 4, 6), dtype=np.uint16)
        frames[-1, 2, 3] = 4095
        d = write_stack(tmp_path / "stack", frames, fmt, {"bit_depth": 12})
        small_blocks(monkeypatch, fmt)
        reader = FrameReader(d)
        blocks = [block.copy() for block in reader.blocks()]
        assert [len(b) for b in blocks] == sizes
        assert all(b.dtype == np.uint16 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), frames)
        loaded = load_frames(d)
        assert np.array_equal(loaded.frames, frames) and loaded.frames.dtype == np.uint16
        roi = RoiSpec(1, 1, 5, 3, 2)
        series = roi_average(reader, roi)
        reference = [f[1:4, 1:6].mean(axis=0, dtype=np.float64) for f in frames]
        assert series.profiles.tobytes() == np.array(reference).tobytes()
        assert series.saturated_pixels == 1

    def test_default_budget_block_plus_one(self, tmp_path):
        stack = synth_frames(SourceModel.thermal(), FrameOptics(), n=18, seed=3)
        reader = FrameReader(save_frames(stack, tmp_path / "stack"))
        assert [len(block) for block in reader.blocks()] == [17, 1]
        assert roi_average(reader).profiles.tobytes() == roi_average(stack).profiles.tobytes()

    def test_blocks_reuse_one_array(self, tmp_path, monkeypatch):
        frames = np.arange(7 * 4 * 6, dtype=np.uint16).reshape(7, 4, 6)
        small_blocks(monkeypatch)
        reader = FrameReader(write_stack(tmp_path / "stack", frames, "pgm", {}))
        bases = {id(block.base) for block in reader.blocks()}
        assert len(bases) == 1
        # a second pass reads the stack again, the first frame included
        assert np.array_equal(np.concatenate([b.copy() for b in reader.blocks()]), frames)

    def test_8_bit_and_commented_frames_inside_a_stack(self, tmp_path, monkeypatch):
        small_blocks(monkeypatch)
        frames = np.random.default_rng(1).integers(0, 256, (5, 4, 6), dtype=np.uint16)
        d = write_stack(tmp_path / "stack", frames, "pgm", {"bit_depth": 8})
        (d / "frame_0001.pgm").write_bytes(pgm_bytes(frames[1], maxval=255))
        commented = b"#a\nP5 # b\n#c\n6\n# d\n4\t#e\n\n 255\n"
        (d / "frame_0003.pgm").write_bytes(pgm_bytes(frames[3], commented, maxval=255))
        (d / "frame_0004.pgm").write_bytes(pgm_bytes(frames[4], b"P5\n6 #\n4 #\n300 "))
        assert np.array_equal(next(FrameReader(d).blocks()), frames[:BLOCK])
        assert np.array_equal(load_frames(d).frames, frames)
        # a "#" inside a field is part of it, not a comment
        (d / "frame_0004.pgm").write_bytes(pgm_bytes(frames[4], b"#x\nP5#y\n6 4 300\n"))
        with pytest.raises(MalformedFile, match=re.escape(
                "frame_0004.pgm (byte 0): not a binary PGM (magic b'P5#y')")):
            load_frames(d)

    @pytest.mark.parametrize("header", [b"P5\n6 4\n65535\n", b"P5\n6  4\n65535\n"],
                             ids=["odd-length", "even-length"])
    def test_unaligned_raster_and_trailing_bytes(self, tmp_path, monkeypatch, header):
        small_blocks(monkeypatch)
        frames = np.random.default_rng(2).integers(0, 65536, (5, 4, 6), dtype=np.uint16)
        d = write_stack(tmp_path / "stack", frames, "pgm", {"bit_depth": 16})
        for j in (1, 3):
            (d / f"frame_{j:04d}.pgm").write_bytes(pgm_bytes(frames[j], header, tail=b"\x07" * 5))
        assert np.array_equal(load_frames(d).frames, frames)
        out = np.empty((4, 6), dtype=np.uint16)
        assert read_pgm(d / "frame_0001.pgm", out=out) is out
        assert np.array_equal(out, frames[1])

    def test_read_into_a_frame_of_another_shape(self, tmp_path):
        path = tmp_path / "frame.pgm"
        write_pgm(path, np.ones((4, 6), dtype=np.uint16))
        out = np.zeros((4, 7), dtype=np.uint16)
        with pytest.raises(InconsistentDimensions,
                           match=re.escape(f"{path}: frame shape (4, 6) does not match (4, 7)")):
            read_pgm(path, out=out)
        assert not out.any()

    # frame k holds a 13-bit value in a 12-bit stack; frame k + 1 is bad too
    @pytest.mark.parametrize("k", [3, 2], ids=["same-block", "across-blocks"])
    @pytest.mark.parametrize("second", ["shape", "truncated", "missing", "pixel"])
    def test_first_bad_frame_is_named(self, tmp_path, monkeypatch, k, second):
        small_blocks(monkeypatch)
        frames = [np.zeros((4, 6), dtype=np.uint16) for _ in range(8)]
        frames[k][1, 1] = 5000
        if second == "shape":
            frames[k + 1] = np.zeros((4, 7), dtype=np.uint16)
        elif second == "pixel":
            frames[k + 1][0, 0] = 65535
        d = write_stack(tmp_path / "stack", frames, "pgm", {"bit_depth": 12})
        if second == "truncated":
            (d / f"frame_{k + 1:04d}.pgm").write_bytes(b"P5\n6 4\n65535\n\x00")
        elif second == "missing":
            (d / f"frame_{k + 1:04d}.pgm").unlink()
        named = re.escape(f"frame_{k:04d}.pgm: pixel values exceed the 12-bit range")
        with pytest.raises(MalformedFile, match=named):
            load_frames(d)
        with pytest.raises(MalformedFile, match=named):
            roi_average(FrameReader(d), RoiSpec(0, 0, 6, 4, 3))

    # frame k fails to decode; frame k + 1 holds a 13-bit value in a 12-bit stack
    @pytest.mark.parametrize("k", [3, 2], ids=["same-block", "across-blocks"])
    @pytest.mark.parametrize("fmt", ["pgm", "csv"])
    @pytest.mark.parametrize("first", ["truncated", "missing"])
    def test_decode_error_before_a_later_pixel_error(self, tmp_path, monkeypatch, k, fmt,
                                                     first):
        small_blocks(monkeypatch, fmt)
        frames = [np.zeros((4, 6), dtype=np.uint16) for _ in range(8)]
        frames[k + 1][1, 1] = 5000
        d = write_stack(tmp_path / "stack", frames, fmt, {"bit_depth": 12})
        path = d / f"frame_{k:04d}.{fmt}"
        if first == "missing":
            path.unlink()
            error, named = FileNotFoundError, re.escape(str(path))
        elif fmt == "pgm":
            path.write_bytes(b"P5\n6 4\n65535\n\x00")
            error, named = MalformedFile, re.escape(
                f"{path} (byte 14): truncated pixel data (expected 48 bytes, found 1)")
        else:
            path.write_text("0,0,0,0,0,0\n0,0,0")
            error, named = MalformedFile, re.escape(f"{path}:2: row has 3 values, expected 6")
        with pytest.raises(error, match=named):
            load_frames(d)
        with pytest.raises(error, match=named):
            roi_average(FrameReader(d), RoiSpec(0, 0, 6, 4, 3))

    @pytest.mark.parametrize("fmt", ["pgm", "csv"])
    def test_each_frame_decoded_once(self, tmp_path, monkeypatch, fmt):
        small_blocks(monkeypatch, fmt)
        frames = np.random.default_rng(5).integers(0, 4096, (2 * BLOCK + 1, 4, 6),
                                                   dtype=np.uint16)
        d = write_stack(tmp_path / "stack", frames, fmt, {"bit_depth": 12})
        decoded = []
        for name in ("read_pgm", "read_frame_csv"):
            def counted(path, out=None, read=getattr(frameio, name)):
                decoded.append(Path(path).name)
                return read(path, out)
            monkeypatch.setattr(frameio, name, counted)
        reader = FrameReader(d)
        assert decoded == [f"frame_0000.{fmt}"]  # the first frame, at construction
        assert np.array_equal(np.concatenate([b.copy() for b in reader.blocks()]), frames)
        assert decoded == [f"frame_{j:04d}.{fmt}" for j in range(len(frames))]

    @pytest.mark.parametrize("k", [3, 2], ids=["same-block", "across-blocks"])
    def test_shape_error_before_a_pixel_error(self, tmp_path, monkeypatch, k):
        small_blocks(monkeypatch)
        frames = [np.zeros((4, 6), dtype=np.uint16) for _ in range(8)]
        frames[k] = np.zeros((5, 6), dtype=np.uint16)
        frames[k + 1][1, 1] = 5000
        d = write_stack(tmp_path / "stack", frames, "pgm", {"bit_depth": 12})
        with pytest.raises(InconsistentDimensions, match=f"frame_{k:04d}.pgm: frame shape"):
            roi_average(FrameReader(d), RoiSpec(0, 0, 6, 4, 3))

    def test_first_pixel_error_message_in_a_block(self, tmp_path, monkeypatch):
        small_blocks(monkeypatch, "csv")
        # a block holding a too-large value and, later, a NaN fails on the
        # NaN first; the frame-by-frame message names the earlier frame
        frames = [np.ones((4, 6)) for _ in range(BLOCK)]
        frames[1][0, 0] = 70000.0
        frames[2][0, 0] = np.nan
        d = write_stack(tmp_path / "stack", frames, "csv", {"bit_depth": 16})
        with pytest.raises(MalformedFile,
                           match=re.escape("frame_0001.csv: pixel values exceed the 16-bit range")):
            roi_average(FrameReader(d), RoiSpec(0, 0, 6, 4, 3))

    @pytest.mark.parametrize("fmt, value", [("pgm", 5000), ("csv", 5000.5)])
    @pytest.mark.parametrize("k", [4, 3, 1], ids=["mid-block", "block-start", "first-block"])
    def test_pixels_of_a_frame_of_another_shape_come_first(self, tmp_path, monkeypatch,
                                                           fmt, value, k):
        # a frame of another shape that also holds a bad pixel is named for
        # its pixels, as when each frame was checked as it was read
        small_blocks(monkeypatch, fmt)
        frames = [np.zeros((4, 6)) for _ in range(8)]
        frames[k] = np.zeros((4, 7))
        frames[k][2, 5] = value
        d = write_stack(tmp_path / "stack", frames, fmt, {"bit_depth": 12})
        named = re.escape(f"frame_{k:04d}.{fmt}: pixel values exceed the 12-bit range")
        with pytest.raises(MalformedFile, match=named):
            load_frames(d)
        with pytest.raises(MalformedFile, match=named):
            roi_average(FrameReader(d), RoiSpec(0, 0, 6, 4, 3))
