"""Frame-stack file formats.

A stack on disk is a JSON manifest next to one file per frame:

    manifest.json   {"format": "pgm" | "csv", "fringe_period_px": ...,
                     "frames": ["frame_0000.pgm", ...], "metadata": {...}}

PGM frames are binary 16-bit P5 (big-endian samples, maxval 65535), one
frame per file with a zero-padded index suffix.  CSV frames hold one row of
comma-separated values per pixel row.  Integer stacks round-trip losslessly
through either format.

``FrameReader`` reads a stack in blocks of about 1 MB of pixels
(``frames.block_frames``), so ``process`` holds one block at a time.  A good
block is decoded once and checked once; a block that fails is re-read frame
by frame.  ``load_frames`` fills a whole-stack array from the same blocks.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

from .errors import BadOptics, InconsistentDimensions, MalformedFile
from .frames import (
    FrameStack,
    block_frames,
    check_period,
    check_pixels,
    estimate_fringe_period,
    pixel_format,
)

MANIFEST_NAME = "manifest.json"
# One PGM header token, after the whitespace and "#" comments before it; the
# token group is empty at the end of the data and at a comment that no
# newline ends.
_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*\n)*([^ \t\r\n#][^ \t\r\n]*)?")


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D frame whose pixels pass ``check_pixels`` at 16 bits as P5."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"PGM frames must be 2-D, got shape {arr.shape}")
    check_pixels(arr, 16)
    height, width = arr.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + arr.astype(">u2").tobytes())


def _into(path, frame: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``frame``, or ``out`` holding a copy of it; InconsistentDimensions
    naming ``path`` if their shapes differ."""
    if out is None:
        return frame
    if frame.shape != out.shape:
        raise InconsistentDimensions(f"{path}: frame shape {frame.shape} does not match {out.shape}")
    out[...] = frame
    return out


def read_pgm(path, out: np.ndarray | None = None) -> np.ndarray:
    """Read a binary P5 frame (8- or 16-bit samples per the maxval).

    Returns a new uint16 array, or decodes into ``out``, a (height, width)
    array, and returns it; a frame of another shape raises
    InconsistentDimensions before ``out`` is touched.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        match = _TOKEN.match(data, pos)
        pos = match.end()
        if match[1] is None:
            if pos < len(data):  # stopped at a "#" that no newline ends
                raise MalformedFile(path, "unterminated comment in header", offset=pos)
            raise MalformedFile(path, "unexpected end of header", offset=pos)
        return match[1]

    magic = token()
    if magic != b"P5":
        raise MalformedFile(path, f"not a binary PGM (magic {magic!r})", offset=0)
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise MalformedFile(path, "non-numeric header field", offset=pos) from None
    if width < 1 or height < 1:
        raise MalformedFile(path, f"bad dimensions {width}x{height}", offset=pos)
    if not 0 < maxval < 65536:
        raise MalformedFile(path, f"maxval {maxval} out of range", offset=pos)
    pos += 1  # exactly one whitespace byte separates the header from the raster
    dtype = ">u2" if maxval > 255 else np.uint8
    count = width * height
    expected = count * (2 if maxval > 255 else 1)
    if len(data) - pos < expected:
        raise MalformedFile(path, f"truncated pixel data "
                            f"(expected {expected} bytes, found {len(data) - pos})",
                            offset=len(data))
    raster = np.frombuffer(data, dtype=dtype, count=count, offset=pos).reshape(height, width)
    # one copy either way, swapping the bytes of 16-bit samples as it goes
    return raster.astype(np.uint16) if out is None else _into(path, raster, out)


def write_frame_csv(path, image: np.ndarray) -> None:
    """Write one frame as CSV, one pixel row per line."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"CSV frames must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(np.float64)
    with open(path, "w") as fh:
        for row in arr.tolist():  # Python ints and floats, whose repr is exact
            fh.write(",".join(map(repr, row)) + "\n")


def read_frame_csv(path, out: np.ndarray | None = None) -> np.ndarray:
    """Read a CSV frame as float64; ``out`` as for ``read_pgm``."""
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                raise MalformedFile(path, "non-numeric pixel value", line=lineno) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MalformedFile(path, f"row has {len(row)} values, expected {width}",
                                    line=lineno)
            if min(row) < 0:
                raise MalformedFile(path, "negative pixel value", line=lineno)
            rows.append(row)
    if not rows:
        raise MalformedFile(path, "no pixel rows", line=1)
    return _into(path, np.array(rows), out)


def _frame_name(index: int, n: int, ext: str) -> str:
    pad = max(4, len(str(n - 1)))
    return f"frame_{index:0{pad}d}.{ext}"


def save_frames(stack: FrameStack, directory, fmt: str = "pgm") -> Path:
    """Write a stack as a manifest plus per-frame files; returns the manifest path."""
    if fmt not in ("pgm", "csv"):
        raise ValueError(f"format must be 'pgm' or 'csv', got {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = [_frame_name(j, stack.n_frames, fmt) for j in range(stack.n_frames)]
    write = write_pgm if fmt == "pgm" else write_frame_csv
    for name, frame in zip(names, stack.frames):
        write(directory / name, frame)
    manifest = {
        "format": fmt,
        "fringe_period_px": stack.fringe_period_px,
        "frames": names,
        "metadata": stack.metadata,
    }
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


class FrameReader:
    """One pass over a stack on disk, in blocks of checked frames.

    Parses the manifest (a path to it or to its directory; a field of the
    wrong JSON type raises ``MalformedFile`` naming it) and reads the
    first frame for the shape, and for the fringe period when neither the
    caller nor the manifest gives one; a supplied ``fringe_period_px`` wins
    over the manifest value.  ``blocks()`` yields every frame in manifest
    order, ``frames.block_frames`` frames at a time (about 1 MB of pixels,
    at least one frame), decoded into one array that every block reuses, so
    the reader holds one block of the stack at a time.  A good block is
    decoded once and checked once, before a bit-depth-limited stack is cast
    to its integer dtype; a block that fails is re-read frame by frame
    through ``_read``, the one rule for which error a stack raises: each
    frame, decoded on its own, passes ``check_pixels`` on its values as read
    (``MalformedFile`` naming the frame file) and then must match the first
    frame's shape (``InconsistentDimensions``).  So the first bad frame is
    named, and for its pixels before its shape.
    """

    def __init__(self, path, fringe_period_px: float | None = None):
        path = Path(path)
        manifest_path = path / MANIFEST_NAME if path.is_dir() else path
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:  # bad JSON, bad UTF-8, or an integer of over 4300 digits
            raise MalformedFile(manifest_path, f"invalid manifest JSON: {exc}") from None
        if not isinstance(manifest, dict):
            raise MalformedFile(manifest_path, "manifest must be a JSON object")
        self._format = manifest.get("format")
        if self._format not in ("pgm", "csv"):
            raise MalformedFile(manifest_path, f"unknown frame format {self._format!r}")
        names = manifest.get("frames", [])
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise MalformedFile(manifest_path, "frames must be a list of file names")
        if not names:
            raise MalformedFile(manifest_path, "manifest lists no frames")
        metadata = manifest.get("metadata")
        if not isinstance(metadata, (dict, type(None))):
            raise MalformedFile(manifest_path, "metadata must be an object or null")
        self.metadata = metadata or {}
        period = manifest.get("fringe_period_px")
        if isinstance(period, bool) or not isinstance(period, (int, float, type(None))):
            raise MalformedFile(manifest_path,
                                f"fringe_period_px must be a number, got {period!r}")
        if isinstance(period, int) and abs(period) > sys.float_info.max:
            raise MalformedFile(manifest_path, f"fringe_period_px must be within float range, "
                                f"got an integer of {len(str(abs(period)))} digits")
        try:
            dtype, full_scale = pixel_format(self.metadata.get("bit_depth"))
        except BadOptics as exc:
            raise MalformedFile(manifest_path, str(exc)) from None
        self.paths = [manifest_path.parent / name for name in names]
        self._first = self._read(self.paths[0])
        self.shape = self._first.shape
        self.dtype = self._first.dtype if full_scale is None else np.dtype(dtype)
        period = period if fringe_period_px is None else fringe_period_px
        if period is None:
            try:
                period = estimate_fringe_period(self._first)
            except ValueError:  # too few pixel columns for a spectral peak
                raise MalformedFile(manifest_path, f"no fringe_period_px, and frames "
                                    f"{self.shape[1]} px wide are too narrow to estimate "
                                    "one; pass --period-px") from None
        self.fringe_period_px = float(period)
        check_period(self.fringe_period_px)

    @property
    def n_frames(self) -> int:
        return len(self.paths)

    def _decode(self, path, out=None) -> np.ndarray:
        # read_pgm is looked up at each call, so that a wrapped one is used
        return (read_pgm if self._format == "pgm" else read_frame_csv)(path, out)

    def _read(self, path, out=None) -> np.ndarray:
        """The frame at ``path``, decoded on its own and checked: a bad
        pixel raises MalformedFile naming ``path``; ``out`` as for ``_into``."""
        frame = self._decode(path)
        try:
            check_pixels(frame, self.metadata.get("bit_depth"))
        except ValueError as exc:
            raise MalformedFile(path, str(exc)) from None
        return _into(path, frame, out)

    def blocks(self):
        """Yield the frames in blocks of shape (k, height, width) and dtype
        ``self.dtype``; a block is overwritten by the next one."""
        first = self._first
        size = block_frames(first.size * max(first.itemsize, self.dtype.itemsize))
        raw = np.empty((size, *self.shape), dtype=first.dtype)
        cast = raw if raw.dtype == self.dtype else np.empty(raw.shape, dtype=self.dtype)
        raw[0] = first
        for start in range(0, self.n_frames, size):
            paths = self.paths[start:start + size]
            block = raw[:len(paths)]
            try:
                for index, (row, path) in enumerate(zip(block, paths), start):
                    if index:  # the first frame was read on construction
                        self._decode(path, row)
                check_pixels(block, self.metadata.get("bit_depth"))
            except Exception:
                for row, path in zip(block, paths):
                    self._read(path, row)
                raise
            if cast is not raw:
                cast[:len(paths)] = block
            yield cast[:len(paths)]


def load_frames(path, fringe_period_px: float | None = None) -> FrameStack:
    """Load a whole stack into memory; arguments as for ``FrameReader``."""
    reader = FrameReader(path, fringe_period_px)
    frames = np.empty((reader.n_frames, *reader.shape), dtype=reader.dtype)
    start = 0
    for block in reader.blocks():
        frames[start:start + len(block)] = block
        start += len(block)
    return FrameStack(frames=frames, fringe_period_px=reader.fringe_period_px,
                      metadata=reader.metadata)
