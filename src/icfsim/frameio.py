"""Frame-stack file formats.

A stack on disk is a JSON manifest next to one file per frame:

    manifest.json   {"format": "pgm" | "csv", "fringe_period_px": ...,
                     "frames": ["frame_0000.pgm", ...], "metadata": {...}}

PGM frames are binary 16-bit P5 (big-endian samples, maxval 65535), one
frame per file with a zero-padded index suffix.  CSV frames hold one row of
comma-separated values per pixel row.  Integer stacks round-trip losslessly
through either format.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import BadOptics, InconsistentDimensions, MalformedFile
from .frames import FrameStack, check_period, check_pixels, estimate_fringe_period, pixel_format

MANIFEST_NAME = "manifest.json"
_WHITESPACE = b" \t\r\n"


def write_pgm(path, image: np.ndarray) -> None:
    """Write one frame as binary 16-bit P5."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"PGM frames must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.any(arr != np.rint(arr)):
            raise ValueError("PGM requires integer pixel values; use CSV for float stacks")
        arr = np.rint(arr)
    if arr.min() < 0 or arr.max() > 65535:
        raise ValueError("PGM pixel values must lie in 0..65535")
    height, width = arr.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + arr.astype(">u2").tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 frame (8- or 16-bit samples per the maxval)."""
    path = Path(path)
    data = path.read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos]
            if c in _WHITESPACE:
                pos += 1
            elif c == ord("#"):
                nl = data.find(b"\n", pos)
                if nl < 0:
                    raise MalformedFile(path, "unterminated comment in header", offset=pos)
                pos = nl + 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos] not in _WHITESPACE:
            pos += 1
        if start == pos:
            raise MalformedFile(path, "unexpected end of header", offset=pos)
        return data[start:pos]

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
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return arr.reshape(height, width).astype(np.uint16)


def write_frame_csv(path, image: np.ndarray) -> None:
    """Write one frame as CSV, one pixel row per line."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"CSV frames must be 2-D, got shape {arr.shape}")
    integral = np.issubdtype(arr.dtype, np.integer)
    with open(path, "w") as fh:
        for row in arr:
            if integral:
                fh.write(",".join(str(int(v)) for v in row))
            else:
                fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_frame_csv(path) -> np.ndarray:
    path = Path(path)
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
    return np.array(rows)


def _frame_name(index: int, n: int, ext: str) -> str:
    pad = max(4, len(str(n - 1)))
    return f"frame_{index:0{pad}d}.{ext}"


def save_frames(stack: FrameStack, directory, fmt: str = "pgm") -> Path:
    """Write a stack as a manifest plus per-frame files; returns the manifest path."""
    if fmt not in ("pgm", "csv"):
        raise ValueError(f"format must be 'pgm' or 'csv', got {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for j in range(stack.n_frames):
        name = _frame_name(j, stack.n_frames, fmt)
        if fmt == "pgm":
            write_pgm(directory / name, stack.frames[j])
        else:
            write_frame_csv(directory / name, stack.frames[j])
        names.append(name)
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
    """One pass over a stack on disk, one checked frame at a time.

    Parses the manifest (a path to it or to its directory; a field of the
    wrong JSON type raises ``MalformedFile`` naming it) and reads the
    first frame for the shape, and for the fringe period when neither the
    caller nor the manifest gives one; a supplied ``fringe_period_px`` wins
    over the manifest value.  Iterating yields every frame in manifest
    order.  Each frame must match the first frame's shape
    (``InconsistentDimensions``) and pass ``check_pixels`` on its values as
    read (``MalformedFile`` naming the frame file) before a bit-depth-limited
    stack is cast to its integer dtype.
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
        self._cast = None if full_scale is None else dtype
        self.paths = [manifest_path.parent / name for name in names]
        self._first = self._read(self.paths[0])
        self.shape = self._first.shape
        self.dtype = self._first.dtype
        period = period if fringe_period_px is None else fringe_period_px
        if period is None:
            period = estimate_fringe_period(self._first)
        self.fringe_period_px = float(period)
        check_period(self.fringe_period_px)

    @property
    def n_frames(self) -> int:
        return len(self.paths)

    def _read(self, path: Path) -> np.ndarray:
        frame = read_pgm(path) if self._format == "pgm" else read_frame_csv(path)
        try:
            check_pixels(frame, self.metadata.get("bit_depth"))
        except ValueError as exc:
            raise MalformedFile(path, str(exc)) from None
        return frame if self._cast is None else frame.astype(self._cast, copy=False)

    def __iter__(self):
        yield self._first
        for path in self.paths[1:]:
            frame = self._read(path)
            if frame.shape != self.shape:
                raise InconsistentDimensions(
                    f"{path}: frame shape {frame.shape} does not match {self.shape}")
            yield frame


def load_frames(path, fringe_period_px: float | None = None) -> FrameStack:
    """Load a whole stack into memory; arguments as for ``FrameReader``."""
    reader = FrameReader(path, fringe_period_px)
    frames = np.empty((reader.n_frames, *reader.shape), dtype=reader.dtype)
    for j, frame in enumerate(reader):
        frames[j] = frame
    return FrameStack(frames=frames, fringe_period_px=reader.fringe_period_px,
                      metadata=reader.metadata)
