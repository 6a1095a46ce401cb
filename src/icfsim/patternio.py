"""Pattern export and import: CSV (header ``x_rad,g_value[,stderr]``) and
JSON (``{"xs", "values", "stderrs", "visibility"}``).

Numbers are written with shortest round-trip precision, so a written file
parses back to exactly the floats that produced it.  The readers raise
``MalformedFile`` for a file they cannot parse, and take no ``visibility``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analytic import InterferencePattern
from .errors import MalformedFile

_KEYS = ("xs", "values", "stderrs")
# the CSV header of each column count
_CSV_HEADERS = {2: "x_rad,g_value", 3: "x_rad,g_value,stderr"}


def pattern_to_dict(pattern: InterferencePattern) -> dict:
    columns = {key: getattr(pattern, key) for key in _KEYS}
    return {**{key: None if c is None else c.tolist() for key, c in columns.items()},
            "visibility": float(pattern.visibility)}


def _pattern(path, kind: str, xs, values, stderrs=None) -> InterferencePattern:
    """The pattern of the columns read from ``path``; a ValueError as MalformedFile."""
    try:
        return InterferencePattern(xs=xs, values=values, stderrs=stderrs)
    except ValueError as exc:
        raise MalformedFile(path, f"invalid pattern {kind}: {exc}") from None


def write_pattern_json(pattern: InterferencePattern, path) -> None:
    Path(path).write_text(json.dumps(pattern_to_dict(pattern), indent=2) + "\n")


def read_pattern_json(path) -> InterferencePattern:
    """The pattern of a JSON object of number lists xs, values and stderrs (or null)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {type(data).__name__}")
        columns = [data.get(key) for key in _KEYS]
        for key, column in zip(_KEYS, columns):
            if not (isinstance(column, list) and all(type(v) in (int, float) for v in column)
                    or key == "stderrs" and column is None):
                raise TypeError(f"'{key}' must be a list of numbers")
        columns = [None if c is None else np.array(c, dtype=float) for c in columns]
    except (ValueError, TypeError, OverflowError) as exc:  # ValueError: JSON, UTF-8
        raise MalformedFile(path, f"invalid pattern JSON: {exc}") from None
    return _pattern(path, "JSON", *columns)


def write_pattern_csv(pattern: InterferencePattern, path) -> None:
    columns = [c for c in (pattern.xs, pattern.values, pattern.stderrs) if c is not None]
    with open(path, "w") as fh:
        fh.write(_CSV_HEADERS[len(columns)] + "\n")
        for row in zip(*(column.tolist() for column in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def read_pattern_csv(path) -> InterferencePattern:
    path = Path(path)
    try:
        header, *lines = path.read_text().split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedFile(path, f"invalid pattern CSV: {exc}") from None
    header = header.strip()
    width = {text: n for n, text in _CSV_HEADERS.items()}.get(header)
    if width is None:
        raise MalformedFile(path, f"unexpected header {header!r}", line=1)
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise MalformedFile(path, f"expected {width} columns", line=lineno)
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise MalformedFile(path, "non-numeric value", line=lineno) from None
    return _pattern(path, "CSV", *np.array(rows, dtype=float).reshape(-1, width).T)
