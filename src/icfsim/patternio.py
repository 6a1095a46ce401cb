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


def pattern_to_dict(pattern: InterferencePattern) -> dict:
    return {
        "xs": [float(v) for v in pattern.xs],
        "values": [float(v) for v in pattern.values],
        "stderrs": None if pattern.stderrs is None
        else [float(v) for v in pattern.stderrs],
        "visibility": float(pattern.visibility),
    }


def pattern_from_dict(data: dict) -> InterferencePattern:
    """The pattern of ``xs`` and ``values``, lists of numbers, and ``stderrs``,
    one or null; TypeError, ValueError or OverflowError otherwise."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    columns = [data.get(key) for key in ("xs", "values", "stderrs")]
    for key, column in zip(("xs", "values", "stderrs"), columns):
        if not (isinstance(column, list) and all(type(v) in (int, float) for v in column)
                or key == "stderrs" and column is None):
            raise TypeError(f"'{key}' must be a list of numbers")
    xs, values, stderrs = (None if c is None else np.array(c, dtype=float) for c in columns)
    return InterferencePattern(xs=xs, values=values, stderrs=stderrs)


def write_pattern_json(pattern: InterferencePattern, path) -> None:
    Path(path).write_text(json.dumps(pattern_to_dict(pattern), indent=2) + "\n")


def read_pattern_json(path) -> InterferencePattern:
    path = Path(path)
    try:
        return pattern_from_dict(json.loads(path.read_text()))
    except (ValueError, TypeError, OverflowError) as exc:  # ValueError: JSON, UTF-8, shapes
        raise MalformedFile(path, f"invalid pattern JSON: {exc}") from None


def write_pattern_csv(pattern: InterferencePattern, path) -> None:
    with open(path, "w") as fh:
        if pattern.stderrs is None:
            fh.write("x_rad,g_value\n")
            for x, v in zip(pattern.xs, pattern.values):
                fh.write(f"{float(x)!r},{float(v)!r}\n")
        else:
            fh.write("x_rad,g_value,stderr\n")
            for x, v, e in zip(pattern.xs, pattern.values, pattern.stderrs):
                fh.write(f"{float(x)!r},{float(v)!r},{float(e)!r}\n")


def read_pattern_csv(path) -> InterferencePattern:
    path = Path(path)
    try:
        header, *lines = path.read_text().split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedFile(path, f"invalid pattern CSV: {exc}") from None
    header = header.strip()
    if header not in ("x_rad,g_value", "x_rad,g_value,stderr"):
        raise MalformedFile(path, f"unexpected header {header!r}", line=1)
    with_err = header.endswith(",stderr")
    xs, values, errs = [], [], []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != (3 if with_err else 2):
            raise MalformedFile(path, f"expected {3 if with_err else 2} columns", line=lineno)
        try:
            xs.append(float(parts[0]))
            values.append(float(parts[1]))
            if with_err:
                errs.append(float(parts[2]))
        except ValueError:
            raise MalformedFile(path, "non-numeric value", line=lineno) from None
    if not xs:
        raise MalformedFile(path, "no data rows", line=1)
    return InterferencePattern(
        xs=np.array(xs), values=np.array(values),
        stderrs=np.array(errs) if with_err else None)
