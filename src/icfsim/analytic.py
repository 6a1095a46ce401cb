"""Closed-form normalized intensity correlation functions, orders 2 to 4.

For two statistically identical sources with an independently fluctuating
relative phase, the normalized n-detector correlation depends only on the
per-detector phase offsets delta_j (the difference of the two source-to-
detector path phases) through phi_ij = delta_i - delta_j:

    g2 = (g(2) + 1)/2 + cos(phi_12)/2

    g3 = g(3)/4 + (g(2)/2) [3/2 + cos phi_12 + cos phi_23 + cos phi_13]

    g4 = g(4)/8 + g(3)/2 + 3 g(2)^2/8
         + (g(3) + g(2)^2)/4 [cos phi_12 + cos phi_13 + cos phi_14
            + cos(phi_12 - phi_13) + cos(phi_12 - phi_14) + cos(phi_13 - phi_14)]
         + g(2)^2/8 [cos(phi_12 + phi_13 - phi_14)
            + cos(phi_12 + phi_14 - phi_13) + cos(phi_13 + phi_14 - phi_12)]

where g(k) is the k-th normalized moment of each source.  A finite
coherence width attenuates each interference cosine by the envelope
factors of the detectors it involves (which breaks gauge invariance and
2*pi periodicity on purpose: the envelope is pinned to delta = 0).
``closed_form`` is the one evaluator of these forms, vectorized over any
leading axes; the point functions, scans and the extremum search call it.

Scan schemes map a single coordinate x to a detector phase tuple:

    symmetric_opposite       n=3: (x, 0, -x)      n=2: (x, 0)
    single_detector          n=3: (x, 0, -offset) with fixed phi_23 = offset
    four_point_double_speed  n=4: (x, 0, -x, -2x)
    custom                   explicit per-point tuples

Visibility is (max - min)/(max + min) over the scanned values.  The
classical visibility limits are 1/2, 9/11, 17/18 (coherent, orders 2/3/4)
and 1/3, 3/5, 7/9 (thermal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import ORDERS
from .errors import AllZeroPattern, EmptyPattern, NonfinitePhase, UnsupportedOrder
from .sources import SourceModel, coherence_envelope, moment

# Each named scheme's detector phases per order it serves, as multiples of
# the scan coordinate x; single_detector's third detector also sits at -offset.
_SCHEME_STEPS = {
    "symmetric_opposite": {2: (1.0, 0.0), 3: (1.0, 0.0, -1.0)},
    "single_detector": {3: (1.0, 0.0, 0.0)},
    "four_point_double_speed": {4: (1.0, 0.0, -1.0, -2.0)},
}
SCHEMES = (*_SCHEME_STEPS, "custom")

CLASSICAL_LIMITS = {
    ("coherent", 2): 1.0 / 2.0,
    ("coherent", 3): 9.0 / 11.0,
    ("coherent", 4): 17.0 / 18.0,
    ("thermal", 2): 1.0 / 3.0,
    ("thermal", 3): 3.0 / 5.0,
    ("thermal", 4): 7.0 / 9.0,
}


@dataclass(frozen=True)
class PhaseConfig:
    """Detector phase offsets delta_j for one evaluation point.

    Adding a constant to every delta_j leaves all phi_ij unchanged (gauge
    freedom); consistency phi_13 = phi_12 + phi_23 holds structurally.
    """

    delta: tuple

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(self.delta))
        if len(self.delta) not in ORDERS:
            raise UnsupportedOrder(len(self.delta))

    @property
    def order(self) -> int:
        return len(self.delta)

    def phi(self, i: int, j: int):
        """Pairwise phase phi_ij = delta_i - delta_j (1-based indices)."""
        return self.delta[i - 1] - self.delta[j - 1]


@dataclass(frozen=True)
class ScanPattern:
    """A parameterized scan trajectory x -> detector phase tuple."""

    order: int
    scheme: str
    grid: np.ndarray
    offset: float | None = None  # fixed phi_23 for single_detector
    deltas: np.ndarray | None = None  # (len(grid), order), custom scheme only

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        _check_order(self.scheme, self.order)
        grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        if grid.size == 0:
            raise EmptyPattern("scan grid is empty")
        if not np.isfinite(grid).all():
            raise NonfinitePhase("scan grid values must be finite")
        if self.offset is not None and not math.isfinite(self.offset):
            raise NonfinitePhase(f"offset must be finite, got {self.offset!r}")
        object.__setattr__(self, "grid", grid)
        if self.scheme == "custom":
            if self.deltas is None:
                raise ValueError("custom scheme requires explicit deltas")
            deltas = np.asarray(self.deltas, dtype=float)
            if deltas.shape != (grid.size, self.order):
                raise ValueError(
                    f"deltas shape {deltas.shape} does not match "
                    f"(grid, order) = ({grid.size}, {self.order})")
            if not np.isfinite(deltas).all():
                raise NonfinitePhase("custom deltas must be finite")
            object.__setattr__(self, "deltas", deltas)

    def delta_array(self) -> np.ndarray:
        """Detector phases per grid point, shape (len(grid), order)."""
        if self.scheme == "custom":
            return self.deltas
        return _stack(scheme_deltas(self.order, self.scheme, self.grid, self.offset))


def _check_order(scheme: str, order: int) -> None:
    orders = _SCHEME_STEPS.get(scheme, ORDERS)
    if order not in orders:
        raise UnsupportedOrder(order, f"scheme {scheme!r} does not serve order {order!r}; "
                                      f"its orders: {', '.join(map(str, orders))}")


def scheme_deltas(order: int, scheme: str, x, offset: float | None = None):
    """Phase tuple for a named scheme; x may be a scalar or an array."""
    if scheme not in _SCHEME_STEPS:
        raise ValueError(f"scheme {scheme!r} has no coordinate mapping")
    _check_order(scheme, order)
    deltas = tuple(x * k for k in _SCHEME_STEPS[scheme][order])
    if scheme == "single_detector":
        c = math.pi / 2.0 if offset is None else offset
        deltas = (*deltas[:2], deltas[2] - c)
    return deltas


def visibility(pattern_or_values) -> float:
    """(max - min)/(max + min) of a sampled pattern.

    A single-point pattern has zero visibility by convention.
    """
    values = getattr(pattern_or_values, "values", pattern_or_values)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyPattern("cannot extract visibility from an empty pattern")
    vmax = float(np.max(values))
    vmin = float(np.min(values))
    if vmax <= 0.0:
        raise AllZeroPattern("pattern has no positive values")
    return (vmax - vmin) / (vmax + vmin)


@dataclass(frozen=True)
class InterferencePattern:
    """A sampled scan curve and its visibility, computed from the values.

    ``xs`` are scan coordinates in radians, ``values`` the correlation
    values, ``stderrs`` optional per-point standard errors.
    """

    xs: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray | None = None
    visibility: float = field(init=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if xs.shape != values.shape:
            raise ValueError("xs and values must have matching shapes")
        if not (np.isfinite(xs).all() and np.isfinite(values).all()):
            raise ValueError("xs and values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if self.stderrs is not None:
            stderrs = np.asarray(self.stderrs, dtype=float)
            if stderrs.shape != values.shape:
                raise ValueError("stderrs must match values in shape")
            if not np.all((stderrs >= 0) & (stderrs < math.inf)):
                raise ValueError("stderrs must be finite and nonnegative")
            object.__setattr__(self, "stderrs", stderrs)
        object.__setattr__(self, "visibility", visibility(values))

    def visibility_stderr(self) -> float | None:
        """Standard error of the visibility (None without stderrs), propagated
        from the stderrs of the largest and smallest values as if independent.
        """
        if self.stderrs is None:
            return None
        i_max, i_min = int(np.argmax(self.values)), int(np.argmin(self.values))
        vmax, vmin = self.values[i_max], self.values[i_min]
        s = (vmax + vmin) ** 2
        return float(math.hypot(2.0 * vmin * self.stderrs[i_max] / s,
                                2.0 * vmax * self.stderrs[i_min] / s))


# Internal evaluators: written in terms of raw moments and deltas so they
# vectorize over grids and stay analytic in x (complex-step differentiable).

def _g2_value(g2, d1, d2, e1, e2):
    return 0.5 * (g2 + 1.0) + 0.5 * e1 * e2 * np.cos(d1 - d2)


def _g3_value(g2, g3, d1, d2, d3, e1, e2, e3):
    bracket = (1.5
               + e1 * e2 * np.cos(d1 - d2)
               + e2 * e3 * np.cos(d2 - d3)
               + e1 * e3 * np.cos(d1 - d3))
    return 0.25 * g3 + 0.5 * g2 * bracket


def _g4_value(g2, g3, g4, d1, d2, d3, d4, e1, e2, e3, e4):
    p12 = d1 - d2
    p13 = d1 - d3
    p14 = d1 - d4
    pair = (e1 * e2 * np.cos(p12)
            + e1 * e3 * np.cos(p13)
            + e1 * e4 * np.cos(p14)
            + e2 * e3 * np.cos(p12 - p13)
            + e2 * e4 * np.cos(p12 - p14)
            + e3 * e4 * np.cos(p13 - p14))
    eall = e1 * e2 * e3 * e4
    triple = eall * (np.cos(p12 + p13 - p14)
                     + np.cos(p12 + p14 - p13)
                     + np.cos(p13 + p14 - p12))
    g2sq = g2 * g2
    return (0.125 * g4 + 0.5 * g3 + 0.375 * g2sq
            + 0.25 * (g3 + g2sq) * pair + 0.125 * g2sq * triple)


def closed_form(moments, delta, env=None):
    """The closed form of order n at detector phases ``delta``.

    ``delta`` has shape (..., n) with n from 2 to 4; ``env`` holds the
    envelope factor of each detector in the same shape, or is None for
    infinite coherence.  ``moments`` is (g(2), g(3), g(4)), each entry a
    scalar or an array broadcasting over the leading axes of ``delta``; only
    the first n - 1 are read.  ``delta`` keeps its dtype, so complex steps
    pass through.
    """
    delta = np.asarray(delta)
    n = delta.shape[-1]
    if n not in ORDERS:
        raise UnsupportedOrder(n)
    d = np.moveaxis(delta, -1, 0)
    e = (1.0,) * n if env is None else np.moveaxis(np.asarray(env), -1, 0)
    value = (_g2_value, _g3_value, _g4_value)[n - 2]
    return value(*tuple(moments)[:n - 1], *d, *e)


def _at(model: SourceModel, delta):
    """The closed form for ``model`` at detector phases ``delta`` (..., n)."""
    delta = np.asarray(delta)
    moments = [moment(model, k) for k in range(2, delta.shape[-1] + 1)]
    return closed_form(moments, delta, coherence_envelope(model, delta))


def _stack(cols):
    """Per-detector phases (scalars or arrays) as one (..., n) array."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def g2_point(model: SourceModel, phi12) -> float:
    """Second-order correlation at pairwise phase phi_12.

    With a coherence envelope, the detectors are taken at offsets
    (phi_12, 0), the gauge in which the envelope is centered.
    """
    return _at(model, _stack((phi12, phi12 * 0.0)))


def g3_point(model: SourceModel, cfg: PhaseConfig) -> float:
    """Third-order correlation at the given detector phases."""
    if cfg.order != 3:
        raise UnsupportedOrder(cfg.order)
    return _at(model, _stack(cfg.delta))


def g4_point(model: SourceModel, cfg: PhaseConfig) -> float:
    """Fourth-order correlation at the given detector phases."""
    if cfg.order != 4:
        raise UnsupportedOrder(cfg.order)
    return _at(model, _stack(cfg.delta))


def scan(model: SourceModel, pattern: ScanPattern) -> InterferencePattern:
    """Evaluate the closed form along a scan trajectory."""
    values = _at(model, pattern.delta_array())
    return InterferencePattern(xs=pattern.grid, values=np.asarray(values, dtype=float))


def classical_limit(order: int, kind: str) -> float:
    """Maximum interference visibility of two classical sources."""
    if kind not in ("coherent", "thermal"):
        raise ValueError(f"kind must be 'coherent' or 'thermal', got {kind!r}")
    try:
        return CLASSICAL_LIMITS[(kind, order)]
    except KeyError:
        raise UnsupportedOrder(order) from None


_GRID_STEP = 1e-3
_CSTEP = 1e-30


def _refine_stationary(f: Callable, x0: float, step: float) -> float:
    """Polish a grid extremum with Newton iterations on f'.

    The first derivative comes from a complex step (exact to machine
    precision for these analytic curves); the second from a central
    difference of complex steps.  Stops once |f'| < 1e-12 or the update
    stalls; stays within one grid step of the starting point.
    """
    x = x0
    dd = 1e-6
    for _ in range(80):
        d1 = f(x + 1j * _CSTEP).imag / _CSTEP
        if abs(d1) < 1e-12:
            break
        d2 = (f(x + dd + 1j * _CSTEP).imag - f(x - dd + 1j * _CSTEP).imag) / (2 * dd * _CSTEP)
        if not np.isfinite(d2) or abs(d2) < 1e-9:
            break
        delta = d1 / d2
        if abs(delta) > step:
            delta = math.copysign(step, delta)
        x -= delta
        if abs(x - x0) > 2 * step:
            x = x0
            break
    return x


def extremal_phases(model: SourceModel, order: int, scheme: str,
                    offset: float | None = None):
    """Locate the scan-curve extrema and the resulting visibility.

    Dense grid search (step <= 1e-3 rad) over [0, 2 pi] followed by local
    Newton refinement of both extrema to |g'| < 1e-10.  Returns
    (x_max, x_min, visibility).
    """
    if order not in (3, 4):
        raise UnsupportedOrder(order)

    def f(x):
        """The scan curve at x; vectorized and complex-safe."""
        return _at(model, _stack(scheme_deltas(order, scheme, x, offset)))

    npts = int(math.ceil(2.0 * math.pi / _GRID_STEP)) + 1
    xs = np.linspace(0.0, 2.0 * math.pi, npts)
    ys = np.asarray(f(xs), dtype=float)
    x_max = _refine_stationary(f, float(xs[np.argmax(ys)]), _GRID_STEP)
    x_min = _refine_stationary(f, float(xs[np.argmin(ys)]), _GRID_STEP)
    v_max = float(np.real(f(x_max)))
    v_min = float(np.real(f(x_min)))
    return x_max, x_min, (v_max - v_min) / (v_max + v_min)
