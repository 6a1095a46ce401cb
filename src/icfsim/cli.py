"""Command-line interface.

Subcommands: ``analytic`` (closed-form scans), ``mc`` (Monte Carlo scans
with error bars), ``limits`` (classical visibility table), ``verify``
(expansion-oracle certification of the closed forms), ``synth`` (write a
synthetic frame stack), ``process`` (frame stack -> intensity and
correlation patterns).

Every stochastic subcommand is deterministic given its full flag set; the
seed defaults to 12345.  A JSON config file may supply any long-option
value (keys use underscores); explicit flags win over the config file.
Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analytic import (
    InterferencePattern,
    ScanPattern,
    classical_limit,
    scan,
)
from .constants import DEFAULT_SEED
from .errors import IcfSimError, ReferenceOutOfRange
from .expansion import verify_closed_form
# load_frames is not called here; it stays importable from this module
# because perfbench's traced run wraps it under this name.
from .frameio import FrameReader, load_frames, save_frames  # noqa: F401
from .frames import (
    FrameOptics,
    HarmonicModulation,
    NoiseModel,
    RoiSpec,
    fringe_visibility,
    g3_profile,
    g4_profile,
    mean_profile,
    roi_average,
    synth_frames,
)
from .montecarlo import estimate_scan
from .patternio import write_pattern_csv, write_pattern_json
from .sources import SourceModel
from .svgplot import write_pattern_svg

_SCHEME_NAMES = {
    "symmetric-opposite": "symmetric_opposite",
    "symmetric_opposite": "symmetric_opposite",
    "single-detector": "single_detector",
    "single_detector": "single_detector",
    "double-speed": "four_point_double_speed",
    "four_point_double_speed": "four_point_double_speed",
}
_DEFAULT_SCHEME = {2: "symmetric_opposite", 3: "symmetric_opposite",
                   4: "four_point_double_speed"}

_DEFAULTS = {
    "analytic": {"kind": "coherent", "order": 3, "scheme": None,
                 "grid_points": 721, "offset": math.pi / 2,
                 "coherence_width": None, "moments": None,
                 "out": "pattern", "format": "csv", "plot": None},
    "mc": {"kind": "coherent", "order": 3, "scheme": None, "grid_points": 25,
           "samples": 100000, "batches": 100, "seed": DEFAULT_SEED,
           "offset": math.pi / 2, "coherence_width": None, "moments": None,
           "out": "pattern", "format": "csv", "plot": None},
    "limits": {"out": None, "format": "csv"},
    "verify": {"trials": 1000, "seed": DEFAULT_SEED},
    "synth": {"kind": "coherent", "frames": 500, "seed": DEFAULT_SEED,
              "period_px": 60.0, "envelope_fwhm_px": None,
              "peak_level": None, "noise_sigma": 300.0, "poisson": True,
              "bit_depth": 16, "frame_width": 600, "frame_height": 50,
              "phase_modulation": "uniform", "mod_amplitude": None,
              "mod_frequency": None, "out": "stack", "format": "pgm"},
    "process": {"roi": None, "ref_col": None, "period_px": None,
                "batches": 10, "out": "pattern", "format": "csv",
                "plot": None},
}


# Smallest accepted value of each integer option, checked once for flags and
# config files alike.
_MINIMUM = {"seed": 0, "grid_points": 1, "frames": 1, "frame_width": 1, "frame_height": 1}


def _workers() -> int:
    """Threads for `synth` and `mc`, whose outputs do not depend on the count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    # At most 2: the thread pools were measured on a 2-vCPU host only.
    return min(2, cpus)


def _roi_arg(text: str) -> str:
    parts = text.split(",")
    if len(parts) != 4 or not all(p.strip().lstrip("-").isdigit() for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected x0,y0,w,h integers, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icfsim",
        description="Multi-detector intensity interference of two classical "
                    "sources: analytic scans, Monte Carlo estimates, frame "
                    "synthesis and processing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="RUN.JSON",
                       help="JSON file supplying option values (flags override)")

    def add_model(p):
        p.add_argument("--kind", choices=("coherent", "thermal", "custom"))
        p.add_argument("--coherence-width", type=float, dest="coherence_width",
                       help="Gaussian coherence envelope width (rad)")

    def add_scan(p):
        p.add_argument("--order", type=int, choices=(2, 3, 4))
        p.add_argument("--scheme", choices=sorted(set(_SCHEME_NAMES)))
        p.add_argument("--grid-points", type=int, dest="grid_points")
        p.add_argument("--offset", type=float,
                       help="fixed third-detector phase for single-detector scans (rad)")

    def add_output(p, formats=("csv", "json")):
        p.add_argument("--out", help="output path (or prefix for multi-file output)")
        p.add_argument("--format", choices=formats)
        p.add_argument("--plot", metavar="SVG", help="also write an SVG plot")

    p = sub.add_parser("analytic", help="closed-form scan and visibility")
    add_common(p); add_model(p); add_scan(p); add_output(p)

    p = sub.add_parser("mc", help="Monte Carlo scan with error bars")
    add_common(p); add_model(p); add_scan(p); add_output(p)
    p.add_argument("--samples", type=int, help="samples per grid point")
    p.add_argument("--batches", type=int, help="batches for standard errors")
    p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")

    p = sub.add_parser("limits", help="table of classical visibility limits")
    add_common(p)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"))

    p = sub.add_parser("verify", help="certify closed forms against the expansion oracle")
    add_common(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="write a synthetic frame stack")
    add_common(p)
    p.add_argument("--kind", choices=("coherent", "thermal"))
    p.add_argument("--frames", type=int, help="number of single-pulse frames")
    p.add_argument("--seed", type=int)
    p.add_argument("--period-px", type=float, dest="period_px")
    p.add_argument("--envelope-fwhm-px", type=float, dest="envelope_fwhm_px")
    p.add_argument("--peak-level", type=float, dest="peak_level",
                   help="counts at a coherent fringe maximum (default 30000; "
                        "thermal with a bit depth: 2(2^bits-1)/ln(1e7), so "
                        "pixels almost never clip)")
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma",
                   help="Gaussian read noise (counts); 0 disables")
    p.add_argument("--no-poisson", dest="poisson", action="store_false",
                   default=None, help="disable Poisson shot noise")
    p.add_argument("--bit-depth", type=int, dest="bit_depth",
                   help="camera bit depth; 0 keeps float frames")
    p.add_argument("--frame-width", type=int, dest="frame_width")
    p.add_argument("--frame-height", type=int, dest="frame_height")
    p.add_argument("--phase-modulation", choices=("uniform", "harmonic"),
                   dest="phase_modulation")
    p.add_argument("--mod-amplitude", type=float, dest="mod_amplitude",
                   help="harmonic drive amplitude (rad)")
    p.add_argument("--mod-frequency", type=float, dest="mod_frequency",
                   help="harmonic drive frequency (cycles per frame)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=("pgm", "csv"), help="frame file format")

    p = sub.add_parser("process", help="process a frame stack into patterns")
    add_common(p)
    p.add_argument("stack", help="manifest path or stack directory")
    p.add_argument("--roi", type=_roi_arg, help="region of interest as x0,y0,w,h")
    p.add_argument("--ref-col", type=int, dest="ref_col",
                   help="reference (x = 0) column, relative to the ROI")
    p.add_argument("--period-px", type=float, dest="period_px",
                   help="fringe period override (px)")
    p.add_argument("--batches", type=int, help="frame batches for standard errors")
    add_output(p)

    return parser


def _flag_types(parser: argparse.ArgumentParser, command: str) -> dict:
    """The type of value each option flag of ``command`` takes."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: bool if action.nargs == 0
            else action.type if action.type in (int, float) else str
            for action in sub.choices[command]._actions
            if action.option_strings and action.dest not in ("help", "config")}


def _has_type(value, expected: type) -> bool:
    if isinstance(value, bool):
        return expected is bool
    return isinstance(value, (int, float) if expected is float else expected)


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Merge defaults, config-file values, and explicit flags (flags win).

    A config key the subcommand does not take is a usage error; a config
    value of another type than its flag takes (null only where the default
    is null), or a value below its ``_MINIMUM``, is a data error.
    """
    opts = dict(_DEFAULTS[args.command])
    config = getattr(args, "config", None)
    if config:
        with open(config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            parser.error(f"config file {config} must hold a JSON object")
        types = _flag_types(parser, args.command)
        for key, value in loaded.items():
            name = key.replace("-", "_")
            if name not in opts:
                parser.error(f"unknown key {key!r} in config file {config} "
                             f"for '{args.command}'")
            expected = types.get(name)
            if (expected is not None and not _has_type(value, expected)
                    and not (value is None and opts[name] is None)):
                raise IcfSimError(f"{key} in config file {config} must be of type "
                                  f"{expected.__name__}, got {value!r}")
            opts[name] = value
    for key, value in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if value is not None:
            opts[key] = value
        elif key not in opts:
            opts[key] = None
    for key, low in _MINIMUM.items():
        if opts.get(key) is not None and opts[key] < low:
            raise IcfSimError(f"{key.replace('_', '-')} must be at least {low}, "
                              f"got {opts[key]}")
    return opts


def _model(opts: dict) -> SourceModel:
    kind = opts["kind"]
    if kind == "custom":
        moments = opts.get("moments")
        if not moments:
            raise IcfSimError(
                "custom models need a 'moments' table in the --config file")
        return SourceModel.from_dict({
            "kind": "custom", "moments": moments,
            "coherence_width": opts.get("coherence_width")})
    return SourceModel(kind, coherence_width=opts.get("coherence_width"))


def _scan_pattern(opts: dict) -> ScanPattern:
    order = opts["order"]
    scheme = opts["scheme"]
    scheme = _SCHEME_NAMES[scheme] if scheme else _DEFAULT_SCHEME[order]
    grid = np.linspace(0.0, 2.0 * math.pi, opts["grid_points"])
    return ScanPattern(order=order, scheme=scheme, grid=grid,
                       offset=opts.get("offset"))


def _write_pattern(pattern: InterferencePattern, out: str, fmt: str) -> Path:
    path = Path(out)
    if path.suffix.lower() not in (".csv", ".json"):
        path = path.with_name(path.name + "." + fmt)
    if path.suffix.lower() == ".json" or (not path.suffix and fmt == "json"):
        write_pattern_json(pattern, path)
    else:
        write_pattern_csv(pattern, path)
    return path


def _limit_lines(vis: float, order: int, kind: str) -> list[str]:
    if kind not in ("coherent", "thermal"):
        return [f"visibility = {vis:.9f}"]
    limit = classical_limit(order, kind)
    lines = [f"visibility = {vis:.9f}",
             f"classical limit ({kind}, order {order}) = {limit:.9f}"]
    if vis <= limit + 1e-9:
        lines.append("PASS: visibility within the classical bound")
    else:
        lines.append("INFO: visibility exceeds the classical bound")
    return lines


def _classical_floor(pattern: InterferencePattern, order: int, kind: str):
    if kind not in ("coherent", "thermal"):
        return None, ""
    v = classical_limit(order, kind)
    floor = float(np.max(pattern.values)) * (1.0 - v) / (1.0 + v)
    return floor, f"classical-limit floor (V = {v:.4f})"


def cmd_analytic(opts: dict) -> int:
    model = _model(opts)
    pattern = scan(model, _scan_pattern(opts))
    for line in _limit_lines(pattern.visibility, opts["order"], opts["kind"]):
        print(line)
    path = _write_pattern(pattern, opts["out"], opts["format"])
    print(f"wrote {path}")
    if opts.get("plot"):
        floor, label = _classical_floor(pattern, opts["order"], opts["kind"])
        write_pattern_svg(opts["plot"], pattern,
                          title=f"{opts['kind']} order-{opts['order']} scan "
                                f"(V = {pattern.visibility:.4f})",
                          hline=floor, hline_label=label)
        print(f"wrote {opts['plot']}")
    return 0


def _visibility_error(pattern: InterferencePattern) -> float:
    i_max = int(np.argmax(pattern.values))
    i_min = int(np.argmin(pattern.values))
    vmax, vmin = pattern.values[i_max], pattern.values[i_min]
    emax, emin = pattern.stderrs[i_max], pattern.stderrs[i_min]
    s = (vmax + vmin) ** 2
    return float(math.hypot(2.0 * vmin * emax / s, 2.0 * vmax * emin / s))


def cmd_mc(opts: dict) -> int:
    model = _model(opts)
    pattern = estimate_scan(model, _scan_pattern(opts), n_samples=opts["samples"],
                            n_batches=opts["batches"], seed=opts["seed"],
                            workers=_workers())
    err = _visibility_error(pattern)
    print(f"visibility = {pattern.visibility:.6f} +/- {err:.6f}")
    for line in _limit_lines(pattern.visibility, opts["order"], opts["kind"])[1:]:
        print(line)
    path = _write_pattern(pattern, opts["out"], opts["format"])
    print(f"wrote {path}")
    if opts.get("plot"):
        analytic_pattern = scan(model, _scan_pattern(opts))
        floor, label = _classical_floor(pattern, opts["order"], opts["kind"])
        write_pattern_svg(opts["plot"], pattern,
                          title=f"{opts['kind']} order-{opts['order']} Monte Carlo "
                                f"(V = {pattern.visibility:.4f} +/- {err:.4f})",
                          overlay=analytic_pattern, hline=floor, hline_label=label)
        print(f"wrote {opts['plot']}")
    return 0


def cmd_limits(opts: dict) -> int:
    rows = [(order, kind, classical_limit(order, kind))
            for kind in ("coherent", "thermal") for order in (2, 3, 4)]
    print(f"{'order':>5}  {'kind':<8}  {'limit':>10}  {'percent':>8}")
    for order, kind, value in rows:
        print(f"{order:>5}  {kind:<8}  {value:>10.8f}  {100 * value:>7.2f}%")
    if opts.get("out"):
        path = Path(opts["out"])
        if opts["format"] == "json" or path.suffix.lower() == ".json":
            path.write_text(json.dumps(
                [{"order": o, "kind": k, "limit": v} for o, k, v in rows],
                indent=2) + "\n")
        else:
            with open(path, "w") as fh:
                fh.write("order,kind,limit\n")
                for o, k, v in rows:
                    fh.write(f"{o},{k},{v!r}\n")
        print(f"wrote {path}")
    return 0


def cmd_verify(opts: dict) -> int:
    tolerance = 1e-10
    status = 0
    for order in (2, 3, 4):
        dev = verify_closed_form(order, trials=opts["trials"], seed=opts["seed"])
        ok = dev < tolerance
        status |= 0 if ok else 1
        print(f"order {order}: max |expansion - closed form| = {dev:.3e} "
              f"(tolerance {tolerance:.0e}) {'PASS' if ok else 'FAIL'}")
    return status


def cmd_synth(opts: dict) -> int:
    model = SourceModel(opts["kind"])
    bit_depth = opts["bit_depth"] or None
    optics = FrameOptics(
        fringe_period_px=opts["period_px"],
        envelope_fwhm_px=opts["envelope_fwhm_px"],
        peak_level=opts["peak_level"],
        noise=NoiseModel(gaussian_sigma=opts["noise_sigma"],
                         poisson=opts["poisson"]),
        bit_depth=bit_depth,
        frame_width=opts["frame_width"],
        frame_height=opts["frame_height"],
    )
    modulation = None
    if opts["phase_modulation"] == "harmonic":
        kwargs = {}
        if opts["mod_amplitude"] is not None:
            kwargs["amplitude"] = opts["mod_amplitude"]
        if opts["mod_frequency"] is not None:
            kwargs["frequency"] = opts["mod_frequency"]
        modulation = HarmonicModulation(**kwargs)
    stack = synth_frames(model, optics, n=opts["frames"], seed=opts["seed"],
                         modulation=modulation, workers=_workers())
    manifest = save_frames(stack, opts["out"], fmt=opts["format"])
    saturated = stack.metadata["saturated_pixels"]
    if saturated:
        pixels = stack.frames.size
        print(f"warning: {saturated} of {pixels} pixels ({saturated / pixels:.2%}) in "
              f"{stack.metadata['saturated_frames']} of {stack.n_frames} frames are "
              f"saturated at {2 ** bit_depth - 1}; the correlation visibilities are "
              f"biased low", file=sys.stderr)
    print(f"wrote {stack.n_frames} {opts['format']} frames and {manifest}")
    return 0


def _parse_roi(text: str, frame_shape: tuple, ref_col) -> RoiSpec:
    height, width = frame_shape
    if text is None:
        x0, y0, w, h = 0, 0, width, height
    else:
        try:
            x0, y0, w, h = (int(v) for v in text.split(","))
        except ValueError:
            raise IcfSimError(f"--roi expects x0,y0,w,h integers, got {text!r}") from None
    return RoiSpec(x0=x0, y0=y0, width=w, height=h,
                   reference_column=ref_col if ref_col is not None else w // 2)


def cmd_process(opts: dict) -> int:
    reader = FrameReader(opts["stack"], fringe_period_px=opts["period_px"])
    roi = _parse_roi(opts["roi"], reader.shape, opts["ref_col"])
    series = roi_average(reader, roi)
    if series.saturated_pixels:
        pixels = series.n_frames * roi.width * roi.height
        full_scale = 2 ** reader.metadata["bit_depth"] - 1
        print(f"warning: {series.saturated_pixels} of {pixels} ROI pixels "
              f"({series.saturated_pixels / pixels:.2%}) are saturated at "
              f"{full_scale}; the correlation visibilities are biased low",
              file=sys.stderr)
    profile = mean_profile(series)

    xs = (np.arange(series.width) - series.reference_column) * series.pixel_to_phase
    intensity = InterferencePattern(xs=xs, values=profile)
    fringe = fringe_visibility(profile, reader.fringe_period_px)
    print(f"mean-intensity fringe visibility = {fringe:.4f}")

    out = opts["out"]
    fmt = opts["format"]
    written = [_write_pattern(intensity, f"{out}_intensity", fmt)]

    g3 = g3_profile(series, n_batches=opts["batches"])
    print(f"g3 visibility = {g3.visibility:.6f} +/- {_visibility_error(g3):.6f}"
          if g3.stderrs is not None else f"g3 visibility = {g3.visibility:.6f}")
    written.append(_write_pattern(g3, f"{out}_g3", fmt))
    patterns = {"g3": g3}
    try:
        g4 = g4_profile(series, n_batches=opts["batches"])
    except ReferenceOutOfRange as exc:
        print(f"g4 skipped: {exc}")
    else:
        print(f"g4 visibility = {g4.visibility:.6f} +/- {_visibility_error(g4):.6f}"
              if g4.stderrs is not None else f"g4 visibility = {g4.visibility:.6f}")
        written.append(_write_pattern(g4, f"{out}_g4", fmt))
        patterns["g4"] = g4
    for path in written:
        print(f"wrote {path}")
    if opts.get("plot"):
        base = Path(opts["plot"])
        for name, pat in patterns.items():
            path = base.with_name(f"{base.stem}_{name}.svg")
            write_pattern_svg(path, pat,
                              title=f"{name} profile (V = {pat.visibility:.4f})")
            print(f"wrote {path}")
    return 0


_COMMANDS = {
    "analytic": cmd_analytic,
    "mc": cmd_mc,
    "limits": cmd_limits,
    "verify": cmd_verify,
    "synth": cmd_synth,
    "process": cmd_process,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args, parser)
        return _COMMANDS[args.command](opts)
    except (IcfSimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
