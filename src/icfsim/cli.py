"""Command-line interface.

Subcommands: ``analytic`` (closed-form scans), ``mc`` (Monte Carlo scans
with error bars), ``limits`` (classical visibility table), ``verify``
(expansion-oracle certification of the closed forms), ``synth`` (write a
synthetic frame stack), ``process`` (frame stack -> intensity and
correlation patterns).

Every stochastic subcommand is deterministic given its full flag set; the
seed defaults to 12345.  ``build_parser`` declares each option once, with
its default.  ``main`` registers every subcommand, so usage and help read
the same, but declares the options of the one it runs alone (all when the
first argument names none).  It builds a parser per call and caches none:
``_resolve`` makes config values its defaults.  A JSON config file
(``--config``) may supply any option of the subcommand (keys use
underscores or hyphens); each value is checked by its flag's own type,
choices and minimum and becomes that option's default, so defaults <
config file < explicit flags.
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
    CLASSICAL_LIMITS,
    InterferencePattern,
    ScanPattern,
    scan,
)
from .constants import DEFAULT_SEED, ORDERS
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
    pixel_format,
    roi_average,
    synth_frames,
)
from .montecarlo import estimate_scan
from .patternio import write_pattern_csv, write_pattern_json
from .sources import KINDS, SourceModel
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

# Smallest accepted value of each integer option, checked once for flags and
# config files alike.
_MINIMUM = {"seed": 0, "grid_points": 1, "frames": 1, "frame_width": 1, "frame_height": 1}
# The largest size or count numpy can index, checked likewise: a larger one
# ends in numpy's ValueError rather than a message.
_MAXIMUM = dict.fromkeys(("samples", "batches", "trials", "grid_points", "frames",
                          "frame_width", "frame_height"), int(np.iinfo(np.intp).max))


def _workers() -> int:
    """Threads for `synth` and `mc`, whose outputs do not depend on the count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    # At most 2: the thread pools were measured on a 2-vCPU host only.
    return min(2, cpus)


def _roi_arg(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != 4 or not all(p.strip().removeprefix("-").isdecimal() for p in parts):
        raise argparse.ArgumentTypeError(f"expected x0,y0,w,h integers, got {text!r}")
    return tuple(map(int, parts))


def _format_option(p):
    p.add_argument("--format", choices=("csv", "json"),
                   help="default: the --out suffix, .csv or .json, else csv")


def _output_options(p):
    p.add_argument("--out", default="pattern",
                   help="output path (or prefix for multi-file output)")
    _format_option(p)
    p.add_argument("--plot", metavar="SVG", help="also write an SVG plot")


def _analytic_options(p, grid_points=721):
    p.add_argument("--kind", choices=KINDS, default="coherent")
    p.add_argument("--coherence-width", type=float, dest="coherence_width",
                   help="Gaussian coherence envelope width (rad)")
    p.set_defaults(moments={})  # a custom model's table: config files only
    p.add_argument("--order", type=int, choices=ORDERS, default=3)
    p.add_argument("--scheme", choices=sorted(set(_SCHEME_NAMES)))
    p.add_argument("--grid-points", type=int, dest="grid_points", default=grid_points)
    p.add_argument("--offset", type=float, default=math.pi / 2,
                   help="fixed third-detector phase for single-detector scans (rad)")
    _output_options(p)


def _mc_options(p):
    _analytic_options(p, grid_points=25)
    p.add_argument("--samples", type=int, default=100000, help="samples per grid point")
    p.add_argument("--batches", type=int, default=100, help="batches for standard errors")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")


def _limits_options(p):
    p.add_argument("--out")
    _format_option(p)


def _verify_options(p):
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _synth_options(p):
    p.add_argument("--kind", choices=("coherent", "thermal"), default="coherent")
    p.add_argument("--frames", type=int, default=500, help="number of single-pulse frames")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--period-px", type=float, dest="period_px", default=60.0)
    p.add_argument("--envelope-fwhm-px", type=float, dest="envelope_fwhm_px")
    p.add_argument("--peak-level", type=float, dest="peak_level",
                   help="counts at a coherent fringe maximum (default 30000; "
                        "thermal with a bit depth: 2(2^bits-1)/ln(1e7), so "
                        "pixels almost never clip)")
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma", default=300.0,
                   help="Gaussian read noise (counts); 0 disables")
    p.add_argument("--no-poisson", dest="poisson", action="store_false",
                   help="disable Poisson shot noise")
    p.add_argument("--bit-depth", type=int, dest="bit_depth", default=16,
                   help="camera bit depth; 0 keeps float frames")
    p.add_argument("--frame-width", type=int, dest="frame_width", default=600)
    p.add_argument("--frame-height", type=int, dest="frame_height", default=50)
    p.add_argument("--phase-modulation", choices=("uniform", "harmonic"),
                   dest="phase_modulation", default="uniform")
    p.add_argument("--mod-amplitude", type=float, dest="mod_amplitude",
                   help="harmonic drive amplitude (rad)")
    p.add_argument("--mod-frequency", type=float, dest="mod_frequency",
                   help="harmonic drive frequency (cycles per frame)")
    p.add_argument("--out", default="stack", help="output directory")
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm",
                   help="frame file format")


def _process_options(p):
    p.add_argument("stack", help="manifest path or stack directory")
    p.add_argument("--roi", type=_roi_arg, help="region of interest as x0,y0,w,h")
    p.add_argument("--ref-col", type=int, dest="ref_col",
                   help="reference (x = 0) column, relative to the ROI")
    p.add_argument("--period-px", type=float, dest="period_px",
                   help="fringe period override (px)")
    p.add_argument("--batches", type=int, default=10, help="frame batches for standard errors")
    _output_options(p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``icfsim`` parser, with every subcommand and its help text, but
    the options of ``command`` alone (of every subcommand when None).  Not
    cached: ``_resolve`` changes a parser's defaults."""
    parser = argparse.ArgumentParser(
        prog="icfsim",
        description="Multi-detector intensity interference of two classical "
                    "sources: analytic scans, Monte Carlo estimates, frame "
                    "synthesis and processing.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, declare, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            p.add_argument("--config", metavar="RUN.JSON",
                           help="JSON file supplying option values (flags override)")
            declare(p)
    return parser


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _config_value(key: str, value, action: argparse.Action, path: str):
    """``value`` of config key ``key``, checked as its option's flag would be."""
    if value is None and action.default is None:
        return value
    expected = (bool if action.nargs == 0
                else action.type if action.type in (int, float) else str)
    if isinstance(value, bool) != (expected is bool) or not isinstance(
            value, (int, float) if expected is float else expected):
        raise IcfSimError(f"{key} in config file {path} must be of type "
                          f"{expected.__name__}, got {value!r}")
    # range-checked, not converted: float() would change how an integer
    # value is written out (synth's period_px in the manifest)
    if expected is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise IcfSimError(f"{key} in config file {path} must be within float range, "
                          f"got an integer of {len(str(abs(value)))} digits")
    if action.choices is not None and value not in action.choices:
        raise IcfSimError(f"{key} in config file {path} must be one of "
                          f"{', '.join(map(str, action.choices))}, got {value!r}")
    try:
        return value if action.type in (None, int, float) else action.type(value)
    except argparse.ArgumentTypeError as exc:
        raise IcfSimError(f"{key} in config file {path}: {exc}") from None


def _resolve(parser: argparse.ArgumentParser, argv=None) -> dict:
    """Options of the command line ``argv``: defaults < config file < flags.

    The config file's values become the subcommand's defaults, and the
    command line is parsed again.  A config key that is not an option of the
    subcommand is a usage error; a config value of another type than its
    flag takes (null only where the default is null), outside the flag's
    choices or refused by its type function, is a data error, as is any
    option below its ``_MINIMUM`` or above its ``_MAXIMUM``.
    """
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # bad JSON, bad UTF-8, or an integer of over 4300 digits
                raise IcfSimError(f"invalid JSON in config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            parser.error(f"config file {args.config} must hold a JSON object")
        command = _command_parser(parser, args.command)
        actions = {a.dest: a for a in command._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        config = {}
        for key, value in loaded.items():
            name = key.replace("-", "_")
            if name in actions:
                config[name] = _config_value(key, value, actions[name], args.config)
            elif name == "moments" and hasattr(args, name):  # checked by SourceModel
                config[name] = value
            else:
                parser.error(f"unknown key {key!r} in config file {args.config} "
                             f"for '{args.command}'")
        command.set_defaults(**config)
        args = parser.parse_args(argv)
    opts = vars(args)
    del opts["config"]
    for key, low in _MINIMUM.items():
        if opts.get(key) is not None and opts[key] < low:
            raise IcfSimError(f"{key.replace('_', '-')} must be at least {low}, "
                              f"got {opts[key]}")
    for key, high in _MAXIMUM.items():
        if opts.get(key) is not None and opts[key] > high:
            raise IcfSimError(f"{key.replace('_', '-')} must be at most {high}, "
                              f"got {opts[key]}")
    return opts


def _model(opts: dict) -> SourceModel:
    if opts["kind"] == "custom" and not opts["moments"]:
        raise IcfSimError("custom models need a 'moments' table in the --config file")
    return SourceModel(opts["kind"], moments=opts["moments"],
                       coherence_width=opts["coherence_width"])


def _scan_pattern(opts: dict) -> ScanPattern:
    order = opts["order"]
    scheme = opts["scheme"]
    scheme = _SCHEME_NAMES[scheme] if scheme else _DEFAULT_SCHEME[order]
    grid = np.linspace(0.0, 2.0 * math.pi, opts["grid_points"])
    return ScanPattern(order=order, scheme=scheme, grid=grid,
                       offset=opts.get("offset"))


def _output_path(out: str, fmt: str | None) -> tuple[Path, str]:
    """The file that ``--out`` names and its format, for every command that
    writes a table (``process`` writes ``<stem>_<name><suffix>`` beside it):
    the format is ``--format`` if given, else the .csv or .json suffix of
    ``out``, else csv, and an ``out`` without such a suffix gains
    ``.<format>``.  A ``--format`` that contradicts the suffix and an
    ``out`` that names a directory are errors.
    """
    path = Path(out)  # Path("res/").name is "res": check the raw string too
    if path.name in ("", "..") or out.endswith(("/", os.sep)):
        raise IcfSimError(f"--out {out} names a directory, not a file")
    suffix = path.suffix.lower()[1:]
    if suffix not in ("csv", "json"):
        fmt = fmt or "csv"
        return path.with_name(f"{path.name}.{fmt}"), fmt
    if fmt not in (None, suffix):
        raise IcfSimError(f"--out {out} names a .{suffix} file but --format is {fmt}")
    return path, suffix


def _write_pattern(pattern: InterferencePattern, path: Path, fmt: str) -> Path:
    (write_pattern_json if fmt == "json" else write_pattern_csv)(pattern, path)
    return path


def _limit_lines(vis: float, order: int, kind: str, err: float | None = None) -> list[str]:
    """Visibility, classical limit and verdict; given the visibility's stderr
    ``err``, the visibility carries it and INFO means z = (vis - limit) / err > 3."""
    lines = [f"visibility = {vis:.9f}" if err is None
             else f"visibility = {vis:.6f} +/- {err:.6f}"]
    limit = CLASSICAL_LIMITS.get((kind, order))
    if limit is None:
        return lines
    lines.append(f"classical limit ({kind}, order {order}) = {limit:.9f}")
    if err is None:
        exceeds, note = vis > limit + 1e-9, ""
    else:
        z = (vis - limit) / err if err > 0 else math.copysign(math.inf, vis - limit)
        exceeds, note = z > 3.0, f" (z = {z:+.2f})"
    lines.append(f"INFO: visibility exceeds the classical bound{note}" if exceeds
                 else f"PASS: visibility within the classical bound{note}")
    return lines


def _report_scan(opts: dict, target: tuple[Path, str], pattern: InterferencePattern,
                 err: float | None = None, overlay: InterferencePattern | None = None) -> None:
    """Print a scan's visibility lines, write the scan to ``target`` (from
    ``_output_path``) and, given --plot, plot it.

    ``err``, the visibility's stderr, marks a Monte Carlo scan; a coherent
    or thermal plot also draws the minimum that the classical-limit
    visibility allows under the scan's maximum.
    """
    order, kind = opts["order"], opts["kind"]
    for line in _limit_lines(pattern.visibility, order, kind, err):
        print(line)
    print(f"wrote {_write_pattern(pattern, *target)}")
    if opts.get("plot"):
        floor, label, v = None, "", CLASSICAL_LIMITS.get((kind, order))
        if v is not None:
            floor = float(np.max(pattern.values)) * (1.0 - v) / (1.0 + v)
            label = f"classical-limit floor (V = {v:.4f})"
        title = (f"scan (V = {pattern.visibility:.4f})" if err is None else
                 f"Monte Carlo (V = {pattern.visibility:.4f} +/- {err:.4f})")
        write_pattern_svg(opts["plot"], pattern, title=f"{kind} order-{order} {title}",
                          overlay=overlay, hline=floor, hline_label=label)
        print(f"wrote {opts['plot']}")


def _warn_saturated(bit_depth: int, saturated: int, pixels: int, frames=None) -> None:
    """Warn of pixels at full scale, in a stack of ``frames`` = (saturated, total) or an ROI."""
    if saturated:
        where = "ROI pixels" if frames is None else "pixels"
        within = "" if frames is None else f" in {frames[0]} of {frames[1]} frames"
        print(f"warning: {saturated} of {pixels} {where} ({saturated / pixels:.2%}){within} "
              f"are saturated at {pixel_format(bit_depth)[1]}; the correlation visibilities "
              f"are biased low", file=sys.stderr)


def cmd_analytic(opts: dict) -> int:
    target = _output_path(opts["out"], opts["format"])
    _report_scan(opts, target, scan(_model(opts), _scan_pattern(opts)))
    return 0


def cmd_mc(opts: dict) -> int:
    target = _output_path(opts["out"], opts["format"])
    model, spec = _model(opts), _scan_pattern(opts)
    pattern = estimate_scan(model, spec, n_samples=opts["samples"],
                            n_batches=opts["batches"], seed=opts["seed"],
                            workers=_workers())
    overlay = scan(model, spec) if opts.get("plot") else None
    _report_scan(opts, target, pattern, pattern.visibility_stderr(), overlay)
    return 0


def cmd_limits(opts: dict) -> int:
    if opts["format"] and not opts["out"]:
        raise IcfSimError(f"--format {opts['format']} needs --out: the table is printed as text")
    target = _output_path(opts["out"], opts["format"]) if opts["out"] else None
    rows = [(order, kind, value) for (kind, order), value in CLASSICAL_LIMITS.items()]
    print(f"{'order':>5}  {'kind':<8}  {'limit':>10}  {'percent':>8}")
    for order, kind, value in rows:
        print(f"{order:>5}  {kind:<8}  {value:>10.8f}  {100 * value:>7.2f}%")
    if target:
        path, fmt = target
        if fmt == "json":
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
    for order in ORDERS:
        dev = verify_closed_form(order, trials=opts["trials"], seed=opts["seed"])
        ok = dev < tolerance
        status |= 0 if ok else 1
        print(f"order {order}: max |expansion - closed form| = {dev:.3e} "
              f"(tolerance {tolerance:.0e}) {'PASS' if ok else 'FAIL'}")
    return status


def cmd_synth(opts: dict) -> int:
    if opts["format"] == "pgm" and not 1 <= opts["bit_depth"] <= 16:
        raise IcfSimError(f"PGM frames need a bit depth of 1-16, got {opts['bit_depth']}; "
                          f"use --format csv")
    # the drive options default to None, so a value given without harmonic
    # modulation can be told apart from no value
    drive = {key: opts[f"mod_{key}"] for key in ("amplitude", "frequency")
             if opts[f"mod_{key}"] is not None}
    harmonic = opts["phase_modulation"] == "harmonic"
    if drive and not harmonic:
        raise IcfSimError(f"{' and '.join('--mod-' + key for key in drive)} "
                          f"need{'s' if len(drive) == 1 else ''} --phase-modulation harmonic")
    model = SourceModel(opts["kind"])
    optics = FrameOptics(
        fringe_period_px=opts["period_px"],
        envelope_fwhm_px=opts["envelope_fwhm_px"],
        peak_level=opts["peak_level"],
        noise=NoiseModel(gaussian_sigma=opts["noise_sigma"],
                         poisson=opts["poisson"]),
        bit_depth=opts["bit_depth"] or None,
        frame_width=opts["frame_width"],
        frame_height=opts["frame_height"],
    )
    modulation = HarmonicModulation(**drive) if harmonic else None
    stack = synth_frames(model, optics, n=opts["frames"], seed=opts["seed"],
                         modulation=modulation, workers=_workers())
    manifest = save_frames(stack, opts["out"], fmt=opts["format"])
    _warn_saturated(stack.metadata["bit_depth"], stack.metadata["saturated_pixels"],
                    stack.frames.size, (stack.metadata["saturated_frames"], stack.n_frames))
    print(f"wrote {stack.n_frames} {opts['format']} frames and {manifest}")
    return 0


def cmd_process(opts: dict) -> int:
    out, fmt = _output_path(opts["out"], opts["format"])  # checked before any read
    reader = FrameReader(opts["stack"], fringe_period_px=opts["period_px"])
    roi = RoiSpec(*opts["roi"] or (), reference_column=opts["ref_col"]).fit(reader.shape)
    series = roi_average(reader, roi)
    _warn_saturated(reader.metadata.get("bit_depth"), series.saturated_pixels,
                    series.n_frames * roi.width * roi.height)
    profile = mean_profile(series)

    xs = (np.arange(series.width) - series.reference_column) * series.pixel_to_phase
    intensity = InterferencePattern(xs=xs, values=profile)
    fringe = fringe_visibility(profile, reader.fringe_period_px)
    print(f"mean-intensity fringe visibility = {fringe:.4f}")

    batches = opts["batches"]
    patterns = {}  # every pattern is formed before any file is written
    # g4 alone is skipped where the reference column leaves it no room
    for name, make, skipped in (("g3", g3_profile, ()),
                                ("g4", g4_profile, ReferenceOutOfRange)):
        try:
            pattern = make(series, n_batches=batches)
        except skipped as exc:
            print(f"{name} skipped: {exc}")
            continue
        if name == "g3" and pattern.stderrs is None:
            print(f"warning: no standard errors from {series.n_frames} frames in {batches} "
                  f"batches: they need at least 2 batches of 2 or more frames "
                  f"({2 * max(batches, 2)} frames for {max(batches, 2)} batches)",
                  file=sys.stderr)
        err = pattern.visibility_stderr()
        print(f"{name} visibility = {pattern.visibility:.6f}"
              + ("" if err is None else f" +/- {err:.6f}"))
        patterns[name] = pattern
    written = [_write_pattern(pattern, out.with_name(f"{out.stem}_{name}{out.suffix}"), fmt)
               for name, pattern in {"intensity": intensity, **patterns}.items()]
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


# Each subcommand's help text, the function declaring its options and the
# function running it.
_COMMANDS = {
    "analytic": ("closed-form scan and visibility", _analytic_options, cmd_analytic),
    "mc": ("Monte Carlo scan with error bars", _mc_options, cmd_mc),
    "limits": ("table of classical visibility limits", _limits_options, cmd_limits),
    "verify": ("certify closed forms against the expansion oracle", _verify_options,
               cmd_verify),
    "synth": ("write a synthetic frame stack", _synth_options, cmd_synth),
    "process": ("process a frame stack into patterns", _process_options, cmd_process),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        opts = _resolve(parser, argv)
        return _COMMANDS[opts["command"]][-1](opts)
    except (IcfSimError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
