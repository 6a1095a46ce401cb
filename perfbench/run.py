"""icfsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of a checkout; the benchmark imports icfsim from the
checkout's ``src/`` and refuses to run without it.  With ``--trace 0`` the
last stdout line is a JSON object holding the end-to-end metrics, with
``--trace 1`` one holding the per-layer metrics.  The lines before it are
a JSON report (provenance, the workload-specific metric names, job
latencies, any correctness problems) and a table of every metric with its
unit.
``--list`` prints every metric name with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("mc-scan", "mc-point", "frames", "oracle")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _list_metrics(bench, layers, workloads) -> None:
    print("end-to-end metrics (--trace 0):")
    for name, (unit, meaning) in bench.END_TO_END.items():
        print(f"  {name:<40} {unit:<6} {meaning}")
    print("legs a and b per workload (workload-specific names):")
    for cls in workloads.WORKLOADS.values():
        extra = f", both = {cls.total}" if cls.total else ""
        print(f"  {cls.name:<10} a = {cls.legs['a']}, b = {cls.legs['b']}{extra}")
    print("per-layer metrics (--trace 1):")
    for name, (unit, better) in layers.PER_LAYER.items():
        print(f"  {name:<40} {unit:<6} {better} is better")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "icfsim" / "__init__.py").is_file():
        print(f"error: icfsim sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import layers
    import workloads

    if args.list:
        _list_metrics(bench, layers, workloads)
        return 0
    result = bench.run_isolated(workloads.WORKLOADS[args.workload](), args.seed,
                                args.seconds, bool(args.trace))
    for problem in result["report"]["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("report " + json.dumps(result.pop("report")))
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
