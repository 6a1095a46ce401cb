"""Set-up probe: import icfsim, prime one workload, print "ready", calibrate.

``run.py`` starts this script several times per run and times each one
from process start to the "ready" line.  That span is the workload's
set-up: interpreter start, imports, and the first (cold) calls, including
the expansion oracle's table builds on ``oracle``.  The probe then prints
the time of one calibration (see ``calibration``), which scales its set-up
time to the reference speed.

    python3 perfbench/setup_probe.py WORKLOAD SCRATCH_DIR
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    name, scratch = sys.argv[1], Path(sys.argv[2])
    scratch.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name]().prime(scratch)
    print("ready", flush=True)
    # the host's speed right after set-up, measured in this process
    from calibration import calibrate
    print(calibrate(), flush=True)
