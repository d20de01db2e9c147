"""Set-up time of one fresh interpreter, for ``setup_s``.

Usage: python3 bench/setup_probe.py PLAN.json

PLAN.json lists the workload's config files and the (config, variant,
resolution) driver builds that a pass made.  The probe imports
``invariant_guard.cli``, calls ``parse_config`` on each config and
``build_driver`` for each build, then prints the elapsed seconds and the
median duration in ns of CAL_SLICES calibration slices run right after
(``harness.calibration_slice_ns``), which give the speed of the machine.

numpy is imported before the clock starts: its import is not the program's
work, it took about two thirds of a probe, and it was the noisier part.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (see above)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
T0 = time.perf_counter()

from invariant_guard import cli  # noqa: E402
from invariant_guard import correctors as co  # noqa: E402
from invariant_guard.config import VariantConfig  # noqa: E402

CAL_SLICES = 20


def main(plan_path):
    plan = json.loads(Path(plan_path).read_text())
    configs = {path: cli.parse_config(path) for path in plan["configs"]}
    tracked = co.TrackedRateSource([0.0, 1.0], [0.0, 0.0])
    for build in plan["builds"]:
        cli.build_driver(configs[build["config"]],
                         VariantConfig(**build["variant"]), build["n"],
                         tracked)
    elapsed = time.perf_counter() - T0
    from harness import calibration_slice_ns
    slices = [calibration_slice_ns() for _ in range(CAL_SLICES)]
    print(repr(elapsed), statistics.median(slices))


if __name__ == "__main__":
    main(sys.argv[1])
