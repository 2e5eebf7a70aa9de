"""Run one benchmark cycle in this (fresh) process and print it as JSON.

Started by ``run.py`` once per cycle, so every cycle pays its own
process-pool start-up and no cycle inherits another's caches or memory.
Arguments: ``WORKLOAD SEED VARIANT TRACED SETUP_REPEATS`` (0 repeats =
the workload's default).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path


def main(argv: list) -> int:
    workload, seed, variant, traced, repeats = argv
    src = Path(__file__).resolve().parent.parent / "src"
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    out = workloads.run_cycle(
        workload,
        int(seed),
        int(variant),
        traced=traced == "1",
        setup_repeats=int(repeats) or None,
    )
    import numpy
    import scipy

    out["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
