"""One set-up of a workload in a fresh process, timed by its caller.

Set-up is what a user pays before the first operation: starting Python,
importing partid (with numpy), parsing the shipped config and building
the seeded inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from workloads import WORKLOADS
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), float(sys.argv[3]))
