"""Set-up probe: a fresh interpreter that does one workload's set-up.

Usage: ``python3 probe.py ROOT WORKLOAD CSV SEED``.  Prints the monotonic
clock (system-wide on Linux) when the set-up is done, so the caller can
time the whole process from its spawn to its first possible solve.
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    root, workload, csv_path, seed = argv
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    import inputs
    inputs.setup(workload, csv_path, int(seed))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
