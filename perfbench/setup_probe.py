"""One benchmark set-up in a fresh interpreter: imports, problem files and
one warm-up CLI call.  run.py times this whole process several times and
reports the median as `setup_s`.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work_dir>
"""

import sys

import benchenv

benchenv.bootstrap()

from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(argv):
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    instances = workloads.prepare(workload, seed, work / "problems")
    workloads.run_instance(instances[0], work)  # its outcome is counted by run.py
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
