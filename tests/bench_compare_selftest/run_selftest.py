#!/usr/bin/env python3
"""Pin tools/bench_compare.py's exit status on every case in cases.txt.

Usage: run_selftest.py BENCH_COMPARE_PY CASE_DIR

Exit 0 when every case exits with its expected status, 1 otherwise (each
mismatch is printed with the tool's output).
"""

import os
import subprocess
import sys


def main():
    tool, case_dir = sys.argv[1], sys.argv[2]
    failures = 0
    with open(os.path.join(case_dir, "cases.txt"), encoding="utf-8") as f:
        cases = [line.split() for line in f
                 if line.strip() and not line.startswith("#")]
    for expected, *args in cases:
        args = [os.path.join(case_dir, a) if a.endswith(".json") else a
                for a in args]
        run = subprocess.run([sys.executable, tool, *args],
                             capture_output=True, text=True, check=False)
        status = "ok" if run.returncode == int(expected) else "FAIL"
        print(f"{status}: exit {run.returncode} (want {expected}): "
              f"{' '.join(args)}")
        if status == "FAIL":
            failures += 1
            print(run.stdout + run.stderr)
    print(f"bench_compare selftest: {len(cases) - failures}/{len(cases)} "
          f"case(s) pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
