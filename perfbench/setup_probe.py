"""Time one cold set-up of a workload in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload>

Prints three numbers: the seconds taken to import ``cdiag`` and to build,
once each, the categories the workload's commands name; and the times of
the reference loop run just before and just after.  ``run.py`` starts this
script several times, scales each set-up time by its loops and reports the
median as ``setup_s``.

numpy is imported before the clock starts.  Loading it is mostly mapping a
C extension, whose cost relative to Python work moved by 40% between hours
on a shared host, so it would drown the set-up work cdiag itself does.
"""

import os
import sys
import time

import host
import workloads


def main() -> None:
    work = workloads.WORKLOADS[sys.argv[1]]
    keys = list(dict.fromkeys(workloads.category_key(a) for a in work.commands))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    import numpy  # noqa: F401
    for _ in range(2):   # the first loops of a process run slower
        host.reference_loop()
    before = host.reference_loop()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import cdiag  # noqa: F401
    for key in keys:
        workloads.build_category(key)
    seconds = time.perf_counter() - t0
    print(seconds, before, host.reference_loop())


if __name__ == "__main__":
    main()
