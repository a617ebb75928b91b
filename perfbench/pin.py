"""Write pins.json: the pinned report-body digest and facts of every
benchmark command.

Usage: python3 perfbench/pin.py

The pins were taken from the code the benchmark was defined on.  Report
bodies are meant to stay byte-identical, so rerun this only for a change
whose purpose is a different report, and say so where the change is
described.
"""

import json
import os
import re
import sys
from collections import Counter

import run
import workloads


def facts(argv, out: str) -> dict:
    """What the staged replay checks, read from the report text."""
    if argv[0] == "decompose":
        labels = Counter(re.search(r" group=(.*) policy=", ln).group(1)
                         for ln in out.splitlines() if ln.startswith("component "))
        chains = re.search(r"\((\d+) chains at level", out).group(1)
        return {"chains": int(chains), "groups": dict(sorted(labels.items()))}
    if argv[0] == "segal":
        return {"chains": int(re.search(r"check segal-\d+: pass \((\d+) =", out).group(1))}
    if argv[0] == "oracle-diff":
        return {"checked": int(re.search(r"(\d+) components checked", out).group(1))}
    return {}


def main() -> int:
    sys.path.insert(0, run.SRC)
    from cdiag import cli
    os.environ.pop("CDIAG_LIMITS", None)
    pins = {}
    for work in workloads.WORKLOADS.values():
        for argv in work.commands:
            code, out, err = run.run_command(cli, argv)
            if code != 0:
                sys.stderr.write(f"{workloads.command_key(argv)}: exit {code}: {err}\n")
                return 1
            pins[workloads.command_key(argv)] = {"sha256": run.body_digest(out),
                                                 **facts(argv, out)}
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
