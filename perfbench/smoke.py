"""Smoke test of the benchmark: one short run per workload and mode.

Usage: python3 perfbench/smoke.py

For every workload it runs ``run.py`` with ``--seconds 0`` (one warm-up
pass and one timed pass) with tracing off and on, and checks that the run
exits 0 with every digest matching, that the last line has the result
schema, and that the metrics are exactly the ones BENCHMARK.json names, with
their units.  It also checks that pins.json covers every command, and that a
directory holding only BENCHMARK.json and perfbench/ makes the benchmark
fail without a result.  Exits 0 when everything holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_result(line: str, specs: list) -> list:
    result = json.loads(line)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("outputs not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted is not a positive whole number")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        errors.append(f"metrics {sorted(set(metrics) ^ set(want))} differ from BENCHMARK.json")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            errors.append(f"bad metric name {name!r}")
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: value is not a number")
    return errors


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(run.PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    errors = []
    keys = {workloads.command_key(a) for w in workloads.WORKLOADS.values() for a in w.commands}
    if keys != set(pins):
        errors.append(f"pins.json does not match the commands: {sorted(keys ^ set(pins))}")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    for w in workloads.WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            argv = bench["command"] + ["--workload", w, "--seed", "1",
                                       "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.splitlines()
            errs = [f"exit code {proc.returncode}: {proc.stderr.strip()}"] if proc.returncode else []
            errs += check_result(lines[-1], specs) if lines else ["no output"]
            print(f"{w} trace={trace}: {'ok' if not errs else '; '.join(errs)}")
            errors += errs

    bare = os.path.join(run.ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(bench["command"] + ["--workload", "vect-level1", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"without src/: exit code {proc.returncode}, {'ok' if bare_ok else 'printed a result'}")
    if not bare_ok:
        errors.append("the benchmark ran without the program's sources")
    print("smoke: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
