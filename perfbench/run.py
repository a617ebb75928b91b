"""End-to-end and per-layer benchmark of the cdiag command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's ``cdiag`` commands through ``cdiag.cli.run`` inside this
process: one thread, a closed loop with one caller, every command building
its category from scratch as a fresh CLI call does.  Every command's exit
code and report-body digest are checked against ``pins.json``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced passes with traced staged replays (``staged.py``) and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import host
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench")

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_RUNS = 5

LAYER_SPANS = ("fincat.build", "chains.enumerate", "chains.orbits", "groups.table",
               "groups.iso", "groups.name", "classifying.segal", "classifying.complete")
PROBE_SPANS = ("fincat.compose_cold", "fincat.compose_warm")
COUNTS = ("fincat.morphisms", "fincat.compose_pairs", "chains.chains",
          "chains.components", "chains.scan_stabilizers",
          "chains.transversal_stabilizers", "groups.table_cells",
          "groups.iso_tests", "groups.named", "groups.unnamed")


# ---------------------------------------------------------------------------
# Running and checking one command


def body_digest(text: str) -> str:
    """SHA-256 of the report body: every line that does not start with #."""
    body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def run_command(cli, argv):
    """(exit code or None if it raised, stdout, stderr or the exception)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    except (Exception, SystemExit) as exc:   # a raise is a failed command
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def gate(argv, result, pin) -> list:
    """The failures of one command: exit code, pinned digest, and for
    oracle commands a '0 mismatches' verdict on every check."""
    code, out, err = result
    if code != 0:
        return [f"exit code {code}: {err.strip()}"]
    errors = []
    if body_digest(out) != pin["sha256"]:
        errors.append("report body differs from the pinned digest")
    if argv[0] == "oracle-diff":
        checks = [ln for ln in out.splitlines() if ln.startswith("check ")]
        if not checks or not all("0 mismatches" in ln for ln in checks):
            errors.append("oracle checks do not read '0 mismatches'")
    return errors


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, argv, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            sys.stderr.write(f"perfbench: FAILED {workloads.command_key(argv)}: "
                             f"{'; '.join(errors)}\n")


# ---------------------------------------------------------------------------
# Passes


def plain_pass(cli, order, pins, tally, clock):
    """(wall seconds, scaled seconds) of one pass through cli.run, summed
    over its commands.  Outputs are checked after the clock stops."""
    wall, results = 0.0, []
    for argv in order:
        clock.checkpoint()
        # A CLI call starts in a fresh process, without the cyclic garbage
        # of earlier commands.  Left to pile up, it lifts peak RSS by up to
        # 30 MB, depending on when the collector happens to run.
        gc.collect()
        t0 = perf_counter()
        results.append(run_command(cli, argv))
        seconds = perf_counter() - t0
        wall += seconds
        clock.add(seconds)
    for argv, res in zip(order, results):
        tally.record(argv, gate(argv, res, pins[workloads.command_key(argv)]))
    return wall, clock.take()


def traced_pass(staged, order, pins, tally, clock):
    """(wall seconds, scaled seconds, tracer) of one staged replay."""
    t = staged.Tracer()
    wall = 0.0
    for argv in order:
        clock.checkpoint()
        gc.collect()
        t0 = perf_counter()
        try:
            errors = staged.replay(t, argv, pins[workloads.command_key(argv)])
        except Exception as exc:   # a raise is a failed command
            errors = [f"{type(exc).__name__}: {exc}"]
        seconds = perf_counter() - t0
        wall += seconds
        clock.add(seconds)
        tally.record(argv, errors)
    return wall, clock.take(), t


def setup_seconds(name: str) -> float:
    """Median over fresh processes of importing cdiag and building every
    category the workload names once, scaled to the reference host."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, probe, name], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(host.scaled(*map(float, proc.stdout.split()[-3:])))
    return statistics.median(times)


def tail_text(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}; no percentile has 10 samples beyond it"
    k = n - 10
    return f"n={n}; p{100 * k / n:.0f}={sorted(samples)[k - 1]:.4f}"


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cdiag", "cli.py")):
        sys.stderr.write(f"perfbench: no cdiag sources under {SRC}\n")
        return 2
    work = workloads.WORKLOADS[args.workload]
    # Limits come from the defaults alone, as in the pinned reports.
    os.environ.pop("CDIAG_LIMITS", None)
    setup = None if args.trace else setup_seconds(work.name)

    sys.path.insert(0, SRC)
    from cdiag import chains, cli
    import staged

    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    chains_per_pass = sum(
        chains.chain_count(workloads.build_category(workloads.category_key(a)), level)
        for a in work.commands if (level := workloads.level_of(a)) is not None)

    rng = random.Random(args.seed)
    tally = Tally()
    commands = list(work.commands)

    def order():
        return rng.sample(commands, len(commands))

    clock = host.ScaledClock()
    plain_pass(cli, order(), pins, tally, clock)   # warm-up
    walls, plain, traced = [], [], []
    deadline = perf_counter() + args.seconds
    while not plain or perf_counter() < deadline:
        wall, scaled = plain_pass(cli, order(), pins, tally, clock)
        walls.append(wall)
        plain.append(scaled)
        if args.trace:
            wall, scaled, tracer = traced_pass(staged, order(), pins, tally, clock)
            staged.compose_probe(tracer, work.probe, rng)
            traced.append((scaled / wall, tracer, wall))

    pass_s = statistics.median(plain)
    if args.trace:
        metrics = layer_metrics(traced, pass_s)
        write_spans(args, traced[-1][1])
    else:
        metrics = {
            "pass_s": (pass_s, "s"),
            "chains_per_s": (statistics.median(chains_per_pass / p for p in plain), "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"workload {work.name}: seed {args.seed}, {len(plain)} timed passes "
          f"after 1 warm-up pass, {len(work.commands)} commands per pass")
    print(f"pass wall time: median {statistics.median(walls):.4f} s, scaled to the "
          f"reference host: median {pass_s:.4f} s, {tail_text(plain)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} commands)")
    print("host " + json.dumps(host.host_info(clock.refs), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(traced, pass_s) -> dict:
    """Medians over traced passes of per-layer self seconds and counts;
    seconds are scaled to the reference host like pass_s."""
    rows = []
    for factor, t, wall in traced:
        self_s = t.self_times()
        row = {f"{name}_s": self_s.get(name, 0.0) * factor
               for name in LAYER_SPANS + PROBE_SPANS}
        row["cli.other_s"] = (wall - sum(self_s.get(name, 0.0) for name in LAYER_SPANS)) * factor
        row.update({name: t.counts[name] for name in COUNTS})
        row["trace.overhead_ratio"] = wall * factor / pass_s
        rows.append(row)
    units = {name: ("count" if name in COUNTS else "ratio" if name.endswith("ratio") else "s")
             for name in rows[0]}
    return {name: (statistics.median(r[name] for r in rows), units[name]) for name in rows[0]}


def write_spans(args, tracer) -> None:
    """The spans of the last traced pass, for inspection."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans],
                   "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main())
