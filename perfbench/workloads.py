"""The benchmark's workloads: fixed lists of ``cdiag`` command lines.

This module imports nothing from ``cdiag`` at import time, so the set-up
probe can import it first and time only the import of ``cdiag`` and the
construction of the categories.
"""

from __future__ import annotations

from dataclasses import dataclass

# The 13 builtins of ``cli.ACCEPTANCE_SUITE`` when the benchmark was
# defined.  They are copied, not imported, so that the workload stays fixed
# if the suite changes.
SUITE = (
    "ordinal:0", "ordinal:1", "ordinal:2", "ordinal:3",
    "walking-arrow", "iso-interval",
    "group:S2", "group:S3", "group:C4",
    "delta:2", "finset:3", "vect:2:2", "vect:1:3",
)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple     # argv tuples passed to cdiag.cli.run
    probe: str          # builtin whose composition the traced run samples


def _oracle(variant):
    return ("oracle-diff", "--finset-max", "5", "--variant", variant)


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("finset-oracle", tuple(_oracle(v) for v in ("all", "inj", "surj")),
             probe="finset:5"),
    Workload("vect-level1", (("decompose", "--builtin", "vect:3:2", "--level", "1"),),
             probe="vect:3:2"),
    Workload("vect-level2", (("decompose", "--builtin", "vect:2:3", "--level", "2"),),
             probe="vect:2:3"),
    Workload("segal-level2",
             (("segal", "--builtin", "finset:4", "--level", "2"),
              ("decompose", "--builtin", "delta:3", "--level", "2"))
             + tuple(cmd for spec in SUITE
                     for cmd in (("segal", "--builtin", spec, "--level", "2"),
                                 ("complete", "--builtin", spec))),
             probe="finset:4"),
)}


def options(argv) -> dict:
    """The ``--flag value`` pairs after the subcommand."""
    return dict(zip(argv[1::2], argv[2::2]))


def category_key(argv) -> tuple:
    """What identifies the category a command builds."""
    opts = options(argv)
    if argv[0] == "oracle-diff":
        return ("finset", int(opts["--finset-max"]), opts["--variant"])
    return ("builtin", opts["--builtin"])


def build_category(key):
    """Build the category of ``category_key`` through the public API, as
    the command itself does."""
    from cdiag import cli, finset
    if key[0] == "finset":
        return finset.finset_skeleton(key[1], key[2])
    return cli.builtin_category(key[1])


def level_of(argv):
    """The level a command enumerates chains at, or None.  oracle-diff
    compares closed forms with the engine at level 1."""
    if argv[0] == "oracle-diff":
        return 1
    level = options(argv).get("--level")
    return None if level is None else int(level)


def command_key(argv) -> str:
    return " ".join(argv)
