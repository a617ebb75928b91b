"""Command-line front end: deterministic text and JSON reports.

Exit codes: 0 success, 1 verification mismatch or failed engine self-check,
2 usage or input error.
Reports contain no timestamps; repeated runs with the same configuration
are byte-identical.  Header lines start with ``#`` and carry run metadata;
golden comparisons should ignore them.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from typing import Iterator, Optional

from . import classifying, fincat, finset, finvect, groups
from .chains import SelfCheckFailed
from .fincat import CategoryError, FiniteCategory
from .limits import DEFAULT_LIMITS, Limits

USAGE_ERROR = 2
MISMATCH = 1

BUILTINS_HELP = ("ordinal:<m>, group:S<k>, group:C<k>, iso-interval, "
                 "walking-arrow, delta:<M>, finset:<N>, vect:<dim>:<q>")

#: Desk-scale builtin instances exercised by the structural checks
#: (Segal bijections, completeness, property suites).
ACCEPTANCE_SUITE = (
    "ordinal:0", "ordinal:1", "ordinal:2", "ordinal:3",
    "walking-arrow", "iso-interval",
    "group:S2", "group:S3", "group:C4",
    "delta:2", "finset:3", "vect:2:2", "vect:1:3",
)

# The limit names, in declaration order: CDIAG_LIMITS keys, --<name> flags
# (underscores as dashes) and the keys of the report's config.limits.
_LIMIT_NAMES = tuple(f.name for f in dataclasses.fields(Limits))


def builtin_category(spec: str) -> FiniteCategory:
    """Construct one of the named builtin categories."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "ordinal" and len(parts) == 2:
            return fincat.ordinal(int(parts[1]))
        if kind == "walking-arrow" and len(parts) == 1:
            return fincat.walking_arrow()
        if kind == "iso-interval" and len(parts) == 1:
            return fincat.iso_interval()
        if kind == "group" and len(parts) == 2:
            g, k = parts[1][:1], parts[1][1:]
            try:
                k = int(k)
            except ValueError:
                g = None
            if g == "S":
                if k > 6:
                    raise CategoryError(f"group:S<k> needs k <= 6, got {k}")
                table = groups.materialize(groups.Symmetric(k))
            elif g == "C":
                if not 1 <= k <= 720:
                    raise CategoryError(f"group:C<k> needs 1 <= k <= 720, got {k}")
                table = groups.cyclic_table(k)
            else:
                raise CategoryError("expected group:S<k> or group:C<k>")
            return fincat.one_object_group(table, name=f"group:{parts[1]}")
        if kind == "delta" and len(parts) == 2:
            return fincat.truncated_delta(int(parts[1]))
        if kind == "finset" and len(parts) == 2:
            return finset.finset_skeleton(int(parts[1]))
        if kind == "vect" and len(parts) == 3:
            return finvect.vect_skeleton(int(parts[1]), int(parts[2]))
    except (ValueError, CategoryError, groups.GroupError) as exc:
        raise CategoryError(f"bad builtin {spec!r}: {exc}") from exc
    raise CategoryError(f"unknown builtin {spec!r} (expected one of: {BUILTINS_HELP})")


def _load_category(args) -> FiniteCategory:
    if getattr(args, "builtin", None) and getattr(args, "file", None):
        raise CategoryError("give exactly one of --builtin or --file")
    if getattr(args, "builtin", None):
        return builtin_category(args.builtin)
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        return fincat.from_catdef(text, name=os.path.basename(args.file))
    raise CategoryError("give exactly one of --builtin or --file")


def _resolve_limits(args) -> Limits:
    """The defaults, overridden by the name=value entries of CDIAG_LIMITS,
    then by the flags."""
    overrides = {}
    entries = [pair.strip() for pair in os.environ.get("CDIAG_LIMITS", "").split(",")]
    for pair in filter(None, entries):
        k, eq, v = pair.partition("=")
        if eq and k not in _LIMIT_NAMES:
            raise CategoryError(f"unknown limit {k!r} in CDIAG_LIMITS")
        try:
            overrides[k] = int(v)
        except ValueError:
            raise CategoryError(f"bad CDIAG_LIMITS entry {pair!r}") from None
    limits = DEFAULT_LIMITS.with_overrides(**overrides)
    return limits.with_overrides(**{k: getattr(args, k, None) for k in _LIMIT_NAMES})


# ---------------------------------------------------------------------------
# Report assembly


def _render_text(report: dict) -> str:
    """The text report: one line per component row, each run of rows that
    share a cell tuple joining it once, then one line per check."""
    lines = [f"# cdiag {report['command']}"]
    cfg = " ".join(f"{k}={v}" for k, v in sorted(report["config"].items())
                   if k != "limits")
    lim = report["config"].get("limits", {})
    lims = ",".join(f"{k}={v}" for k, v in sorted(lim.items()))
    lines.append(f"# config: {cfg} limits[{lims}]")
    cell = None
    for level, row_cell, rep, size, order, expr, policy in report.get("components", []):
        if row_cell is not cell:
            cell, joined = row_cell, ",".join(row_cell)
        lines.append(f"component level={level} cell=({joined}) rep=({','.join(rep)}) "
                     f"size={size} order={order} group={'?' if expr is None else expr} "
                     f"policy={policy}")
    for chk in report.get("checks", []):
        lines.append(f"check {chk['name']}: {chk['status']} ({chk['details']})")
    lines.append("")        # the final newline, without a second copy of the text
    return "\n".join(lines)


def _json_pieces(report: dict) -> Iterator[str]:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline, each
    component row an object keyed by its field names, in pieces of a few
    thousand encoder tokens, so that the text of a large report is never
    held whole beside its rows."""
    # a dict display: dict(zip(names, row)) took 0.2-0.3 s longer on the
    # 352,705 rows of delta:9 level 1
    report = dict(report, components=[
        {"level": level, "cell": cell, "representative": rep, "orbit_size": size,
         "group_order": order, "group_expr": expr, "policy": policy}
        for level, cell, rep, size, order, expr, policy in report.get("components", [])])
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    while piece := "".join(itertools.islice(tokens, 4096)):
        yield piece
    yield "\n"


def _emit(report: dict, args) -> None:
    pieces = _json_pieces(report) if args.format == "json" else [_render_text(report)]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _check(name, ok, details):
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


# ---------------------------------------------------------------------------
# Command handlers; each returns (exit code, report dict)


def _cmd_decompose(args, limits):
    cat = _load_category(args)
    dec = classifying.level_decomposition(cat, args.level, limits)
    ok = all(b.check_orbit_stabilizer() for b in dec.blocks)
    report = {
        "components": dec.rows(),
        "checks": [
            _check("orbit-stabilizer", ok, "identity verified on every component"),
            _check("size-sum", True,
                   f"{sum(b.chains for b in dec.blocks)} chains at level {args.level}"),
        ],
    }
    return (0 if ok else MISMATCH), report


def _cmd_segal(args, limits):
    cat = _load_category(args)
    rep = classifying.segal_check(cat, args.level, limits)
    details = (f"{rep.chain_count} = {rep.fiber_product_count}, bijection "
               + ("verified" if rep.bijection_ok else "FAILED"))
    report = {"components": [],
              "checks": [_check(f"segal-{args.level}", rep.ok, details)]}
    return (0 if rep.ok else MISMATCH), report


def _cmd_complete(args, limits):
    cat = _load_category(args)
    rep = classifying.completeness_check(cat, limits)
    details = (f"classes {rep.class_counts[0]} vs {rep.class_counts[1]}; "
               f"aut orders {list(rep.aut_order_multisets[0])} vs "
               f"{list(rep.aut_order_multisets[1])}; policy: {rep.policy}"
               + ("" if rep.verdict else f"; {rep.detail}"))
    report = {"components": [],
              "checks": [_check("completeness", rep.verdict, details)]}
    return (0 if rep.verdict else MISMATCH), report


def _cmd_discrete(args, limits):
    cat = _load_category(args)
    rep = classifying.is_discrete_classifying(cat, args.truncation, limits)
    rows = "; ".join(f"level {n}: {k} components, flat={flat}"
                     for n, k, flat in rep.levels)
    report = {"components": [],
              "checks": [
                  _check("discrete", rep.consistent,
                         f"verdict={rep.discrete}; {rows}")]}
    return (0 if rep.consistent else MISMATCH), report


def _cmd_nerve(args, limits):
    cat = _load_category(args)
    t = classifying.nerve_truncation(cat, args.truncation, limits)
    ok = t.check_simplicial_identities()
    report = {"components": [],
              "checks": [
                  _check("simplicial-identities", ok,
                         f"level sizes {t.level_sizes}")]}
    return (0 if ok else MISMATCH), report


def _cmd_finset(args, limits):
    rows = [c.row() for c in finset.closed_form_level0(args.max)]
    rows += (c.row() for n in range(args.max + 1) for m in range(args.max + 1)
             for c in finset.level1_closed_form(n, m, args.variant))
    diffs = [finset.oracle_diff_finset(args.max, args.variant, limits)] if args.oracle else []
    return _diff_report(rows, [("oracle-diff", d) for d in diffs])


def _cmd_finvect(args, limits):
    # the largest cell first, so that a command that must fail fails at once
    finvect.check_enumerable(args.max_dim, args.max_dim, args.q)
    rows = [c.row() for c in finvect.vect_level0(args.max_dim, args.q)]
    # each cell is enumerated once: its rank rows and the oracle read it
    cells = finvect.rank_cells(args.max_dim, args.q)
    rows += ((1, (str(n), str(m)), (f"rank={cls.rank}",), cls.class_size,
              cls.stabilizer_order, cls.expr_text, cls.policy)
             for (n, m), cell in cells.items() for cls in cell.classes)
    rows += ((1, (str(case.n), str(case.m)), (case.case,), 0, case.order, case.expr_text,
              "closed-form") for case in finvect.paper_stabilizers_dim_le2(args.q))
    diffs = [finvect.oracle_diff_vect(args.max_dim, args.q, limits, cells)] if args.oracle else []
    return _diff_report(rows, [("oracle-diff", d) for d in diffs])


def _cmd_oracle_diff(args, limits):
    diffs = []
    if args.finset_max is None and args.vect_dim is None:
        raise CategoryError("give --finset-max and/or --vect-dim")
    if args.finset_max is not None:
        diffs.append(("finset-oracle-diff",
                      finset.oracle_diff_finset(args.finset_max, args.variant, limits)))
    if args.vect_dim is not None:
        diffs.append(("vect-oracle-diff", finvect.oracle_diff_vect(args.vect_dim, args.q, limits)))
    return _diff_report([], diffs)


def _diff_report(rows: list, diffs: list) -> tuple:
    """(exit code, report) of the component ``rows`` and one check per
    (name, ``classifying.DiffReport``): 1 unless every diff passes."""
    code = 0 if all(d.ok for _, d in diffs) else MISMATCH
    return code, {"components": rows, "checks": [_check(n, d.ok, d.summary()) for n, d in diffs]}


# ---------------------------------------------------------------------------
# Argument parsing

#: Highest ``finset --max``.  The closed forms list every fiber profile of
#: every cell, and their number grows fast: 16 takes about 2–3 s.
MAX_FINSET_CARD = 16


def _int_in(lo: int, hi: Optional[int] = None):
    """argparse type: an integer in lo..hi (no upper bound when hi is None)."""
    def parse(text):
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            span = f"between {lo} and {hi}" if hi is not None else f"at least {lo}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value
    parse.__name__ = "int"      # argparse reports bad text as "invalid int value"
    return parse


def _add_common(p, category=True):
    if category:
        p.add_argument("--builtin", help=f"builtin category: {BUILTINS_HELP}")
        p.add_argument("--file", help="CATDEF input file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", help="write the report to a file instead of stdout")
    for k in _LIMIT_NAMES:
        p.add_argument("--" + k.replace("_", "-"), type=int, dest=k)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cdiag",
        description="Decompose levels of the classifying diagram of a finite "
                    "category into components with explicit stabilizer groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="one level as components with stabilizers")
    _add_common(p)
    p.add_argument("--level", type=_int_in(0), default=1)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("segal", help="chain count vs fiber-product count with bijection")
    _add_common(p)
    p.add_argument("--level", type=_int_in(2), default=2,
                   help="chain length, at least 2 (levels 0 and 1 have no Segal map)")
    p.set_defaults(handler=_cmd_segal)

    p = sub.add_parser("complete",
                       help="levels 0 and 1 of the classifying diagram of iso(C)")
    _add_common(p)
    p.set_defaults(handler=_cmd_complete)

    p = sub.add_parser("discrete", help="is every isomorphism an identity, level by level")
    _add_common(p)
    p.add_argument("--truncation", type=_int_in(1), default=2)
    p.set_defaults(handler=_cmd_discrete)

    p = sub.add_parser("nerve", help="truncated nerve of a groupoid with simplicial identities")
    _add_common(p)
    p.add_argument("--truncation", type=_int_in(0, classifying.MAX_NERVE_TRUNCATION), default=3)
    p.set_defaults(handler=_cmd_nerve)

    p = sub.add_parser("finset", help="wreath-product closed form for finite sets")
    _add_common(p, category=False)
    p.add_argument("--max", type=_int_in(0, MAX_FINSET_CARD), default=4)
    p.add_argument("--variant", choices=("all", "inj", "surj"), default="all")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force engine")
    p.set_defaults(handler=_cmd_finset)

    p = sub.add_parser("finvect", help="rank-orbit decomposition over a prime field")
    _add_common(p, category=False)
    p.add_argument("--max-dim", type=_int_in(0), default=2, dest="max_dim")
    p.add_argument("--q", type=_int_in(2, finvect.ENUM_BOUND), default=2)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(handler=_cmd_finvect)

    p = sub.add_parser("oracle-diff", help="closed forms vs the brute-force engine")
    _add_common(p, category=False)
    p.add_argument("--finset-max", type=_int_in(0, finset.DEFAULT_MAX_CARD), dest="finset_max")
    p.add_argument("--variant", choices=("all", "inj", "surj"), default="all")
    p.add_argument("--vect-dim", type=_int_in(0), dest="vect_dim")
    p.add_argument("--q", type=_int_in(2, finvect.ENUM_BOUND), default=2)
    p.set_defaults(handler=_cmd_oracle_diff)

    return ap


def _config_dict(args, limits: Limits) -> dict:
    skip = {"handler", "command", "format", "output", *_LIMIT_NAMES}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg["limits"] = {k: getattr(limits, k) for k in _LIMIT_NAMES}
    return cfg


# The parser of ``run``, built with the module: every command line pays for
# it once, with the import.  Parsing leaves no state on it, so ``run`` may be
# called again in one process.
_PARSER = build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        limits = _resolve_limits(args)
        code, body = args.handler(args, limits)
        report = {"command": args.command, "config": _config_dict(args, limits)}
        report.update(body)
        _emit(report, args)
    except SelfCheckFailed as exc:
        sys.stderr.write(f"cdiag: self-check failed: {exc}\n")
        return MISMATCH
    except (CategoryError, groups.GroupError, OSError, ValueError) as exc:
        sys.stderr.write(f"cdiag: error: {exc}\n")
        return USAGE_ERROR
    return code


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
