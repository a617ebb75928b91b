import ast
import contextlib
import dataclasses
import glob
import io
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import cdiag
from cdiag import chains, classifying, cli, finset
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category, run
from cdiag.groups import GroupMemo
from cdiag.limits import DEFAULT_LIMITS


def _src_env():
    src = os.path.dirname(os.path.dirname(cdiag.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def body_lines(text):
    return [l for l in text.splitlines() if not l.startswith("#")]


# ---------------------------------------------------------------------------
# Builtins


def test_builtins_all_construct():
    for spec in ACCEPTANCE_SUITE:
        cat = builtin_category(spec)
        assert cat.n_objects >= 1


def test_builtin_errors(capsys):
    code = run(["decompose", "--builtin", "nope:1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec,reason", [
    ("delta:12", "0 <= M <= 9, got 12"),
    ("ordinal:-1", "m >= 0, got -1"),
    ("group:S-1", "n >= 0, got -1"),
    ("finset:-1", "outside 0..6"),
    ("vect:-1:2", "at least 0, got -1"),
    ("ordinal:101", "m <= 100 and m >= 0, got 101"),
    ("group:S7", "k <= 6, got 7"),
    ("group:C721", "1 <= k <= 720, got 721"),
    ("vect:3:5", "vect:3:5 has more than 1048576 morphisms"),
    ("vect:1:1000000000000000003", "has more than 1048576 morphisms"),
])
def test_bad_builtin_says_why(spec, reason, capsys):
    assert run(["decompose", "--builtin", spec]) == 2
    err = capsys.readouterr().err
    assert f"bad builtin {spec!r}: " in err and reason in err


@pytest.mark.parametrize("spec", ["group:S6", "group:C720", "ordinal:100"])
def test_builders_materialize_no_composites(spec):
    cat = builtin_category(spec)
    assert cat._ctab == {}
    assert cat.n_morphisms == {"group:S6": 720, "group:C720": 720, "ordinal:100": 5151}[spec]


def test_vect_builtin_within_the_bound_builds():
    assert builtin_category("vect:3:3").n_morphisms == sum(
        3 ** (n * m) for n in range(4) for m in range(4))


def test_oracle_diff_rejects_a_vect_dimension_over_the_bound(capsys):
    assert run(["oracle-diff", "--vect-dim", "5"]) == 2
    assert "vect:5:2 has more than 1048576 morphisms" in capsys.readouterr().err


def _exit_code(argv):
    """The exit code of ``run``, including argparse's exit 2."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,message", [
    (["finvect", "--max-dim", "0", "--q", "1000000000000000003"],
     "--q: must be between 2 and 1048576"),
    (["finvect", "--max-dim", "1", "--q", "1000000007"], "--q: must be between 2 and 1048576"),
    (["decompose", "--builtin", "vect:0:1000000000000000003"], "needs q <= 1048576"),
    (["oracle-diff", "--vect-dim", "0", "--q", "1000000000000000003"],
     "--q: must be between 2 and 1048576"),
])
def test_a_field_over_the_bound_is_refused_at_once(argv, message, capsys):
    start = time.perf_counter()
    assert _exit_code(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_vect_builtin_with_two_digit_entries(capsys):
    code, out = run_capture(["decompose", "--builtin", "vect:2:11", "--level", "0",
                             "--format", "json"], capsys)
    assert code == 0
    orders = {tuple(r["cell"]): r["group_order"] for r in json.loads(out)["components"]}
    assert orders[("2",)] == 13200              # |GL(2, 11)|


@pytest.mark.parametrize("argv,message", [
    (["decompose", "--builtin", "ordinal:1", "--level", "-1"], "--level: must be at least 0"),
    (["segal", "--builtin", "ordinal:1", "--level", "1"], "--level: must be at least 2"),
    (["discrete", "--builtin", "ordinal:1", "--truncation", "0"],
     "--truncation: must be at least 1"),
    (["nerve", "--builtin", "group:S2", "--truncation", "6"],
     "--truncation: must be between 0 and 4"),
    (["finset", "--max", "-1"], "--max: must be at least 0"),
    (["oracle-diff", "--vect-dim", "-2"], "--vect-dim: must be at least 0"),
    (["decompose", "--builtin", "ordinal:1", "--level", "x"], "invalid int value"),
])
def test_out_of_range_arguments_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("module", ["cdiag", "cdiag.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "decompose", "--builtin", "finset:2", "--level", "1"],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert "check orbit-stabilizer: pass" in done.stdout


def test_validation_survives_python_dash_O():
    script = (
        "from cdiag import fincat\n"
        "from cdiag.chains import Chain\n"
        "from cdiag.fincat import CategoryError\n"
        "from cdiag.finset import FiberProfile\n"
        "cat = fincat.walking_arrow()\n"
        "f, idx = cat.mor_index('f'), cat.mor_index('id_x')\n"
        "for make in (lambda: Chain(cat, (0, 1, 1), (f, idx)),\n"
        "             lambda: FiberProfile(n=1, m=1, k=(0, 2))):\n"
        "    try:\n"
        "        make()\n"
        "    except CategoryError:\n"
        "        continue\n"
        "    raise SystemExit('accepted')\n"
        "from cdiag import modp\n"
        "for make in (lambda: modp.mul(((1, 1, 1),), ((1,), (1,)), 5),\n"
        "             lambda: modp.mul(((1, 1),), ((1,), (1, 0)), 5),\n"
        "             lambda: modp.primitive_root(4)):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted')\n")
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_no_assert_in_the_package():
    # checks must survive python -O, which strips assert statements
    pkg = os.path.dirname(cdiag.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_exported_name_resolves():
    assert [name for name in cdiag.__all__ if not hasattr(cdiag, name)] == []
    assert len(set(cdiag.__all__)) == len(cdiag.__all__)


@pytest.mark.parametrize("argv,code,expect", [
    # ordinal:1 has 102 level-100 chains on 2^101 tuples of its two objects
    (["decompose", "--builtin", "ordinal:1", "--level", "100", "--format", "json"], 0, 102),
    # the 5 x 5 cell alone holds 2^25 matrices
    (["finvect", "--max-dim", "5", "--q", "2"], 2, "2^25 matrices exceeds enumeration bound"),
    # one chain of 12000 identities, its trivial stabilizer listed coordinate by coordinate
    (["decompose", "--builtin", "ordinal:0", "--level", "12000", "--format", "json"], 0, 1),
])
def test_commands_bounded_by_their_output_end_at_once(argv, code, expect):
    done = subprocess.run([sys.executable, "-m", "cdiag", *argv], capture_output=True,
                          text=True, env=_src_env(), timeout=30)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert len(json.loads(done.stdout)["components"]) == expect
    else:
        assert expect in done.stderr


DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


# SHA-256 of each demo's stdout, pinned from the engine whose components
# were built from Orbit views
DEMO_STDOUT = {
    "01_distinguishing_categories.py":
        "f11748cd789d69cf5c53872576d3d0cb882fe40f17a5889946b01b300f37044c",
    "02_ordinals_and_truncated_delta.py":
        "31aeb9c2ffb77322286daa22b0dd2a2bab107c32ec00d2e40aa7a79353f4db0a",
    "03_group_categories.py":
        "446207e9eb0a5989b236722b9348e8da9b2ebacd59fdc7e3f4c946193b7475be",
    "04_finite_sets_wreath.py":
        "f8a3d9d632b0f8c438a9cb472ef9aea606bd9a01f0b7cd5a9e6740d81228f363",
    "05_vector_spaces_rank.py":
        "0c5f38de8f5515d7c3a378ac0873f9c08dfe1e27a620d2daee3956f856a9e7ac",
    "06_catdef_input.py":
        "f8ccddf91e0a824e944fb0f501055b1b3e54455adb280882ed8045bbca4c48af",
}


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, demo], capture_output=True,
                          env=_src_env(), timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT[os.path.basename(demo)]


# ---------------------------------------------------------------------------
# Commands


def test_decompose_ordinal2(capsys):
    code, out = run_capture(["decompose", "--builtin", "ordinal:2", "--level", "1"], capsys)
    assert code == 0
    comps = [l for l in body_lines(out) if l.startswith("component")]
    assert len(comps) == 6
    assert all("order=1" in l for l in comps)
    assert "check orbit-stabilizer: pass" in out


def test_segal_s3(capsys):
    code, out = run_capture(["segal", "--builtin", "group:S3", "--level", "2"], capsys)
    assert code == 0
    assert "36 = 36" in out and "bijection verified" in out


def test_complete_walking_arrow(capsys):
    code, out = run_capture(["complete", "--builtin", "walking-arrow"], capsys)
    assert code == 0
    assert "check completeness: pass" in out


def test_discrete_delta(capsys):
    code, out = run_capture(["discrete", "--builtin", "delta:2"], capsys)
    assert code == 0
    assert "verdict=True" in out
    assert "level 1: 31 components" in out


def test_nerve_s2(capsys):
    code, out = run_capture(["nerve", "--builtin", "group:S2", "--truncation", "3"], capsys)
    assert code == 0
    assert "[1, 2, 4, 8]" in out


def test_finset_oracle(capsys):
    code, out = run_capture(["finset", "--max", "4", "--oracle"], capsys)
    assert code == 0
    assert "0 mismatches" in out


def test_finvect_oracle(capsys):
    code, out = run_capture(["finvect", "--max-dim", "2", "--q", "2", "--oracle"], capsys)
    assert code == 0
    assert "0 mismatches" in out


def test_oracle_diff_command(capsys):
    code, out = run_capture(
        ["oracle-diff", "--finset-max", "3", "--vect-dim", "2", "--q", "3"], capsys)
    assert code == 0
    assert out.count("pass") == 2


def test_oracle_diff_requires_subject(capsys):
    assert run(["oracle-diff"]) == 2


# ---------------------------------------------------------------------------
# CATDEF input


def test_catdef_file_input(tmp_path, capsys):
    p = tmp_path / "arrow.catdef"
    p.write_text("object x\nobject y\nmor f : x -> y\n", encoding="utf-8")
    code, out = run_capture(["decompose", "--file", str(p), "--level", "0"], capsys)
    assert code == 0
    assert len([l for l in body_lines(out) if l.startswith("component")]) == 2


def test_catdef_file_error_has_line(tmp_path, capsys):
    p = tmp_path / "bad.catdef"
    p.write_text("object x\nmor f : x -> z\n", encoding="utf-8")
    code = run(["decompose", "--file", str(p)])
    err = capsys.readouterr().err
    assert code == 2 and "line 2" in err


def test_segal_on_an_empty_catdef_file(tmp_path, capsys):
    p = tmp_path / "empty.catdef"
    p.write_text("# nothing\n", encoding="utf-8")
    code, out = run_capture(["segal", "--file", str(p), "--level", "2"], capsys)
    assert code == 0
    assert body_lines(out) == ["check segal-2: pass (0 = 0, bijection verified)"]
    code, out = run_capture(["segal", "--file", str(p), "--level", "2",
                             "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["checks"] == [{"details": "0 = 0, bijection verified",
                                          "name": "segal-2", "status": "pass"}]


@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_an_output_path_that_cannot_be_opened_is_a_usage_error(where, tmp_path, capsys):
    # a file in a directory that does not exist, and a directory itself
    code = run(["decompose", "--builtin", "ordinal:1", "--output", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("cdiag: error: ") and captured.out == ""


def test_exactly_one_input(capsys, tmp_path):
    p = tmp_path / "a.catdef"
    p.write_text("object x\n", encoding="utf-8")
    assert run(["decompose", "--builtin", "ordinal:1", "--file", str(p)]) == 2
    assert run(["decompose"]) == 2


# ---------------------------------------------------------------------------
# Output formats and determinism


def test_json_round_trip(capsys):
    code, out = run_capture(
        ["decompose", "--builtin", "finset:3", "--level", "1", "--format", "json"],
        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "decompose"
    assert rep["config"]["limits"]["iso_limit"] == 512
    comps = rep["components"]
    assert sum(c["orbit_size"] for c in comps) == 60   # functions among sets <= 3
    for c in comps:
        assert set(c) == {"level", "cell", "representative", "orbit_size",
                          "group_expr", "group_order", "policy"}
        assert isinstance(c["group_order"], int)


def test_byte_identical_reruns(capsys):
    argv = ["decompose", "--builtin", "vect:1:3", "--level", "1"]
    _, out1 = run_capture(argv, capsys)
    _, out2 = run_capture(argv, capsys)
    assert out1 == out2


GOLDEN_ORDINAL2_LEVEL1 = """\
component level=1 cell=(0,0) rep=(id_0) size=1 order=1 group=1 policy=isomorphism
component level=1 cell=(0,1) rep=(a0_1) size=1 order=1 group=1 policy=isomorphism
component level=1 cell=(0,2) rep=(a0_2) size=1 order=1 group=1 policy=isomorphism
component level=1 cell=(1,1) rep=(id_1) size=1 order=1 group=1 policy=isomorphism
component level=1 cell=(1,2) rep=(a1_2) size=1 order=1 group=1 policy=isomorphism
component level=1 cell=(2,2) rep=(id_2) size=1 order=1 group=1 policy=isomorphism
check orbit-stabilizer: pass (identity verified on every component)
check size-sum: pass (6 chains at level 1)"""


def test_golden_body_ordinal2(capsys):
    _, out = run_capture(["decompose", "--builtin", "ordinal:2", "--level", "1"], capsys)
    assert "\n".join(body_lines(out)).strip() == GOLDEN_ORDINAL2_LEVEL1


# SHA-256 of the report body (every line not starting with #), pinned from
# the engine before orbits and stabilizers moved onto action arrays.  The
# JSON digests were re-taken when scan_limit left config.limits, after
# checking that the old reports without that key were the same bytes.
PINNED_BODIES = [
    (("decompose", "--builtin", "vect:2:2", "--level", "2"),
     "543614cad04ac01a07e4474b37964fe755703748bf9b6afbde7472a92489380f",
     "591e329aa731148bcdec040a33e5ce5bd999153193021b059d4ac40249515496"),
    (("decompose", "--builtin", "finset:3", "--level", "1"),
     "f29ee674e5fa11e0350258eacce3ab2e46ec1330ae3e42e069a1b40f8c9abace",
     "9596af831afd68bff366286d5ca0e0256b073aa93f31f0f5c89674b912cc1207"),
    (("decompose", "--builtin", "iso-interval", "--level", "2"),
     "41252e2c8905e2b86c6ea290bb0126acbdbf21431f08b303de82aaedefd25ec3",
     "6a2e1bcc2e48f2f8db37059ee4931fb359ae82d1600a48304a7f70ef5eab0b0e"),
    (("decompose", "--builtin", "delta:2", "--level", "2"),
     "010c7e45506d15640f134f5ccd2e1889d9e195444b65c29c3b730c48541eb1e7",
     "a507bfa13ba51655a4e9939776bfd49bd4f9635094f84a5aa510cbd66bcc1d53"),
    # small stabilizers inside ambient products above 100,000, tabled to be
    # named (vect:2:5 has one of order 480)
    (("decompose", "--builtin", "vect:2:3", "--level", "2"),
     "57d483241d984646a3857d1e76bed57185bbad7e4c3350b3d9a2b8f45d2c4968",
     "1a72cfca28315eb1c57945df5e163a4aedaa315ae28aa91e1a8adf3b1c775a14"),
    (("decompose", "--builtin", "vect:2:5", "--level", "1"),
     "3f383a8624fd6719485b1d05cbb4eac3732744e0004e7ccc6cdc6c141d3b0335",
     "3295b478f29be444a8caa67e1c07ec2087e3d86c6fc66a1a532a98019fd158ad"),
    # groups and ordinals, pinned from the engine whose builders stored
    # every composite in a table
    (("decompose", "--builtin", "group:S4", "--level", "2"),
     "29090e9ad5befdb91912302a79fc7b65ac5e2bf7ea611792287b2a6c9251ebe7",
     "c79820f8ae73b119a508f75a6a60367ba7bb8beb3971a3737c6f83726d264ee3"),
    (("decompose", "--builtin", "ordinal:4", "--level", "2"),
     "a42f971ff3ab752723db41a3889a2a3a8838bedff45b35e0ee0a610f556b0d1e",
     "547870c42be4506f200c2ebb0e85c680ae96756ff1c53ffce5b9d95ed512558e"),
    (("decompose", "--builtin", "group:C6", "--level", "1"),
     "370d9ae08624ecfd239146d8c0070e61e1d310c82b9f400a4e392d89c918ea97",
     "b2fa317e091ccc49ba918a26058cd7de3bf5db85bf33e3e7a0c8fd8c44712fba"),
    (("complete", "--builtin", "group:S3"),
     "26396122228574df07fd53c905b7e4d69156d93eecc6cfc5f697c66e0d92db8b",
     "bcd0a4d7f9da707c093b425e2c1b27b56346e9314573d7b683b26b21bd7f806c"),
    # pinned from the engine that built the whole invertible-square groupoid
    (("complete", "--builtin", "group:S5", "--chain-limit", "2000000"),
     "d2f9fa44c82a8675b2bdf0b41d2f0776197aa205fd6b7cacc6181f8f7fca1e5d",
     "3ae8685e02e4924f4f5d4f2a384c787ab9c932a7fd29fd8361144ca9972a540f"),
    # pinned from the engine that enumerated chains with a recursive generator
    (("segal", "--builtin", "finset:4", "--level", "2"),
     "d09376c31f4c788e273311c0c870ebd59ec6f975cb8df38ed24135b747c75832",
     "ec72a113d2e972caa5510732068575bd3210eb766758c900f56d708c9565cc93"),
    (("decompose", "--builtin", "delta:3", "--level", "2"),
     "0b804aec9d07f236223a517ad34704b569f0135b934056765f533b26b25d146f",
     "15b0015167b2eaf8f60220e1fe321a8c17d44b01d3ff42ec1cf0f78fb0456e3e"),
    (("nerve", "--builtin", "group:S3", "--truncation", "3"),
     "a53bf6be8df9c87a4636364b0dc79c44304361e3d5f78f5167dd4682c6f55f17",
     "6ceabb477cabb6658da536bb565a251cea81b35a2377c32d44228b9b97269de0"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,text_sha,json_sha", PINNED_BODIES,
                         ids=[" ".join(p[0][2:]) for p in PINNED_BODIES])
def test_pinned_report_body(argv, text_sha, json_sha, fmt, capsys):
    assert _body_digest(argv, fmt, capsys) == (text_sha if fmt == "text" else json_sha)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pinned_body_on_the_search_path(fmt, monkeypatch, capsys):
    # a listing bound of 0 sends every stabilizer down the orbit search
    monkeypatch.setattr(chains, "_LIST_LIMIT", 0)
    argv, text_sha, json_sha = PINNED_BODIES[0]
    assert _body_digest(argv, fmt, capsys) == (text_sha if fmt == "text" else json_sha)


def _body_digest(argv, fmt, capsys):
    code, out = run_capture(list(argv) + ["--format", fmt], capsys)
    assert code == 0
    body = "".join(line + "\n" for line in body_lines(out))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ViewBuilt(Exception):
    pass


def _refuse(*args, **kwargs):
    raise ViewBuilt


VIEW_FREE_RUNS = [
    *([command, "--builtin", spec] + flags
      for spec in ACCEPTANCE_SUITE
      for command, flags in [("decompose", ["--level", "0"]), ("decompose", ["--level", "1"]),
                             ("decompose", ["--level", "2"]), ("segal", []), ("complete", []),
                             ("discrete", []), ("nerve", [])]),
    ["finset", "--max", "3", "--oracle"],
    ["finvect", "--max-dim", "2", "--q", "2", "--oracle"],
    *(["oracle-diff", "--finset-max", "4", "--variant", v] for v in ("all", "inj", "surj")),
    ["oracle-diff", "--vect-dim", "2", "--q", "3"],
]


def test_no_command_builds_an_object_view(monkeypatch, capsys):
    # commands read the columns of the level blocks: no Chain, no Orbit
    want = [run_capture(argv, capsys) for argv in VIEW_FREE_RUNS]
    monkeypatch.setattr(chains.Chain, "__init__", _refuse)
    monkeypatch.setattr(chains.Orbit, "__init__", _refuse)
    monkeypatch.setattr(chains.TupleBlock, "orbits", _refuse)
    for argv, expected in zip(VIEW_FREE_RUNS, want):
        assert run_capture(argv, capsys) == expected, argv


# flags, then their defaults; JSON, then text; usage errors between them
REPEATED_RUNS = [
    ["decompose", "--builtin", "group:S3", "--level", "2", "--iso-limit", "4"],
    ["decompose", "--builtin", "group:S3"],
    ["decompose", "--builtin", "vect:1:3", "--level", "0", "--format", "json"],
    ["decompose", "--builtin", "vect:1:3", "--level", "x"],
    ["decompose", "--builtin", "vect:1:3", "--level", "0"],
    ["segal", "--builtin", "ordinal:2", "--level", "3", "--chain-limit", "10"],
    ["segal", "--builtin", "ordinal:2"],
    ["nerve", "--builtin", "group:S3", "--truncation", "9"],
    ["complete", "--builtin", "group:C4", "--format", "json"],
    ["complete", "--builtin", "group:C4"],
]


def _run_isolated(argv):
    """(exit code, stdout, stderr) of one in-process run; a usage error
    leaves run by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_runs_in_one_process_equal_fresh_parsers():
    cli._parser.cache_clear()
    shared = [_run_isolated(argv) for argv in REPEATED_RUNS]
    fresh = []
    for argv in REPEATED_RUNS:
        cli._parser.cache_clear()
        fresh.append(_run_isolated(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 2, 0, 2, 0, 0]
    assert "invalid int value: 'x'" in shared[3][2]
    assert "iso_limit=512" in shared[1][1] and "iso_limit=4" in shared[0][1]
    assert cli._parser.cache_info().currsize == 1


VIEW_CASES = ([(spec, n) for spec in ACCEPTANCE_SUITE for n in range(3)]
              + [("delta:3", 2), ("finset:4", 2), ("vect:2:3", 2)])


@pytest.mark.parametrize("spec,level", VIEW_CASES)
def test_block_rows_equal_the_component_views(spec, level):
    cat = builtin_category(spec)
    dec = classifying.level_decomposition(cat, level)
    rows = cli._decomposition_rows(dec)
    assert rows == [cli._component_row(c) for c in dec.components]
    # the rows again from orbits(), each stabilizer named through a memo of its own
    memo, limits = GroupMemo(DEFAULT_LIMITS.iso_limit), DEFAULT_LIMITS
    from_orbits = []
    for o in chains.orbits(cat, level):
        order = o.stabilizer.order
        if order == 1:
            expr, policy = "1", "isomorphism"
        elif order <= limits.iso_limit:
            expr = memo.name(o.stabilizer.to_cayley_table(limits.table_limit, memo))
            policy = "isomorphism"
        else:
            expr, policy = None, "order-only"
        rep = o.rep.morphism_ids if level else o.rep.object_ids
        from_orbits.append({"level": level, "cell": list(o.rep.object_ids),
                            "representative": list(rep), "orbit_size": o.size,
                            "group_expr": expr, "group_order": order, "policy": policy})
    assert rows == from_orbits
    report = {"command": "decompose", "config": {}}
    assert (cli._render_text(dict(report, components=cli._decomposition_lines(dec)))
            == cli._render_text(dict(report, components=from_orbits)))
    assert len(dec) == len(rows) and dec.orders() == sorted(r["group_order"] for r in rows)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(["segal", "--builtin", "ordinal:1", "--level", "2",
                "--format", "json", "--output", str(target)])
    assert code == 0
    rep = json.loads(target.read_text(encoding="utf-8"))
    assert rep["checks"][0]["status"] == "pass"


# ---------------------------------------------------------------------------
# Limits plumbing


def test_limit_flags_echoed(capsys):
    _, out = run_capture(
        ["decompose", "--builtin", "ordinal:1", "--format", "json",
         "--table-limit", "777"], capsys)
    lims = json.loads(out)["config"]["limits"]
    assert lims == {"chain_limit": 1_000_000, "table_limit": 777, "iso_limit": 512}


def test_env_limits(capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", "iso_limit=64,table_limit=5000")
    _, out = run_capture(
        ["decompose", "--builtin", "ordinal:1", "--format", "json"], capsys)
    lims = json.loads(out)["config"]["limits"]
    assert lims["iso_limit"] == 64 and lims["table_limit"] == 5000


def test_the_scan_limit_is_gone(capsys, monkeypatch):
    argv = ["decompose", "--builtin", "ordinal:1"]
    assert _exit_code(argv + ["--scan-limit", "1"]) == 2
    assert "unrecognized arguments: --scan-limit" in capsys.readouterr().err
    monkeypatch.setenv("CDIAG_LIMITS", "scan_limit=5")
    assert run(argv) == 2
    assert "unknown limit 'scan_limit'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decompose", "--builtin", "group:S3", "--level", "1"],
    ["complete", "--builtin", "group:S3"],
])
def test_table_limit_holds_for_every_stabilizer(argv, capsys):
    # group:S3 has stabilizers of order 6, tabled to name them
    assert run(argv + ["--table-limit", "6"]) == 0
    capsys.readouterr()
    assert run(argv + ["--table-limit", "5"]) == 2
    assert "closure exceeded limit 5" in capsys.readouterr().err


def test_env_limits_overridden_by_flags(capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", "iso_limit=64")
    _, out = run_capture(
        ["decompose", "--builtin", "ordinal:1", "--format", "json",
         "--iso-limit", "32"], capsys)
    assert json.loads(out)["config"]["limits"]["iso_limit"] == 32


@pytest.mark.parametrize("argv", [
    ["nerve", "--builtin", "group:S6", "--truncation", "3"],
])
def test_nerve_and_complete_refuse_over_chain_limit_at_once(argv, capsys):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert "exceeds chain_limit 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "segal"])
def test_a_level_far_above_chain_limit_is_refused_at_once(command):
    # group:C720 has 720^3 chains at level 3, so no level above it is counted
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cdiag", command, "--builtin", "group:C720",
                           "--level", "1000000"], capture_output=True, text=True,
                          env=_src_env(), timeout=30)
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 2
    assert "exceeds chain_limit 1000000" in done.stderr


@pytest.mark.parametrize("spec", ["group:S5", "group:S6", "vect:2:5"])
def test_complete_on_large_automorphism_groups_runs_at_once(spec, capsys):
    start = time.perf_counter()
    assert run(["complete", "--builtin", spec]) == 0
    assert time.perf_counter() - start < 5.0
    assert "check completeness: pass" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["nerve", "--truncation", "3"], ["complete"]])
def test_nerve_and_complete_count_against_chain_limit(command, capsys):
    # group:S3 has 6^3 = 216 nerve 3-simplices; complete counts its 6
    # isomorphisms, the 1-chains of iso(C)
    count, level = {"nerve": (216, 3), "complete": (6, 1)}[command[0]]
    argv = [command[0], "--builtin", "group:S3"] + command[1:]
    assert run(argv + ["--chain-limit", str(count - 1)]) == 2
    assert f"{count} chains at level {level} exceeds" in capsys.readouterr().err
    assert run(argv + ["--chain-limit", str(count)]) == 0
    assert run(argv) == 0


def test_a_failed_stabilizer_self_check_exits_1(monkeypatch, capsys):
    listed = chains._stabilizer_elements
    monkeypatch.setattr(chains, "_stabilizer_elements",
                        lambda cat, objs, reps: [els[:-1] for els in listed(cat, objs, reps)])
    assert run(["decompose", "--builtin", "finset:3", "--level", "1"]) == 1
    assert "orbit-stabilizer identity fails" in capsys.readouterr().err


def test_a_failed_closed_form_self_check_exits_1(monkeypatch, capsys):
    real = finset.FiberProfile.group_order
    monkeypatch.setattr(finset.FiberProfile, "group_order", lambda p: 2 * real(p))
    assert run(["finset", "--max", "3"]) == 1
    assert "self-check failed: profile" in capsys.readouterr().err


def _without_last_component(blocks):
    *rest, last = blocks
    k = len(last) - 1
    return rest + [dataclasses.replace(
        last, reps=last.reps[:k], fiber_sizes=last.fiber_sizes[:k], orders=last.orders[:k],
        elements=last.elements[:k], policies=last.policies[:k])]


def test_a_failed_size_sum_exits_1(monkeypatch, capsys):
    real = chains.level_blocks
    monkeypatch.setattr(chains, "level_blocks",
                        lambda *a, **kw: _without_last_component(real(*a, **kw)))
    assert run(["decompose", "--builtin", "finset:3", "--level", "1"]) == 1
    assert "component sizes do not sum to the chain count" in capsys.readouterr().err


def test_bad_env_limits(capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", "bogus=3")
    assert run(["decompose", "--builtin", "ordinal:1"]) == 2
