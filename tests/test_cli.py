import contextlib
import dataclasses
import glob
import io
import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import cdiag
from cdiag import chains, classifying, cli, finset
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category, run
from cdiag.groups import GroupMemo
from cdiag.limits import DEFAULT_LIMITS, Limits

from conftest import repeated_image, spoiled_aut_columns


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
    ("group:X3", "expected group:S<k> or group:C<k>"),
    ("group:S", "expected group:S<k> or group:C<k>"),
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
    (["finset", "--max", "-1"], "--max: must be between 0 and 16"),
    (["oracle-diff", "--vect-dim", "-2"], "--vect-dim: must be at least 0"),
    (["decompose", "--builtin", "ordinal:1", "--level", "x"], "invalid int value"),
    (["finset", "--max", "17"], "--max: must be between 0 and 16, got 17"),
    (["oracle-diff", "--finset-max", "7"], "--finset-max: must be between 0 and 6, got 7"),
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
    # a descending code array and a composite with the wrong endpoints are
    # refused, each for its own reason
    script = (
        "import numpy as np\n"
        "from cdiag import fincat, finset\n"
        "from cdiag.fincat import CategoryError, FiniteCategory\n"
        "from cdiag.finset import FiberProfile\n"
        "codec = finset._FunctionCodec()\n"
        "codes = [[np.arange(codec.bound(s, d)) for d in range(3)] for s in range(3)]\n"
        "codes[1][2] = codes[1][2][::-1]\n"
        "wrong = 'object x\\nobject y\\nmor f : x -> y\\nmor g : y -> y\\ncompose g f = g\\n'\n"
        "for make, why in (\n"
        "        (lambda: FiniteCategory.coded('012', codes, codec=codec,\n"
        "                                      compose_payload=lambda g, f: None),\n"
        "         'codes of Hom(1, 2) do not strictly ascend: 1 before 0'),\n"
        "        (lambda: fincat.from_catdef(wrong), 'g has the wrong endpoints'),\n"
        "        (lambda: FiberProfile(n=1, m=1, k=(0, 2)), '')):\n"
        "    try:\n"
        "        make()\n"
        "    except CategoryError as exc:\n"
        "        if why in str(exc):\n"
        "            continue\n"
        "        raise\n"
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


@pytest.mark.parametrize("text,line,message", [
    ("object x\nobject x-y\n", 2, "bad object name 'x-y'"),
    ("object x\nobject y z\n", 2, "expected: object <name>"),
    ("object x\nmor f : x -> x\ncompose f f f\n", 3, "expected: compose <g> <f> = <h>"),
    ("object x\narrow f : x -> x\n", 2, "unrecognized directive 'arrow'"),
    ("object x\nobject y\nmor f : x -> y\nmor g : x -> y\ncompose g f = f\n", 5,
     "compose g f: target of f is y, source of g is x"),
    ("object x\nobject y\nmor a : x -> x\nmor h : x -> y\ncompose a a = h\n", 5,
     "compose a a = h: h has the wrong endpoints"),
    ("object x\nmor a : x -> x\ncompose a a = a\ncompose a a = id_x\n", 4,
     "conflicting composites for (a, a): a vs id_x"),
])
def test_every_catdef_refusal_names_its_line(text, line, message, tmp_path, capsys):
    p = tmp_path / "bad.catdef"
    p.write_text(text, encoding="utf-8")
    assert run(["decompose", "--file", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"cdiag: error: line {line}: {message}\n" and captured.out == ""


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
    # stabilizers up to order 512 tabled and named, pinned from the engine
    # that tabled every coordinate of every listing
    (("decompose", "--builtin", "vect:3:2", "--level", "2"),
     "f5d78d354ba0e19d768636e7c4b6873ba953bd875348e7a3b3f63afb510ccf46",
     "607b05ec1ed3e72bfeab1fb0c046a3600a4b2663c5d15f22932637c2cd7524f7"),
    (("decompose", "--builtin", "vect:3:3", "--level", "1"),
     "ddf8939a7778f6fdd07b83f323fb280a0f55927c5835e18479ad9ee7c6cedc97",
     "687ff922ac4931fc808c01ddd4f7d7c9cdec0dedfd629187fe566db271ebda16"),
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


# the closed-form commands, pinned from the code that kept a separate level-1
# form per finset variant and named the vect rank rows apart from the
# catalogue
CLOSED_FORM_BODIES = [
    (("finset", "--max", "5", "--oracle", "--variant", "all"),
     "67bb64bf8e4c18c9b8c73eb4264ae63520b53e9837aff5f57c4cc03ef3ee06eb",
     "45bd5488e49a5c5979f61df661879d23795e6e62e64daa7d7880e6377c6c9914"),
    (("finset", "--max", "5", "--oracle", "--variant", "inj"),
     "9b0281d7221e5c1a3fbeaf5b31e0575e60696ab7453f64cd3ca95c165e98b219",
     "c051a88da87a0c418a013fd586d3822ea27b4a23a2cedc3f8d6e5bea0bd71368"),
    (("finset", "--max", "5", "--oracle", "--variant", "surj"),
     "57ba19ae0d9f8c3923fa3e731d92acd6b5f690ee47bca12fa1b10921062cd789",
     "701562b6177df9956d6887397ca484246b5131beffed46b44973a231b96cf084"),
    (("finset", "--max", "6", "--variant", "all"),
     "82534db809763aa5d733bbc81817a0c765bd0627223b3cfc01686e58f6523e1b",
     "2cab0b632393d6fb22e48184505e539a75774c84e758131f73470e180221632f"),
    (("finset", "--max", "6", "--variant", "inj"),
     "a15278ec78a8e95baa9e36bcd5207e57d34cdb60e644cb99e9ba2d90a0ad102f",
     "0923b648a3e0bb32f682933c7ab1bc6b8fa3eb4cb4ed713ab4cbf9217133df28"),
    (("finset", "--max", "6", "--variant", "surj"),
     "239807f87e56f0c7a91d4f7a6a4281ef8bbd380e28a90dcfb33a1c56efb33d0d",
     "4db44fc92ae4720eeedf1ff30c34e0bc4da877100ff5a5cbe0069c69afa398a4"),
    (("finvect", "--max-dim", "2", "--q", "2", "--oracle"),
     "fe84d64b4386a26e010a6e758dca34a380b4787e0bae995475992687f31a9608",
     "af0c50268dca55da11c6c7c86d42d1da3a508458bf33a730f96e36664f44b84f"),
    (("finvect", "--max-dim", "2", "--q", "3", "--oracle"),
     "6ebe7e2d3b9841b248bdbb15c24d6ff0ee22765ca9a23dcfd45a53eb752d9f84",
     "7196d468f3be20350438045f4230700ee102a966a4639ca5a2fa7faef8aa5b6e"),
    (("finvect", "--max-dim", "3", "--q", "2", "--oracle"),
     "475f7a426995c6041f219b7dc59d6832a1c67d111a5d8f3ad47ea8222bc9a41b",
     "f29b42585fa509cb6cfc31a25a1a43ed0c55aff08e52bd6a1393f9237352c69a"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,text_sha,json_sha", CLOSED_FORM_BODIES,
                         ids=[" ".join(p[0]) for p in CLOSED_FORM_BODIES])
def test_pinned_closed_form_body(argv, text_sha, json_sha, fmt, capsys):
    assert _body_digest(argv, fmt, capsys) == (text_sha if fmt == "text" else json_sha)


# acceptance criterion 7 at its largest size, text bodies pinned from the
# engine that checked every closed-form table once per profile
ORACLE_DIFF_BODIES = {
    "all": "221194099539abf50a562294e7c37a7c443cc1cfdea77666545e8b077d3139f4",
    "inj": "41ef56b446e7f303179768e96593d9a8dfbad3482c9bcbe75ae8c8f49adc85cd",
    "surj": "677c9b34df24cca1ced25e90fde76c858b640a62c6d270ea26500fafc2b4acdf",
}


@pytest.mark.parametrize("variant", ORACLE_DIFF_BODIES)
def test_criterion_7_oracle_diff_at_finset_max_6(variant, capsys):
    argv = ("oracle-diff", "--finset-max", str(finset.DEFAULT_MAX_CARD), "--variant", variant)
    code, out = run_capture(list(argv), capsys)
    assert code == 0
    body = body_lines(out)
    checks = [l for l in body if l.startswith("check ")]
    assert checks and all("0 mismatches" in l for l in checks)
    digest = hashlib.sha256("".join(l + "\n" for l in body).encode("utf-8")).hexdigest()
    assert digest == ORACLE_DIFF_BODIES[variant]


# levels with few chains on long object tuples, each with a trivial ambient
# group, pinned from the engine that labelled and listed every such chain
FEW_CHAIN_BODIES = [
    (("decompose", "--builtin", "ordinal:1", "--level", "400"),
     "a07eb6fe8d49c90ad3c286f592159b3589e4cb5de5c9f2db5d6c503dc2794d70",
     "573d96ba9f6d79e5aa9ecac3af378b80beef6c0647edfa13f3f962617fb32904"),
    (("discrete", "--builtin", "ordinal:1", "--truncation", "60"),
     "864b13bab91fba906e035a77bcc7c55487d8eff925faab195f183cf0063db290",
     "3b820bdc034c0605a07a859430c09fe255f99ca1b3439873aecd49a829d37746"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,text_sha,json_sha", FEW_CHAIN_BODIES,
                         ids=[" ".join(p[0]) for p in FEW_CHAIN_BODIES])
def test_pinned_few_chain_body(argv, text_sha, json_sha, fmt, capsys):
    assert _body_digest(argv, fmt, capsys) == (text_sha if fmt == "text" else json_sha)


# table_limit 1 sends every stabilizer of order above 1 down the orbit
# search, and iso_limit 1 names only the trivial ones; pinned from the engine
# that listed every stabilizer of order up to 100,000
SEARCH_PATH_BODY = (
    ("decompose", "--builtin", "vect:2:2", "--level", "2", "--table-limit", "1",
     "--iso-limit", "1"),
    "406f0616b4b6a044ec7198ebfde3c5ff046d6a93137251793dce0a97f4ec3f5e",
    "89da70f50a400d7cd32ee44169836492d7fc657bfcceee225fe4db7d5b8f587e")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pinned_body_on_the_search_path(fmt, capsys):
    argv, text_sha, json_sha = SEARCH_PATH_BODY
    blocks = chains.level_blocks(builtin_category("vect:2:2"), 2, Limits(table_limit=1))
    assert {b.stabilizer(k).policy for b in blocks for k in range(len(b))
            if b.orders[k] > 1} == {"transversal"}
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


def test_repeated_runs_in_one_process_equal_fresh_parsers(monkeypatch):
    shared = [_run_isolated(argv) for argv in REPEATED_RUNS]
    fresh = []
    for argv in REPEATED_RUNS:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(_run_isolated(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 2, 0, 2, 0, 0]
    assert "invalid int value: 'x'" in shared[3][2]
    assert "iso_limit=512" in shared[1][1] and "iso_limit=4" in shared[0][1]


VIEW_CASES = ([(spec, n) for spec in ACCEPTANCE_SUITE for n in range(3)]
              + [("delta:3", 2), ("finset:4", 2), ("vect:2:3", 2)])


@pytest.mark.parametrize("spec,level", VIEW_CASES)
def test_block_rows_equal_the_component_views(spec, level):
    cat = builtin_category(spec)
    dec = classifying.level_decomposition(cat, level)
    # representatives compared as tuples: the rows hold the lists of one gather
    rows = [(level, cell, tuple(rep), *rest) for level, cell, rep, *rest in dec.rows()]
    assert [c.row() for c in dec.components] == rows
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
        cell = tuple(cat.objects[x] for x in o.rep.objs)
        rep = tuple(cat.mor_ids[f] for f in o.rep.mors) if level else cell
        from_orbits.append((level, cell, rep, o.size, order, expr, policy))
    assert rows == from_orbits
    # the writer over the block columns, against the row-by-row reference
    report = {"command": "decompose", "config": {"level": level, "limits": {"iso_limit": 512}},
              "checks": [{"name": "size-sum", "status": "pass", "details": "é \"q\""}]}
    for fmt in ("text", "json"):
        assert ("".join(cli.report_pieces(report, dec.row_columns(), fmt))
                == _reference_report(report, from_orbits, fmt))
    assert len(dec) == len(rows) and dec.orders() == sorted(row[4] for row in rows)


def _reference_report(report: dict, rows, fmt: str) -> str:
    """``report`` with the component ``rows`` as the row-by-row writer wrote
    it: a formatted line per row and per check, or ``json.dumps`` over a
    dict per row."""
    if fmt == "json":
        objects = [{"level": level, "cell": cell, "representative": rep, "orbit_size": size,
                    "group_order": order, "group_expr": expr, "policy": policy}
                   for level, cell, rep, size, order, expr, policy in rows]
        return json.dumps(dict(report, components=objects), indent=2, sort_keys=True) + "\n"
    cfg = " ".join(f"{k}={v}" for k, v in sorted(report["config"].items()) if k != "limits")
    lims = ",".join(f"{k}={v}" for k, v in sorted(report["config"]["limits"].items()))
    lines = [f"# cdiag {report['command']}", f"# config: {cfg} limits[{lims}]"]
    lines += [f"component level={level} cell=({','.join(cell)}) rep=({','.join(rep)}) "
              f"size={size} order={order} group={'?' if expr is None else expr} policy={policy}"
              for level, cell, rep, size, order, expr, policy in rows]
    lines += [f"check {c['name']}: {c['status']} ({c['details']})" for c in report["checks"]]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("argv", [
    *(["finset", "--max", "4", "--oracle", "--variant", v] for v in ("all", "inj", "surj")),
    ["finvect", "--max-dim", "2", "--q", "3"],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_form_reports_equal_the_row_by_row_reference(argv, fmt, monkeypatch, capsys,
                                                            tmp_path):
    # the rows each command hands the writer, and its report envelope
    seen, real = [], cli._diff_report

    def spy(rows, diffs):
        seen.append(list(rows))
        return real(seen[-1], diffs)

    monkeypatch.setattr(cli, "_diff_report", spy)
    _, out = run_capture(argv + ["--format", "json"], capsys)
    report = json.loads(out)
    del report["components"]
    want = _reference_report(report, seen[0], fmt)
    if argv[0] == "finset":         # the profile trees are not ASCII
        assert ("Γ" in want) if fmt == "text" else ("\\u0393" in want)
    assert run_capture(argv + ["--format", fmt], capsys) == (0, want)
    target = tmp_path / "report"
    assert run(argv + ["--format", fmt, "--output", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_writer_reads_a_block_at_a_time(fmt, monkeypatch):
    # no block is read before the rows of the one before it are written,
    # and a run of rows longer than a piece is cut
    monkeypatch.setattr(cli, "_PIECE_ROWS", 2)
    dec = classifying.level_decomposition(builtin_category("delta:2"), 1)
    reads = []

    def counted():
        for block in dec.row_columns():
            reads.append(len(block[2]))
            yield block

    report = {"command": "decompose", "config": {"limits": {}}, "checks": []}
    pieces = cli.report_pieces(report, counted(), fmt)
    written = [next(pieces)]        # the header
    assert reads == []
    written.append(next(pieces))
    assert len(reads) == 1
    written += pieces
    assert len(reads) == len(dec.blocks) > 1 and max(reads) > 2
    assert len(written) - 2 > len(dec.blocks)
    assert "".join(written) == _reference_report(report, dec.rows(), fmt)


_COMPONENT_LINE = re.compile(r"component level=(\d+) cell=\((.*?)\) rep=\((.*)\) size=(\d+) "
                             r"order=(\d+) group=(.*) policy=(\S+)")


@pytest.mark.parametrize("argv", [
    *(["finset", "--max", "3", "--variant", v] for v in ("all", "inj", "surj")),
    ["finvect", "--max-dim", "2", "--q", "3", "--oracle"],
])
def test_closed_form_text_and_json_rows_agree_field_by_field(argv, capsys):
    _, text = run_capture(argv, capsys)
    _, out = run_capture(argv + ["--format", "json"], capsys)
    report = json.loads(out)
    comps, checks = report["components"], report["checks"]
    lines = [l for l in body_lines(text) if l.startswith("component ")]
    assert len(lines) == len(comps) > 0
    for line, c in zip(lines, comps):
        level, cell, rep, size, order, expr, policy = _COMPONENT_LINE.fullmatch(line).groups()
        assert set(c) == {"level", "cell", "representative", "orbit_size",
                          "group_expr", "group_order", "policy"}
        assert (int(level), cell.split(","), rep, int(size), int(order), expr, policy) == (
            c["level"], c["cell"], ",".join(c["representative"]), c["orbit_size"],
            c["group_order"], "?" if c["group_expr"] is None else c["group_expr"], c["policy"])
    assert [l for l in body_lines(text) if not l.startswith("component ")] == [
        f"check {c['name']}: {c['status']} ({c['details']})" for c in checks]


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
    # group:S3 has stabilizers of order 6, listed to name or check them
    assert run(argv + ["--table-limit", "6"]) == 0
    capsys.readouterr()
    assert run(argv + ["--table-limit", "5"]) == 2
    assert "group of order 6 exceeds table_limit 5" in capsys.readouterr().err


def test_every_table_refusal_names_table_limit_and_the_order():
    from cdiag import finvect, groups
    want = "group of order 6 exceeds table_limit 5"
    with pytest.raises(groups.ClosureLimitExceeded, match=want):
        groups.materialize(groups.Symmetric(3), table_limit=5)
    s3 = builtin_category("group:S3")
    with pytest.raises(groups.ClosureLimitExceeded, match=want):
        chains.level_blocks(s3, 0)[0].stabilizer(0).to_cayley_table(5)
    with pytest.raises(groups.ClosureLimitExceeded, match="group of order 12 exceeds table_limit 5"):
        finvect.rank_case(1, 2, 1, 3).table(5)
    # a closure that overshoots its stated order keeps the closure wording
    with pytest.raises(groups.ClosureLimitExceeded, match="closure exceeded limit 10"):
        groups.greedy_closure([1], lambda a, b: (a + b) % 100, 0, 10)


@pytest.mark.parametrize("override,message", [
    ({"argv": ["--table-limit", "0"]}, "limit table_limit must be positive"),
    ({"env": "iso_limit=-1"}, "limit iso_limit must be positive"),
    ({"env": "table_limit"}, "bad CDIAG_LIMITS entry 'table_limit'"),
    ({"env": "table_limit=many"}, "bad CDIAG_LIMITS entry 'table_limit=many'"),
])
def test_a_bad_limit_is_a_usage_error(override, message, capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", override.get("env", ""))
    assert run(["decompose", "--builtin", "ordinal:1"] + override.get("argv", [])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"cdiag: error: {message}\n" and captured.out == ""


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


@pytest.mark.parametrize("argv,size,obj", [
    (["oracle-diff", "--finset-max", "3"], 6, "3"),
    (["decompose", "--builtin", "vect:2:3", "--level", "1"], 48, "2"),
    # GL(3,3), above _ASSOC_CHECK_LIMIT: at the default iso_limit no
    # stabilizer named at level 1 reads it
    (["decompose", "--builtin", "vect:3:3", "--level", "1", "--iso-limit", "1000"], 11232, "3"),
])
def test_a_spoiled_generator_column_exits_1(argv, size, obj, monkeypatch, capsys):
    # one Aut(x) generator column with a repeated image: the per-command
    # check of Aut(x) fails, and it is the engine's fault, not a usage error
    spoiled_aut_columns(monkeypatch, size, repeated_image)
    assert run(argv) == 1
    assert (f"self-check failed: Aut({obj}) is not a group: "
            "a left generator column is not a permutation") in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decompose", "--builtin", "ordinal:1", "--level", "400"],
    ["decompose", "--builtin", "delta:3", "--level", "2", "--format", "json"],
], ids=["text", "json"])
def test_a_reader_that_closes_after_one_line_gets_the_closed_output_code(argv):
    # each report is over a megabyte, far more than a pipe holds, so the
    # command is still writing when its reader closes
    proc = subprocess.Popen([sys.executable, "-m", "cdiag", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_src_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.CLOSED_OUTPUT == 141
    assert first.strip() in (b"# cdiag decompose", b"{") and err == b""


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
        elements=last.elements[:k])]


def test_a_failed_size_sum_exits_1(monkeypatch, capsys):
    real = chains.level_blocks
    monkeypatch.setattr(chains, "level_blocks",
                        lambda *a, **kw: _without_last_component(real(*a, **kw)))
    assert run(["decompose", "--builtin", "finset:3", "--level", "1"]) == 1
    assert "component sizes do not sum to the chain count" in capsys.readouterr().err


def test_bad_env_limits(capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", "bogus=3")
    assert run(["decompose", "--builtin", "ordinal:1"]) == 2
