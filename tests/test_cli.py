import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

import cdiag
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category, run


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
])
def test_bad_builtin_says_why(spec, reason, capsys):
    assert run(["decompose", "--builtin", spec]) == 2
    err = capsys.readouterr().err
    assert f"bad builtin {spec!r}: " in err and reason in err


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


DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          env=_src_env(), timeout=300)
    assert done.returncode == 0, done.stderr


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
# the engine before orbits and stabilizers moved onto action arrays.
PINNED_BODIES = [
    (("decompose", "--builtin", "vect:2:2", "--level", "2"),
     "543614cad04ac01a07e4474b37964fe755703748bf9b6afbde7472a92489380f",
     "56a77412981def14ab4a433a46f52eb3baabba6c426f7b75148f22099b7e6ca6"),
    (("decompose", "--builtin", "vect:2:2", "--level", "2", "--scan-limit", "1"),
     "543614cad04ac01a07e4474b37964fe755703748bf9b6afbde7472a92489380f",
     "70fa63fc78707b4c267ef499fadf55862c44cd08cde6853f67c2b9842c6e9753"),
    (("decompose", "--builtin", "finset:3", "--level", "1"),
     "f29ee674e5fa11e0350258eacce3ab2e46ec1330ae3e42e069a1b40f8c9abace",
     "71ae9582284be48bdb13fccc8ba22a288cf6ef5362bf78440d2a7a3b595efd60"),
    (("decompose", "--builtin", "iso-interval", "--level", "2"),
     "41252e2c8905e2b86c6ea290bb0126acbdbf21431f08b303de82aaedefd25ec3",
     "04596f14a7f3f6aa3f94af529abeb811577c9f11b17aedfcb6b688e3afd3ad6b"),
    (("decompose", "--builtin", "delta:2", "--level", "2"),
     "010c7e45506d15640f134f5ccd2e1889d9e195444b65c29c3b730c48541eb1e7",
     "06e1ed98ef7e60cdd220b472b843faa0997c34898f4a9f1a717d8557e5988b58"),
    # transversal stabilizers that are tabled (vect:2:5 has one of order 480)
    (("decompose", "--builtin", "vect:2:3", "--level", "2"),
     "57d483241d984646a3857d1e76bed57185bbad7e4c3350b3d9a2b8f45d2c4968",
     "0d603232e26a21fce943150800d875227c1201df4816eadf5e0913c193f93b86"),
    (("decompose", "--builtin", "vect:2:5", "--level", "1"),
     "3f383a8624fd6719485b1d05cbb4eac3732744e0004e7ccc6cdc6c141d3b0335",
     "16e740d2b86332b8b3d7dc7d61268f98c98a681e82e1164e6f03431193e540ce"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,text_sha,json_sha", PINNED_BODIES,
                         ids=[" ".join(p[0][2:]) for p in PINNED_BODIES])
def test_pinned_report_body(argv, text_sha, json_sha, fmt, capsys):
    code, out = run_capture(list(argv) + ["--format", fmt], capsys)
    assert code == 0
    body = "".join(line + "\n" for line in body_lines(out))
    pinned = text_sha if fmt == "text" else json_sha
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == pinned


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
         "--scan-limit", "777"], capsys)
    assert json.loads(out)["config"]["limits"]["scan_limit"] == 777


def test_env_limits(capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", "iso_limit=64,scan_limit=5000")
    _, out = run_capture(
        ["decompose", "--builtin", "ordinal:1", "--format", "json"], capsys)
    lims = json.loads(out)["config"]["limits"]
    assert lims["iso_limit"] == 64 and lims["scan_limit"] == 5000


def test_env_limits_overridden_by_flags(capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", "iso_limit=64")
    _, out = run_capture(
        ["decompose", "--builtin", "ordinal:1", "--format", "json",
         "--iso-limit", "32"], capsys)
    assert json.loads(out)["config"]["limits"]["iso_limit"] == 32


def test_bad_env_limits(capsys, monkeypatch):
    monkeypatch.setenv("CDIAG_LIMITS", "bogus=3")
    assert run(["decompose", "--builtin", "ordinal:1"]) == 2
