import itertools
import json
from math import factorial

import pytest

from cdiag import finset, groups
from cdiag.fincat import CategoryError
from cdiag.cli import run
from cdiag.finset import (FiberProfile, closed_form_level0, enumerate_profiles,
                          finset_skeleton, function_count_identity,
                          level1_closed_form, oracle_diff_finset, profile_of)


# ---------------------------------------------------------------------------
# Reference enumeration


def functions(n, m):
    """Every function {0..n-1} -> {0..m-1} as a value tuple, lexicographic."""
    return list(itertools.product(range(m), repeat=n))


KEEP = {"all": lambda v, m: True, "inj": lambda v, m: len(set(v)) == len(v),
        "surj": lambda v, m: len(set(v)) == m}


def reference_skeleton(max_card, variant):
    """(mor_ids, src, dst, payloads, identity_idx) of the skeleton, one
    function at a time: every value tuple, filtered by a set test, its id
    formatted on its own."""
    ids, src, dst, payloads, identity_idx = [], [], [], [], [None] * (max_card + 1)
    for n in range(max_card + 1):
        for m in range(max_card + 1):
            for v in functions(n, m):
                if not KEEP[variant](v, m):
                    continue
                if n == m and v == tuple(range(n)):
                    identity_idx[n] = len(ids)
                    ids.append(f"id_{n}")
                else:
                    ids.append(f"f{n}_{m}_{''.join(str(x) for x in v)}")
                src.append(n)
                dst.append(m)
                payloads.append((n, m, v))
    return tuple(ids), tuple(src), tuple(dst), tuple(payloads), tuple(identity_idx)


# ---------------------------------------------------------------------------
# Skeleton


@pytest.mark.parametrize("variant", ["all", "inj", "surj"])
@pytest.mark.parametrize("max_card", range(finset.DEFAULT_MAX_CARD + 1))
def test_skeleton_equals_the_per_function_reference(max_card, variant):
    sk = finset_skeleton(max_card, variant)
    assert sk.objects == tuple(str(c) for c in range(max_card + 1))
    assert (sk.mor_ids, sk.src, sk.dst, sk.payloads, sk.identity_idx) == \
        reference_skeleton(max_card, variant)


def test_skeleton_morphism_counts():
    assert finset_skeleton(1).n_morphisms == 3
    assert finset_skeleton(2).n_morphisms == 11


def test_skeleton_axioms_smallest():
    finset_skeleton(2).check_axioms()


def test_skeleton_no_maps_into_empty_set():
    sk = finset_skeleton(2)
    assert not [m for m in sk.mor_ids if sk.target(m) == "0" and sk.source(m) != "0"]
    assert len([m for m in sk.mor_ids if sk.source(m) == "0"]) == 3


def test_skeleton_bound():
    with pytest.raises(CategoryError):
        finset_skeleton(7)


def test_skeleton_variants_are_subcategories():
    inj = finset_skeleton(3, "inj")
    surj = finset_skeleton(3, "surj")
    inj.check_axioms()
    surj.check_axioms()
    # injections 2 -> 3: 3!/(3-2)! = 6
    assert len(inj.hom_idx(inj.obj_index("2"), inj.obj_index("3"))) == 6
    # surjections 3 -> 2: 2^3 - 2 = 6
    assert len(surj.hom_idx(surj.obj_index("3"), surj.obj_index("2"))) == 6


# ---------------------------------------------------------------------------
# Profiles


def test_profile_identity_on_3():
    assert profile_of((0, 1, 2), 3).k == (0, 3, 0, 0)


def test_profile_constant_3_to_1():
    assert profile_of((0, 0, 0), 1).k == (0, 0, 0, 1)


def test_profile_gamma_3_4():
    values = tuple(i // 3 for i in range(12))
    p = profile_of(values, 4)
    assert p.k[3] == 4 and sum(p.k) == 4
    assert p.tree_display() == "Γ_{3,4}"
    assert p.group_order() == 31104


def test_profile_invariants_hold_by_construction():
    for n in range(5):
        for m in range(5):
            for values in functions(n, m):
                p = profile_of(values, m)
                assert sum(i * v for i, v in enumerate(p.k)) == n
                assert sum(p.k) == m


def test_enumerate_profiles_small():
    assert [p.k for p in enumerate_profiles(2, 1)] == [(0, 0, 1)]
    assert [p.k for p in enumerate_profiles(2, 2)] == [(0, 2, 0), (1, 0, 1)]
    # every variant lists, in lexicographic order, exactly the profiles of
    # its functions
    for n in range(6):
        for m in range(6):
            for variant, kept in KEEP.items():
                want = sorted({profile_of(v, m).k for v in functions(n, m) if kept(v, m)})
                assert [p.k for p in enumerate_profiles(n, m, variant)] == want


def test_enumerate_profiles_12_4():
    ks = [p.k[:5] for p in enumerate_profiles(12, 4)]
    assert (0, 0, 0, 4, 0) in ks
    assert (0, 0, 2, 0, 2) in ks


def test_profile_order_of_two_wreath_tree():
    p = FiberProfile(n=12, m=4, k=(0, 0, 2, 0, 2) + (0,) * 8)
    assert p.group_order() == 9216
    assert p.group_expr().text() == "(S2 wr S2) x (S4 wr S2)"
    assert p.tree_display() == "Γ_{2,2} ∪ Γ_{4,2}"


# ---------------------------------------------------------------------------
# Closed forms


def test_closed_form_level0():
    comps = closed_form_level0(3)
    assert [c.group_order for c in comps] == [1, 1, 2, 6]
    comps = closed_form_level0(5)
    assert comps[-1].group_order == 120
    assert closed_form_level0(0)[0].group_order == 1


def test_closed_form_level1_3_2():
    comps = level1_closed_form(3, 2, "all")
    assert sorted(c.group_order for c in comps) == [2, 6]


def test_closed_form_bijection_component():
    for n in range(1, 5):
        comps = [c for c in level1_closed_form(n, n, "all")
                 if c.extra["profile"][1] == n]
        assert len(comps) == 1
        assert comps[0].group_order == factorial(n)


def test_closed_form_orbit_sizes_sum_to_function_count():
    for n in range(6):
        for m in range(6):
            comps = level1_closed_form(n, m, "all")
            assert sum(c.orbit_size for c in comps) == m ** n


def test_injective_level1():
    assert level1_closed_form(3, 2, "inj") == []
    comps = level1_closed_form(2, 3, "inj")
    assert len(comps) == 1 and comps[0].group_order == 2
    comps = level1_closed_form(0, 0, "inj")
    assert len(comps) == 1 and comps[0].group_order == 1
    # the stabilizer of an injection also permutes the missed targets
    comps = level1_closed_form(1, 3, "inj")
    assert comps[0].group_order == 2
    assert comps[0].orbit_size == 3    # three injections 1 -> 3


def test_surjective_level1():
    comps = level1_closed_form(3, 2, "surj")
    assert len(comps) == 1 and comps[0].group_order == 2
    assert comps[0].orbit_size == 6    # six surjections 3 -> 2
    assert level1_closed_form(2, 3, "surj") == []
    for n in range(1, 5):
        comps = level1_closed_form(n, n, "surj")
        assert len(comps) == 1 and comps[0].group_order == factorial(n)


def test_variant_emptiness_conditions():
    for n in range(6):
        for m in range(6):
            assert bool(level1_closed_form(n, m, "inj")) == (n <= m)
            # no function hits an empty target from a nonempty source, so
            # n >= m alone is not enough when m = 0
            assert bool(level1_closed_form(n, m, "surj")) == (n >= m and (m >= 1 or n == 0))


def test_function_count_identity_upto_5():
    for n in range(6):
        for m in range(6):
            assert function_count_identity(n, m), (n, m)


# ---------------------------------------------------------------------------
# Oracle diff


@pytest.mark.parametrize("variant", ["all", "inj", "surj"])
def test_oracle_diff_max3(variant):
    rep = oracle_diff_finset(3, variant)
    assert rep.ok, rep.mismatches
    assert rep.checked > 0
    # every stabilizer at max 3 has order at most 6, within iso_limit
    assert rep.policies and set(rep.policies.values()) == {"isomorphism"}


@pytest.mark.parametrize("variant", ["inj", "surj"])
def test_oracle_checks_the_printed_form(variant, monkeypatch, capsys):
    # U(7), cyclic of order 6, in place of the printed S3: same order, not isomorphic
    printed = FiberProfile.group_expr

    def swapped(p, v="all"):
        expr = printed(p, v)
        return groups.FieldUnits(7) if v == variant and expr.text() == "S3" else expr

    monkeypatch.setattr(FiberProfile, "group_expr", swapped)
    profiles = {"inj": [(3,), (3, 1), (0, 3, 0, 0), (1, 3, 0, 0)], "surj": [(0, 3, 0, 0)]}
    want = [f"cell ({len(k) - 1},{sum(k)}) profile {k}: stabilizer is not isomorphic to U(7)"
            for k in profiles[variant]]
    assert oracle_diff_finset(4, variant).mismatches == want
    # the check line of both commands names every failing profile, in text and JSON
    named = f"{len(want)} MISMATCHES: " + "; ".join(want)
    for argv in (["oracle-diff", "--finset-max", "4"], ["finset", "--max", "4", "--oracle"]):
        assert run(argv + ["--variant", variant]) == 1
        [line] = [l for l in capsys.readouterr().out.splitlines() if l.startswith("check ")]
        assert line.endswith(named + ")")
        assert run(argv + ["--variant", variant, "--format", "json"]) == 1
        [check] = json.loads(capsys.readouterr().out)["checks"]
        assert check["status"] == "fail" and check["details"].endswith(named)


@pytest.mark.parametrize("variant", ["all", "inj", "surj"])
def test_oracle_verdicts_equal_fresh_isomorphism_tests(variant, monkeypatch):
    seen = []
    memoized = groups.GroupMemo.isomorphic

    def spy(memo, a, b):
        verdict = memoized(memo, a, b)
        seen.append((a.table.copy(), b.table.copy(), verdict))
        return verdict

    monkeypatch.setattr(groups.GroupMemo, "isomorphic", spy)
    assert oracle_diff_finset(4, variant).ok
    assert seen
    for a, b, verdict in seen:
        assert verdict == groups.are_isomorphic(groups.CayleyTable(a), groups.CayleyTable(b))


@pytest.mark.parametrize("variant", ["all", "inj", "surj"])
def test_oracle_diff_builds_and_checks_each_table_once(variant, monkeypatch):
    calls = {"check": [], "symmetric": [], "wreath": []}
    check, symmetric, wreath = (groups.CayleyTable._check_axioms, groups._symmetric_table,
                                groups._wreath_table)

    def spy_check(t):
        calls["check"].append((t.n, t.table.tobytes()))
        check(t)

    def spy_symmetric(perms):
        calls["symmetric"].append(perms.shape[1])
        return symmetric(perms)

    def spy_wreath(base, k, sk):
        calls["wreath"].append((base.tobytes(), k))
        return wreath(base, k, sk)

    monkeypatch.setattr(groups.CayleyTable, "_check_axioms", spy_check)
    monkeypatch.setattr(groups, "_symmetric_table", spy_symmetric)
    monkeypatch.setattr(groups, "_wreath_table", spy_wreath)
    assert oracle_diff_finset(5, variant).ok
    # the injective closed forms hold no wreath product
    assert calls["check"] and calls["symmetric"] and bool(calls["wreath"]) == (variant != "inj")
    for name, seen in calls.items():
        assert len(set(seen)) == len(seen), name


def test_oracle_diff_reports_iso_policy():
    rep = oracle_diff_finset(3, "all")
    assert all(v == "isomorphism" for v in rep.policies.values())


def test_oracle_diff_surj_3_2_orbit_size():
    from cdiag import chains
    sk = finset_skeleton(3, "surj")
    orbs = [o for o in chains.orbits(sk, 1) if o.rep.objs == (3, 2)]
    assert len(orbs) == 1
    assert orbs[0].size == 6 and orbs[0].stabilizer.order == 2
    assert orbs[0].ambient_order == 12


def test_oracle_diff_inj_2_3_stabilizer():
    from cdiag import chains
    sk = finset_skeleton(3, "inj")
    orbs = [o for o in chains.orbits(sk, 1) if o.rep.objs == (2, 3)]
    assert len(orbs) == 1
    assert orbs[0].size == 6 and orbs[0].stabilizer.order == 2
