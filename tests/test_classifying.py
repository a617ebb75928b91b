import itertools
from math import comb

import pytest

from cdiag import chains as chains_mod
from cdiag import classifying as cl
from cdiag import fincat, finset, finvect
from cdiag.fincat import CategoryError


# ---------------------------------------------------------------------------
# Level decompositions


def test_ordinal2_levels():
    d0 = cl.level_decomposition(fincat.ordinal(2), 0)
    d1 = cl.level_decomposition(fincat.ordinal(2), 1)
    assert len(d0) == 3 and all(c.group_order == 1 for c in d0.components)
    assert len(d1) == 6 and all(c.group_expr == "1" for c in d1.components)


def test_group_levels_constant(s3_category):
    for n in range(4):
        d = cl.level_decomposition(s3_category, n)
        assert len(d) == 1
        assert d.components[0].group_order == 6
        assert d.components[0].group_expr == "S3"


def test_groupoid_constancy_invariants(s2_category, s3_category, c4_category):
    for cat in (s2_category, s3_category, c4_category, fincat.iso_interval()):
        profiles = []
        for n in range(4):
            d = cl.level_decomposition(cat, n)
            profiles.append((len(d), sorted(c.group_order for c in d.components)))
        assert len(set(map(tuple, [(k, tuple(o)) for k, o in profiles]))) == 1


def test_subgroupoid_of_finset_is_levelwise_constant():
    gpd = fincat.maximal_subgroupoid(finset.finset_skeleton(3))
    want = None
    for n in range(3):
        d = cl.level_decomposition(gpd, n)
        got = (len(d), sorted(c.group_order for c in d.components))
        if want is None:
            want = got
        assert got == want
    assert want == (4, [1, 1, 2, 6])


def test_unmatched_group_reported_by_order_and_generators():
    # GL_2(3) stabilizer of the identity (order 48): not in the named library
    sk = finvect.vect_skeleton(2, 3)
    d = cl.level_decomposition(sk, 1)
    full_rank = [c for c in d.components
                 if c.cell == ("2", "2") and c.group_order == 48]
    assert len(full_rank) == 1
    c = full_rank[0]
    assert c.group_expr is None
    assert str(c.group_order) in c.group_display()


# ---------------------------------------------------------------------------
# Segal maps


def test_segal_ordinal1_level2():
    r = cl.segal_check(fincat.ordinal(1), 2)
    assert r.chain_count == 4 == r.fiber_product_count and r.ok


def test_segal_s3_level2(s3_category):
    r = cl.segal_check(s3_category, 2)
    assert r.chain_count == 36 and r.ok


def test_segal_walking_arrow_level3():
    assert cl.segal_check(fincat.walking_arrow(), 3).ok


def test_segal_suite_levels_2_and_3():
    from cdiag.cli import ACCEPTANCE_SUITE, builtin_category
    for spec in ACCEPTANCE_SUITE:
        cat = builtin_category(spec)
        for n in (2, 3):
            r = cl.segal_check(cat, n)
            assert r.ok, (spec, n)


def test_segal_check_respects_chain_limit():
    from cdiag.chains import ChainLimitExceeded
    from cdiag.limits import Limits
    with pytest.raises(ChainLimitExceeded):
        cl.segal_check(finset.finset_skeleton(3), 2, Limits(chain_limit=10))


# The level-2 chains of the walking arrow are [(0, 0), (0, 2), (1, 1), (2, 1)]
# (morphisms id_x, id_y, f); each mutant spoils the enumeration once.
SEGAL_MUTANTS = {
    "drop": lambda ts: ts[1:],
    "duplicate": lambda ts: ts[:1] + ts,
    "reorder": lambda ts: [ts[1], ts[0]] + ts[2:],
    "not-composable": lambda ts: ts[:-1] + [(2, 2)],     # f after f
}


@pytest.mark.parametrize("mutant", sorted(SEGAL_MUTANTS))
def test_segal_check_fails_on_a_spoiled_enumeration(mutant, monkeypatch):
    cat = fincat.walking_arrow()
    chains_iter = chains_mod._chain_mors_iter
    assert list(chains_iter(cat, 2)) == [(0, 0), (0, 2), (1, 1), (2, 1)]
    assert cl.segal_check(cat, 2).ok
    monkeypatch.setattr(chains_mod, "_chain_mors_iter",
                        lambda c, n: iter(SEGAL_MUTANTS[mutant](list(chains_iter(c, n)))))
    r = cl.segal_check(cat, 2)
    assert r.ok is False
    assert r.fiber_product_count == 4


# ---------------------------------------------------------------------------
# Completeness


def test_completeness_ordinals():
    for m in range(4):
        rep = cl.completeness_check(fincat.ordinal(m))
        assert rep.verdict
        assert rep.class_counts == (m + 1, m + 1)
        assert set(rep.aut_order_multisets[0]) == {1}


def test_completeness_s3(s3_category):
    rep = cl.completeness_check(s3_category)
    assert rep.verdict
    assert rep.class_counts == (1, 1)
    assert rep.aut_order_multisets == ((6,), (6,))
    assert "isomorphism" in rep.policy


def test_completeness_iso_interval():
    rep = cl.completeness_check(fincat.iso_interval())
    assert rep.verdict and rep.class_counts == (1, 1)
    assert rep.aut_order_multisets == ((1,), (1,))


def test_invertible_square_groupoid_shape(s3_category):
    gpd = cl.invertible_square_groupoid(s3_category)
    assert gpd.n_objects == 6             # one object per group element
    assert gpd.n_morphisms == 6 * 6 * 6   # each (f, f') pair carries 6 squares
    gpd.check_axioms()


# ---------------------------------------------------------------------------
# Discreteness


def monotone_map_count(n, m):
    """Brute-force oracle: weakly increasing (n+1)-tuples over {0..m}."""
    cnt = 0
    for t in itertools.product(range(m + 1), repeat=n + 1):
        if all(t[i] <= t[i + 1] for i in range(n)):
            cnt += 1
    return cnt


def test_discrete_ordinal():
    rep = cl.is_discrete_classifying(fincat.ordinal(3), 2)
    assert rep.discrete and rep.ok


def test_discrete_fails_on_s2(s2_category):
    rep = cl.is_discrete_classifying(s2_category, 2)
    assert not rep.discrete and rep.ok
    assert all(not flat for _, _, flat in rep.levels)


def test_discrete_truncated_delta_level1_count():
    oracle = sum(monotone_map_count(n, m) for n in range(3) for m in range(3))
    assert oracle == sum(comb(n + m + 1, n + 1) for n in range(3) for m in range(3))
    rep = cl.is_discrete_classifying(fincat.truncated_delta(2), 2)
    assert rep.discrete and rep.ok
    assert rep.levels[1][1] == oracle == 31


# ---------------------------------------------------------------------------
# Truncated nerve


def test_nerve_trivial_group():
    pt = fincat.one_object_group([[0]])
    t = cl.nerve_truncation(pt, 3)
    assert t.level_sizes == [1, 1, 1, 1]
    assert t.check_simplicial_identities()


def test_nerve_s2_sizes(s2_category):
    t = cl.nerve_truncation(s2_category, 2)
    assert t.level_sizes == [1, 2, 4]
    assert t.check_simplicial_identities()


def test_nerve_s3_sizes(s3_category):
    t = cl.nerve_truncation(s3_category, 2)
    assert t.level_sizes == [1, 6, 36]
    assert t.check_simplicial_identities()


def test_nerve_iso_interval_identities():
    t = cl.nerve_truncation(fincat.iso_interval(), 3)
    assert t.check_simplicial_identities()
    assert t.level_sizes[0] == 2 and t.level_sizes[1] == 4


def test_nerve_rejects_non_groupoid():
    with pytest.raises(CategoryError, match="groupoid"):
        cl.nerve_truncation(fincat.walking_arrow(), 2)


def test_nerve_face_conventions(s2_category):
    t = cl.nerve_truncation(s2_category, 2)
    # d1 of a 1-simplex is its source, d0 its target; level 0 has one object
    assert t.faces[(1, 0)] == [0, 0] and t.faces[(1, 1)] == [0, 0]
    # s0 then d0/d1 is the identity on level 0
    assert [t.faces[(1, 0)][s] for s in t.degeneracies[(0, 0)]] == [0]


# ---------------------------------------------------------------------------
# Face/degeneracy component report


def test_face_degeneracy_ordinal1():
    rep = cl.face_degeneracy_report(fincat.ordinal(1))
    assert rep.ok
    rows = {r[0]: (r[1], r[2]) for r in rep.level1_rows}
    assert rows["L1:a0_1"] == ("L0:0", "L0:1")


def test_face_degeneracy_fails_on_a_wrong_component(monkeypatch):
    # relabel the level-1 components so that the identity chain on each
    # object is found in a component on another cell
    real = cl.level_decomposition

    def rotated(cat, n, limits=cl.DEFAULT_LIMITS):
        d = real(cat, n, limits)
        if n == 1:
            reps = [c.representative for c in d.components]
            for c, r in zip(d.components, reps[1:] + reps[:1]):
                c.representative = r
        return d

    assert cl.face_degeneracy_report(fincat.ordinal(1)).ok
    monkeypatch.setattr(cl, "level_decomposition", rotated)
    assert not cl.face_degeneracy_report(fincat.ordinal(1)).ok


def test_face_degeneracy_finset3():
    cat = finset.finset_skeleton(3)
    rep = cl.face_degeneracy_report(cat)
    assert rep.ok
    d1 = cl.level_decomposition(cat, 1)
    # the surjection class 3 ->> 2 connects the S3 component to the S2 one
    surj = next(c for c in d1.components
                if c.cell == ("3", "2") and c.group_order == 2)
    row = next(r for r in rep.level1_rows if r[0] == surj.key)
    assert row[1] == "L0:3" and row[2] == "L0:2"
    # s0 of the 2-element class lands on the identity component, stabilizer S2
    s0 = {r[0]: r for r in rep.s0_rows}
    assert s0["L0:2"][2] == 2
    assert s0["L0:2"][1] == "L1:id_2"


@pytest.mark.parametrize("call", [
    lambda cat: cl.level_decomposition(cat, -1),
    lambda cat: cl.segal_check(cat, 1),
    lambda cat: cl.is_discrete_classifying(cat, 0),
    lambda cat: cl.nerve_truncation(cat, cl.MAX_NERVE_TRUNCATION + 1),
], ids=["level", "segal", "discrete", "nerve"])
def test_out_of_range_levels_raise_category_error(call, s2_category):
    with pytest.raises(CategoryError):
        call(s2_category)
