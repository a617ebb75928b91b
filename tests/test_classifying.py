import dataclasses
import itertools
from collections import Counter
from math import comb

import numpy as np
import pytest

from cdiag import chains as chains_mod
from cdiag import classifying as cl
from cdiag import fincat, finset, finvect, groups
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category, run
from cdiag.fincat import CategoryError
from cdiag.limits import DEFAULT_LIMITS


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


def test_memoized_names_equal_fresh_names():
    # stabilizers of one order take different names (24: S4 and
    # C2 x C2 x S3; 8: C2 x C2 x C2 and unnamed), so a memo keyed by less
    # than the exact table would mislabel some of them
    cat = finset.finset_skeleton(4)
    d = cl.level_decomposition(cat, 2)
    names = {}
    # the components come in the order of chains.orbits
    for c, o in zip(d.components, chains_mod.orbits(cat, 2), strict=True):
        assert (c.representative, c.group_order) == (o.rep.morphism_ids, o.stabilizer.order)
        names.setdefault(c.group_order, set()).add(c.group_expr)
        if 1 < c.group_order <= DEFAULT_LIMITS.iso_limit:
            fresh = o.stabilizer.to_cayley_table(DEFAULT_LIMITS.table_limit)
            assert c.group_expr == groups.match_named(fresh)
    assert names[24] == {"S4", "C2 x C2 x S3"}
    assert names[8] == {"C2 x C2 x C2", None}


def test_memo_builds_each_candidate_table_once(monkeypatch):
    tables = [o.stabilizer.to_cayley_table(DEFAULT_LIMITS.table_limit)
              for cat in (finvect.vect_skeleton(2, 3), finset.finset_skeleton(4))
              for o in chains_mod.orbits(cat, 2)
              if 1 < o.stabilizer.order <= DEFAULT_LIMITS.iso_limit]
    fresh = [groups.match_named(t) for t in tables]
    built, product_table = Counter(), groups.product_table

    def spy(factors, label=""):
        built[label] += 1
        return product_table(factors, label)

    monkeypatch.setattr(groups, "product_table", spy)
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    assert [memo.name(t) for t in tables] == fresh
    once = dict(built)
    assert len(once) > 1 and set(once.values()) == {1}
    # nothing outlives the memo: a second one builds every candidate again
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    assert [memo.name(t) for t in tables] == fresh
    assert built == {label: 2 for label in once}


def test_memoized_verdicts_equal_fresh_verdicts():
    orbs = chains_mod.orbits(finset.finset_skeleton(4), 2)
    stabs = [o.stabilizer for o in orbs if o.stabilizer.order in (8, 24)]
    tables = [s.to_cayley_table(DEFAULT_LIMITS.table_limit) for s in stabs]
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    unlike = 0          # non-isomorphic pairs of one order and one identity
    for a, b in itertools.product(tables, repeat=2):
        want = groups.are_isomorphic(groups.CayleyTable(a.table.copy()),
                                     groups.CayleyTable(b.table.copy()))
        assert memo.isomorphic(a, b) == want
        unlike += (a.n, a.identity) == (b.n, b.identity) and not want
    assert unlike
    for t in tables:
        assert np.array_equal(memo.table(t.table).table, t.table)


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
# (morphisms id_x, id_y, f); each mutant spoils the enumeration once, and
# every clause of the check (count, order, composability, width) has a
# mutant that fails it.
SEGAL_MUTANTS = {
    "drop": lambda ts: ts[1:],
    "duplicate": lambda ts: ts[:1] + ts,
    "reorder": lambda ts: [ts[1], ts[0]] + ts[2:],
    "not-composable": lambda ts: ts[:-1] + [(2, 2)],     # f after f
    # each row extended by the identity of its tail, so still composable,
    # ascending and four in number
    "wrong-width": lambda ts: [(0, 0, 0)] + [t + (1,) for t in ts[1:]],
}


@pytest.mark.parametrize("mutant", sorted(SEGAL_MUTANTS))
def test_segal_check_fails_on_a_spoiled_enumeration(mutant, monkeypatch):
    cat = fincat.walking_arrow()
    chain_array = chains_mod._chain_array
    assert chain_array(cat, 2).tolist() == [[0, 0], [0, 2], [1, 1], [2, 1]]
    assert cl.segal_check(cat, 2).ok
    monkeypatch.setattr(chains_mod, "_chain_array", lambda c, n: np.array(
        SEGAL_MUTANTS[mutant](list(map(tuple, chain_array(c, n).tolist())))))
    r = cl.segal_check(cat, 2)
    assert r.ok is False
    assert r.fiber_product_count == 4


def test_segal_check_on_zero_and_one_chains():
    empty = fincat.from_catdef("# nothing")
    for n in (2, 3):
        r = cl.segal_check(empty, n)
        assert r.chain_count == 0 == r.fiber_product_count and r.ok
        r = cl.segal_check(fincat.ordinal(0), n)
        assert r.chain_count == 1 == r.fiber_product_count and r.ok


def test_chain_limit_is_checked_before_the_chain_array(monkeypatch):
    from cdiag.chains import ChainLimitExceeded
    from cdiag.limits import Limits

    def refuse(cat, n):
        raise AssertionError("chain array built before the chain limit was checked")

    monkeypatch.setattr(chains_mod, "_chain_array", refuse)
    with pytest.raises(ChainLimitExceeded):
        cl.segal_check(finset.finset_skeleton(3), 2, Limits(chain_limit=10))
    with pytest.raises(ChainLimitExceeded):
        cl.nerve_truncation(fincat.maximal_subgroupoid(finset.finset_skeleton(3)), 2,
                            Limits(chain_limit=10))


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


def test_iso_s3_level1_is_one_component(s3_category):
    level1 = chains_mod.orbits(fincat.maximal_subgroupoid(s3_category), 1)
    assert [(o.size, o.stabilizer.order) for o in level1] == [(6, 6)]
    # a component of s chains with stabilizer order k holds s^2 * k invertible
    # squares: 6 * 6 * 6 of them between the 6 isomorphisms of S3
    assert sum(o.size ** 2 * o.stabilizer.order for o in level1) == 216


LEVEL1_SPOILERS = {
    "drop": lambda blocks: blocks[:-1] + [dataclasses.replace(
        blocks[-1], reps=blocks[-1].reps[:-1], fiber_sizes=blocks[-1].fiber_sizes[:-1],
        orders=blocks[-1].orders[:-1], elements=blocks[-1].elements[:-1],
        policies=blocks[-1].policies[:-1])],
    "order": lambda blocks: [dataclasses.replace(
        blocks[0], orders=[2 * blocks[0].orders[0]] + blocks[0].orders[1:])] + blocks[1:],
}


@pytest.mark.parametrize("spoil", sorted(LEVEL1_SPOILERS))
def test_completeness_fails_on_a_spoiled_level_1(spoil, monkeypatch, capsys):
    real = chains_mod.level_blocks

    def spoiled(cat, n, limits=DEFAULT_LIMITS, reverse=False):
        blocks = real(cat, n, limits, reverse)
        return LEVEL1_SPOILERS[spoil](blocks) if n == 1 else blocks

    monkeypatch.setattr(chains_mod, "level_blocks", spoiled)
    assert cl.completeness_check(finset.finset_skeleton(3)).verdict is False
    assert run(["complete", "--builtin", "finset:3"]) == 1
    assert "check completeness: fail" in capsys.readouterr().out


def test_greedy_table_matching_equals_a_brute_force_matching():
    c4, v4 = groups.cyclic_table(4), groups.product_table([groups.cyclic_table(2)] * 2)
    u5 = groups.materialize(groups.FieldUnits(5))       # C4 on other labels
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)

    def brute(ta, tb):
        return any(all(groups.are_isomorphic(a, b) for a, b in zip(ta, p))
                   for p in itertools.permutations(tb))

    for ta, tb, want in (([c4, v4, u5], [v4, u5, c4], True),
                         ([c4, v4, u5], [v4, v4, c4], False)):
        for perm in itertools.permutations(ta):
            assert brute(list(perm), tb) is want
            assert cl._match_tables(list(perm), tb, memo) is want


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
    assert t.faces[(1, 0)].tolist() == [0, 0] and t.faces[(1, 1)].tolist() == [0, 0]
    # s0 then d0/d1 is the identity on level 0
    assert t.faces[(1, 0)][t.degeneracies[(0, 0)]].tolist() == [0]


# ---------------------------------------------------------------------------
# Face and degeneracy maps on components


@pytest.mark.parametrize("spec,truncation", [
    *((spec, 3) for spec in ACCEPTANCE_SUITE),
    ("finset:4", 2), ("vect:2:3", 2), ("delta:3", 2),
])
def test_component_maps_satisfy_the_simplicial_identities(spec, truncation):
    cat = builtin_category(spec)
    t = cl.component_maps(cat, truncation)
    assert t.level_sizes == [len(chains_mod.orbits(cat, n)) for n in range(truncation + 1)]
    assert t.check_simplicial_identities()


def test_face_degeneracy_ordinal1():
    cat = fincat.ordinal(1)
    t = cl.component_maps(cat, 1)
    assert t.levels[0].tolist() == [0, 1]
    level1 = [o.rep.morphism_ids for o in chains_mod.orbits(cat, 1)]
    assert level1 == [("id_0",), ("a0_1",), ("id_1",)]
    assert t.faces[(1, 0)][1] == 1 and t.faces[(1, 1)][1] == 0
    assert t.degeneracies[(0, 0)].tolist() == [0, 2]
    assert t.check_simplicial_identities()


def test_face_degeneracy_finset3():
    cat = finset.finset_skeleton(3)
    t = cl.component_maps(cat, 1)
    level0, level1 = (chains_mod.orbits(cat, n) for n in (0, 1))
    # the surjection class 3 ->> 2 connects the S3 component to the S2 one
    surj = next(k for k, o in enumerate(level1)
                if o.rep.object_ids == ("3", "2") and o.stabilizer.order == 2)
    assert level0[t.faces[(1, 1)][surj]].rep.object_ids == ("3",)
    assert level0[t.faces[(1, 0)][surj]].rep.object_ids == ("2",)
    # s0 of the 2-element class lands on the identity component, stabilizer S2
    two = next(k for k, o in enumerate(level0) if o.rep.object_ids == ("2",))
    image = level1[t.degeneracies[(0, 0)][two]]
    assert image.rep.morphism_ids == ("id_2",) and image.stabilizer.order == 2
    assert t.check_simplicial_identities()


def test_face_degeneracy_fails_on_a_wrong_component(monkeypatch):
    # the blocks are computed first, then every tuple's labels are left
    # unpropagated, so an image that is not the least chain of its orbit
    # is looked up as itself and found in no component
    cat = finset.finset_skeleton(3)
    levels = [chains_mod.level_blocks(cat, n) for n in range(3)]
    assert cl.component_maps(cat, 2).check_simplicial_identities()
    monkeypatch.setattr(chains_mod, "level_blocks", lambda cat, n, limits: levels[n])
    real = chains_mod._tuple_action

    def unpropagated(cat, objs):
        homs, strides, moves, labels = real(cat, objs)
        return homs, strides, moves, np.arange(len(labels))

    monkeypatch.setattr(chains_mod, "_tuple_action", unpropagated)
    with pytest.raises(chains_mod.SelfCheckFailed, match="no component of level"):
        cl.component_maps(cat, 2)


def _band(left: bool):
    """{id, a, b} with g . f = g (left zero) or g . f = f (right zero)."""
    composites = "".join(f"compose {g} {f} = {g if left else f}\n" for g in "ab" for f in "ab")
    return fincat.from_catdef("object x\nmor a : x -> x\nmor b : x -> x\n" + composites,
                              name="left-zero" if left else "right-zero")


def test_bands_share_levels_but_not_inner_faces():
    # neither band has a non-identity automorphism, and they are not
    # isomorphic: the levels agree, and only the composing face d_1 differs
    left, right = _band(True), _band(False)
    for n in range(4):
        a, b = (cl.level_decomposition(cat, n) for cat in (left, right))
        assert [(c.representative, c.orbit_size, c.group_expr) for c in a.components] \
            == [(c.representative, c.orbit_size, c.group_expr) for c in b.components]
    tl, tr = cl.component_maps(left, 2), cl.component_maps(right, 2)
    assert tl.check_simplicial_identities() and tr.check_simplicial_identities()
    assert tl.faces[(2, 1)].tolist() == [0, 1, 2, 1, 1, 2, 2, 1, 2]
    assert tr.faces[(2, 1)].tolist() == [0, 1, 2, 1, 1, 1, 2, 2, 2]
    for key in set(tl.faces) - {(2, 1)}:
        assert np.array_equal(tl.faces[key], tr.faces[key])


@pytest.mark.parametrize("call", [
    lambda cat: cl.level_decomposition(cat, -1),
    lambda cat: cl.segal_check(cat, 1),
    lambda cat: cl.is_discrete_classifying(cat, 0),
    lambda cat: cl.nerve_truncation(cat, cl.MAX_NERVE_TRUNCATION + 1),
    lambda cat: cl.component_maps(cat, cl.MAX_NERVE_TRUNCATION + 1),
    lambda cat: cl.component_maps(cat, -1),
], ids=["level", "segal", "discrete", "nerve", "components", "components-negative"])
def test_out_of_range_levels_raise_category_error(call, s2_category):
    with pytest.raises(CategoryError):
        call(s2_category)
