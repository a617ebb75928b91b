import dataclasses
import itertools
import json
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
        rep = tuple(cat.mor_ids[f] for f in o.rep.mors)
        assert (c.representative, c.group_order) == (rep, o.stabilizer.order)
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


def test_memo_lists_and_convolves_each_candidate_once(monkeypatch):
    tables = [o.stabilizer.to_cayley_table(DEFAULT_LIMITS.table_limit)
              for o in chains_mod.orbits(finvect.vect_skeleton(2, 3), 2)
              if 1 < o.stabilizer.order <= DEFAULT_LIMITS.iso_limit]
    fresh = [groups.match_named(t) for t in tables]
    listed, convolved = Counter(), Counter()
    sequences, histogram = groups._candidate_sequences, groups._sequence_histogram

    def list_spy(n):
        listed[n] += 1
        return sequences(n)

    def convolve_spy(seq):
        convolved[seq] += 1
        return histogram(seq)

    monkeypatch.setattr(groups, "_candidate_sequences", list_spy)
    monkeypatch.setattr(groups, "_sequence_histogram", convolve_spy)
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    assert [memo.name(t) for t in tables] == fresh
    # one list per order named, one histogram per sequence, though several
    # distinct tables of one order are named
    assert len({t.table.tobytes() for t in tables}) > len(listed) > 1
    assert set(listed.values()) == {1} and len(convolved) > 1 and set(convolved.values()) == {1}
    # nothing outlives the memo: a second one computes them again
    once = dict(listed), dict(convolved)
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    assert [memo.name(t) for t in tables] == fresh
    assert (listed, convolved) == tuple({k: 2 for k in d} for d in once)


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
        orders=blocks[-1].orders[:-1], elements=blocks[-1].elements[:-1])],
    "order": lambda blocks: [dataclasses.replace(
        blocks[0], orders=[2 * blocks[0].orders[0]] + blocks[0].orders[1:])] + blocks[1:],
    "repeat": lambda blocks: blocks + blocks[-1:],
    "stray": lambda blocks: blocks + [dataclasses.replace(
        blocks[-1], objs=(blocks[0].objs[0], blocks[-1].objs[1]))],
}


def _spoil_level_1(monkeypatch, spoil):
    real = chains_mod.level_blocks

    def spoiled(cat, n, limits=DEFAULT_LIMITS, reverse=False):
        blocks = real(cat, n, limits, reverse)
        return spoil(blocks) if n == 1 else blocks

    monkeypatch.setattr(chains_mod, "level_blocks", spoiled)


def _failing_check_line(spec, capsys) -> str:
    rep = cl.completeness_check(builtin_category(spec))
    assert rep.verdict is False and rep.detail
    assert run(["complete", "--builtin", spec]) == 1
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("check "))
    assert line.startswith("check completeness: fail") and line.endswith(f"; {rep.detail})")
    return rep.detail


@pytest.mark.parametrize("spoil", sorted(LEVEL1_SPOILERS))
def test_completeness_fails_on_a_spoiled_level_1(spoil, monkeypatch, capsys):
    _spoil_level_1(monkeypatch, LEVEL1_SPOILERS[spoil])
    detail = _failing_check_line("finset:3", capsys)
    want = {"drop": "class 3: 0 level-1 components on (3,3), not 1",
            "order": "class 0: level-1 stabilizer order 2 != level-0 order 1",
            "repeat": "class 3: 2 level-1 components on (3,3), not 1",
            "stray": "1 level-1 components on (0,3) pair with no class"}
    assert detail == want[spoil]


def _moved_element(blocks):
    """The last level-1 block with the second coordinate of its last
    listed stabilizer element moved to another automorphism."""
    b = blocks[-1]
    els = list(b.elements[0])
    a, c = els[-1]
    els[-1] = (a, next(g for g in b.cat.aut_idx(b.objs[1]) if g != c))
    return blocks[:-1] + [dataclasses.replace(b, elements=[els] + b.elements[1:])]


@pytest.mark.parametrize("spec,cls", [("group:S3", "*"), ("finset:3", "3"), ("vect:2:2", "2")])
def test_completeness_fails_on_a_moved_stabilizer_element(spec, cls, monkeypatch, capsys):
    _spoil_level_1(monkeypatch, _moved_element)
    detail = _failing_check_line(spec, capsys)
    assert detail.startswith(f"class {cls}: listed stabilizer is not the conjugation graph of ")


@pytest.mark.parametrize("spec", ["group:S3", "finset:3"])
def test_a_spoiled_stabilizer_listing_is_a_self_check_failure(spec, monkeypatch, capsys):
    # decompose tables the moved listing to name it: the engine is at
    # fault, so the refusal of the set exits 1, not as a usage error
    _spoil_level_1(monkeypatch, _moved_element)
    assert run(["decompose", "--builtin", spec, "--level", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cdiag: self-check failed: listed stabilizer of chain (")


def test_completeness_conjugates_by_a_representative_of_order_3():
    # S3 relabelled so that its least morphism, the level-1 representative
    # f of iso(C), is a 3-cycle: the stabilizer {(a, f a f^-1)} is then
    # neither the diagonal nor {(a, f^-1 a f)}
    t = groups.materialize(groups.Symmetric(3))
    c = int(np.flatnonzero(t.orders == 3)[0])
    perm = [c] + [i for i in range(6) if i != c]        # new index -> old
    new = {old: k for k, old in enumerate(perm)}
    cat = fincat.one_object_group([[new[t.mul(a, b)] for b in perm] for a in perm])
    (block,) = chains_mod.level_blocks(fincat.maximal_subgroupoid(cat), 1)
    assert block.reps.tolist() == [[0]] and cat.mor_ids[0] == "g0"
    assert cl.completeness_check(cat).verdict is True


def test_completeness_builds_no_cayley_table(monkeypatch):
    # the stabilizer isomorphism is the given graph of conjugation, so
    # complete tables no group and searches no isomorphism; the builtins
    # are built first, since group:S2 and the like are built from tables
    cats = [builtin_category(spec) for spec in ACCEPTANCE_SUITE]

    def refuse(*args, **kwargs):
        raise AssertionError("complete built a Cayley table or a GroupMemo")

    for cls in (groups.CayleyTable, groups.GroupMemo):
        monkeypatch.setattr(cls, "__init__", refuse)
    for cat in cats:
        assert cl.completeness_check(cat).verdict, cat.name


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


def _copy_of_the_first_2_simplex(t):
    """``t`` with a second 2-simplex beside row 0, with the same faces."""
    t.levels[2] = np.concatenate([t.levels[2], t.levels[2][:1]])
    for i in range(3):
        t.faces[(2, i)] = np.append(t.faces[(2, i)], t.faces[(2, i)][0])


def _spoil_first_s0(t):
    """s_0 of the first 1-simplex is the copy of its image: the faces of the
    copy are those of the image, so only s_0 s_0 = s_1 s_0 can fail."""
    _copy_of_the_first_2_simplex(t)
    t.degeneracies[(1, 0)][0] = len(t.levels[2]) - 1


# Each spoil breaks one family of the simplicial identities of the nerve of
# iso-interval (morphisms id_0, id_1, f01, f10 are the level-1 rows 0-3),
# and leaves the families checked before it intact.
SIMPLICIAL_SPOILS = {
    # d_0 of (id_0, id_0) made id_1: d_0 d_1 = d_0 d_0 fails
    "dd": lambda t: t.faces[(2, 0)].__setitem__(0, 1),
    # s_0 of object 0 made f01, faces untouched: d_0 s_0 = id fails
    "ds": lambda t: t.degeneracies[(0, 0)].__setitem__(0, 2),
    "ss": _spoil_first_s0,
}


@pytest.mark.parametrize("spoil", sorted(SIMPLICIAL_SPOILS))
def test_each_family_of_simplicial_identities_can_fail(spoil, monkeypatch, capsys):
    t = cl.nerve_truncation(fincat.iso_interval(), 2)
    _copy_of_the_first_2_simplex(t)
    assert t.check_simplicial_identities()
    t = cl.nerve_truncation(fincat.iso_interval(), 2)
    SIMPLICIAL_SPOILS[spoil](t)
    assert not t.check_simplicial_identities()
    monkeypatch.setattr(cl, "nerve_truncation", lambda cat, truncation, limits: t)
    assert run(["nerve", "--builtin", "iso-interval", "--truncation", "2"]) == 1
    assert "check simplicial-identities: fail" in capsys.readouterr().out


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
    level1 = [cat.ids_of(b.reps) for b in chains_mod.level_blocks(cat, 1)]
    assert level1 == [[["id_0"]], [["a0_1"]], [["id_1"]]]
    assert t.faces[(1, 0)][1] == 1 and t.faces[(1, 1)][1] == 0
    assert t.degeneracies[(0, 0)].tolist() == [0, 2]
    assert t.check_simplicial_identities()


def test_face_degeneracy_finset3():
    cat = finset.finset_skeleton(3)
    t = cl.component_maps(cat, 1)
    # (cell, representative ids, stabilizer order) of each component, in order
    level0, level1 = ([(tuple(cat.objects[x] for x in b.objs), rep, order)
                       for b in chains_mod.level_blocks(cat, n)
                       for rep, order in zip(map(tuple, cat.ids_of(b.reps)), b.orders)]
                      for n in (0, 1))
    # the surjection class 3 ->> 2 connects the S3 component to the S2 one
    surj = next(k for k, (cell, _, order) in enumerate(level1)
                if cell == ("3", "2") and order == 2)
    assert level0[t.faces[(1, 1)][surj]][0] == ("3",)
    assert level0[t.faces[(1, 0)][surj]][0] == ("2",)
    # s0 of the 2-element class lands on the identity component, stabilizer S2
    two = next(k for k, (cell, _, _) in enumerate(level0) if cell == ("2",))
    assert level1[t.degeneracies[(0, 0)][two]][1:] == (("id_2",), 2)
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


# ---------------------------------------------------------------------------
# Closed forms against the engine


def _columns(block, rows):
    """``block`` with only its components ``rows``, in that order."""
    return dataclasses.replace(
        block, reps=block.reps[rows], fiber_sizes=[block.fiber_sizes[k] for k in rows],
        orders=[block.orders[k] for k in rows], elements=[block.elements[k] for k in rows])


def test_closed_form_mismatches_come_in_cell_then_key_order():
    # every form's order doubled and the blocks reversed: the messages still
    # follow the cells, then the profiles, not the engine's component order
    skel = finset.finset_skeleton(3)

    def profile(block, k):
        _, m, values = skel.payloads[block.reps[k, 0]]
        return finset.profile_of(values, m).k

    profiles = [p for n in range(4) for m in range(4) for p in finset.enumerate_profiles(n, m)]
    forms = {}
    for p in profiles:
        forms.setdefault((p.n, p.m), {})[p.k] = cl.ClosedForm(f"profile {p.k}", 2 * p.group_order())
    blocks = chains_mod.level_blocks(skel, 1)
    assert any(keys != sorted(keys) for keys in
               ([profile(b, k) for k in range(len(b))] for b in blocks))
    report = cl.DiffReport("reversed")
    cl.diff_closed_forms(report, blocks[::-1], profile, forms, DEFAULT_LIMITS,
                         groups.GroupMemo(DEFAULT_LIMITS.iso_limit))
    assert report.mismatches == [
        f"cell ({p.n},{p.m}) profile {p.k}: stabilizer order {p.group_order()} "
        f"!= order {2 * p.group_order()}" for p in profiles]
    assert report.checked == len(profiles) and report.policies == {}


def _spoil_block(objs, change):
    """Patch ``level_blocks`` to pass the block of ``objs`` through ``change``."""
    def patch(monkeypatch):
        real = chains_mod.level_blocks

        def spoiled(cat, n, limits=DEFAULT_LIMITS, reverse=False):
            return [change(b) if b.objs == objs else b for b in real(cat, n, limits, reverse)]

        monkeypatch.setattr(chains_mod, "level_blocks", spoiled)
    return patch


def _double_first_order(block):
    return dataclasses.replace(block, orders=[2 * block.orders[0]] + block.orders[1:])


def _drop_profile(k):
    def patch(monkeypatch):
        real = finset.enumerate_profiles
        monkeypatch.setattr(finset, "enumerate_profiles",
                            lambda *a: [p for p in real(*a) if p.k != k])
    return patch


def _rank_class(nm, rank, **changes):
    """Patch ``orbits_by_rank`` to change one rank class of cell ``nm``."""
    def patch(monkeypatch):
        real = finvect.orbits_by_rank

        def spoiled(n, m, q):
            cell = real(n, m, q)
            if (n, m) == nm:
                cell.classes = [dataclasses.replace(c, **changes) if c.rank == rank else c
                                for c in cell.classes]
            return cell

        monkeypatch.setattr(finvect, "orbits_by_rank", spoiled)
    return patch


FINSET_ORACLES = (["oracle-diff", "--finset-max", "3"], ["finset", "--max", "3", "--oracle"])
VECT_ORACLES = (["oracle-diff", "--vect-dim", "2", "--q", "3"],
                ["finvect", "--max-dim", "2", "--q", "3", "--oracle"])

# name: (commands, spoil, a message the check line must hold); a printed
# group of the right order that is not the stabilizer is spoiled in
# test_finset.py and test_finvect.py
ORACLE_SPOILS = {
    "dropped profile": (FINSET_ORACLES, _drop_profile((1, 1, 1, 0)),
                        "cell (3,3): engine keys [(0, 3, 0, 0), (1, 1, 1, 0), (2, 0, 0, 1)] "
                        "vs closed-form keys [(0, 3, 0, 0), (2, 0, 0, 1)]"),
    "rank duplicated": (VECT_ORACLES, _spoil_block((1, 1), lambda b: _columns(b, [0, 0, 1])),
                        "cell (1,1): engine keys [0, 0, 1] vs closed-form keys [0, 1]"),
    "wrong finset order": (FINSET_ORACLES, _spoil_block((2, 2), _double_first_order),
                           "cell (2,2) profile (1, 0, 1): stabilizer order 4 != order 2 of "),
    "wrong vect order": (VECT_ORACLES, _spoil_block((1, 2), _double_first_order),
                         "cell (1,2) rank 0: stabilizer order 192 != order 96 of U(3) x GL(2,3)"),
    "wrong class size": (VECT_ORACLES, _rank_class((1, 1), 1, class_size=3),
                         "cell (1,1) rank 1: orbit size 2 != closed-form size 3"),
    "broken transpose pair": (VECT_ORACLES, _spoil_block((2, 1), _double_first_order),
                              "transpose symmetry broken between cells (1,2) and (2,1)"),
}


@pytest.mark.parametrize("spoil", sorted(ORACLE_SPOILS))
def test_each_closed_form_spoil_is_caught_and_named(spoil, monkeypatch, capsys):
    commands, patch, message = ORACLE_SPOILS[spoil]
    patch(monkeypatch)
    for argv in commands:
        assert run(argv) == 1
        [line] = [l for l in capsys.readouterr().out.splitlines() if l.startswith("check ")]
        assert ": fail (" in line and message in line
        assert run(argv + ["--format", "json"]) == 1
        [check] = json.loads(capsys.readouterr().out)["checks"]
        assert check["status"] == "fail" and message in check["details"]
