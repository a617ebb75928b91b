import dataclasses
import random

import numpy as np
import pytest

from cdiag import chains, fincat, finset, finvect
from cdiag.chains import (Chain, ChainIso, ChainLimitExceeded, StabilizerGroup,
                          _act_mors, act, chain_count, enumerate_chains,
                          iso_classes_of_objects, least_member, orbits, stabilizer)
from cdiag.cli import builtin_category
from cdiag.fincat import CategoryError
from cdiag.groups import GroupError, table_from_elements
from cdiag.limits import Limits


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_ordinal1_level2():
    cs = enumerate_chains(fincat.ordinal(1), 2)
    assert len(cs) == 4
    assert all(c.level == 2 for c in cs)


def test_enumerate_level0_one_per_object():
    cat = fincat.ordinal(3)
    cs = enumerate_chains(cat, 0)
    assert [c.object_ids[0] for c in cs] == ["0", "1", "2", "3"]


def test_enumerate_group_level1(s3_category):
    assert len(enumerate_chains(s3_category, 1)) == 6


def test_enumerate_is_lexicographic():
    cat = fincat.ordinal(2)
    cs = enumerate_chains(cat, 2)
    mors = [c.mors for c in cs]
    assert mors == sorted(mors)
    assert len(cs) == chain_count(cat, 2)


def test_chain_limit():
    with pytest.raises(ChainLimitExceeded):
        enumerate_chains(finset.finset_skeleton(3), 2, Limits(chain_limit=10))
    with pytest.raises(ChainLimitExceeded):
        orbits(finset.finset_skeleton(3), 2, Limits(chain_limit=10))


# ---------------------------------------------------------------------------
# The ladder action


def test_act_identity_tuple_fixes(s3_category):
    c = Chain.from_morphism_ids(s3_category, ["g2"])
    assert act(["id_*", "id_*"], c) == c


def test_act_compatibility_random(s3_category):
    rng = random.Random(11)
    cat = s3_category
    mors = list(cat.mor_ids)
    for _ in range(300):
        f = rng.choice(mors)
        c = Chain.from_morphism_ids(cat, [f])
        beta = [rng.choice(mors), rng.choice(mors)]
        gamma = [rng.choice(mors), rng.choice(mors)]
        bg = [cat.compose(beta[0], gamma[0]), cat.compose(beta[1], gamma[1])]
        assert act(beta, act(gamma, c)) == act(bg, c)


def test_act_matrix_example_over_f2():
    # ( [1], [[0,1],[1,0]] ) acting on the column [1;0] gives [0;1]
    sk = finvect.vect_skeleton(2, 2)
    col = Chain.from_morphism_ids(sk, ["m1_2_10"])
    swapped = act(["id_1", "m2_2_0110"], col)
    assert swapped.morphism_ids == ("m1_2_01",)


def test_act_rejects_non_automorphism():
    cat = fincat.walking_arrow()
    c = Chain.from_morphism_ids(cat, ["f"])
    with pytest.raises(CategoryError):
        act(["f", "id_y"], c)


def test_chain_iso_validation():
    ii = fincat.iso_interval()
    src = Chain.from_morphism_ids(ii, ["id_0"])
    tgt = Chain.from_morphism_ids(ii, ["id_1"])
    ladder = ChainIso.from_ids(src, tgt, ["f01", "f01"])
    assert ladder.component_ids == ("f01", "f01")
    back = ladder.inverse()
    assert back.source == tgt and back.target == src
    # mismatched squares are rejected: f01 . id_0 != id_0 . id_0
    with pytest.raises(CategoryError, match="square|endpoints"):
        ChainIso.from_ids(src, src, ["id_0", "f01"])
    # non-invertible components are rejected
    wa = fincat.walking_arrow()
    cx = Chain.from_morphism_ids(wa, ["id_x"])
    cy = Chain.from_morphism_ids(wa, ["id_y"])
    with pytest.raises(CategoryError, match="invertible"):
        ChainIso.from_ids(cx, cy, ["f", "f"])


def test_chain_iso_from_action(s3_category):
    c = Chain.from_morphism_ids(s3_category, ["g3"])
    ladder = ChainIso.from_action(["g1", "g2"], c)
    assert ladder.source == c
    assert ladder.target == act(["g1", "g2"], c)


# ---------------------------------------------------------------------------
# Orbits


@pytest.mark.parametrize("m", range(6))
def test_ordinal_level1_singletons(m):
    orbs = orbits(fincat.ordinal(m), 1)
    assert len(orbs) == (m + 1) * (m + 2) // 2
    assert all(o.size == 1 and o.stabilizer.order == 1 for o in orbs)


def test_s3_level1_single_orbit(s3_category):
    orbs = orbits(s3_category, 1)
    assert len(orbs) == 1
    assert orbs[0].size == 6 and orbs[0].stabilizer.order == 6


def test_finset_2_to_2_cell():
    sk = finset.finset_skeleton(2)
    orbs = [o for o in orbits(sk, 1) if o.rep.object_ids == ("2", "2")]
    assert sorted(o.size for o in orbs) == [2, 2]
    assert sorted(o.stabilizer.order for o in orbs) == [2, 2]


def test_orbit_sizes_sum_to_chain_count():
    for cat, n in [(fincat.ordinal(2), 2), (finset.finset_skeleton(2), 1),
                   (fincat.iso_interval(), 2), (finvect.vect_skeleton(1, 3), 1)]:
        orbs = orbits(cat, n)
        assert sum(o.size for o in orbs) == chain_count(cat, n)


def test_orbit_stabilizer_identity_every_orbit(s3_category):
    pool = [(fincat.ordinal(3), 1), (s3_category, 2),
            (finset.finset_skeleton(3), 1), (fincat.iso_interval(), 1),
            (finvect.vect_skeleton(2, 2), 1)]
    for cat, n in pool:
        for o in orbits(cat, n):
            assert o.check_orbit_stabilizer(), (cat.name, n, o.rep)


def test_orbits_independent_of_enumeration_order():
    for cat, n in [(finset.finset_skeleton(2), 1), (fincat.ordinal(2), 2),
                   (finvect.vect_skeleton(1, 3), 1)]:
        fwd = orbits(cat, n)
        rev = orbits(cat, n, reverse=True)
        assert [o.rep.mors for o in fwd] == [o.rep.mors for o in rev]
        assert [o.size for o in fwd] == [o.size for o in rev]


MIXED_CLASS_CATDEF = """
object x
object x2
object y
mor i : x -> x2
mor j : x2 -> x
mor f : x -> y
mor g : x2 -> y
compose j i = id_x
compose i j = id_x2
compose f j = g
compose g i = f
"""


def test_mixed_class_orbit_accounting():
    # two isomorphic sources x ~ x2 and one separate target y; by hand the
    # 7 morphisms split as {id_x, id_x2, i, j} + {f, g} + {id_y}
    cat = fincat.from_catdef(MIXED_CLASS_CATDEF, name="mixed")
    orbs = orbits(cat, 1)
    assert sorted(o.size for o in orbs) == [1, 2, 4]
    assert all(o.stabilizer.order == 1 for o in orbs)
    assert all(o.rep_fiber_size == 1 for o in orbs)
    assert sum(o.size for o in orbs) == chain_count(cat, 1) == 7
    level0 = orbits(cat, 0)
    assert sorted(o.size for o in level0) == [1, 2]


def test_merged_orbit_across_isomorphic_objects():
    ii = fincat.iso_interval()
    orbs = orbits(ii, 1)
    assert len(orbs) == 1
    o = orbs[0]
    assert o.size == 4                  # all four morphisms form one class
    assert o.rep_fiber_size == 1        # only id_0 lives on the (0, 0) tuple
    assert o.stabilizer.order == 1
    assert o.check_orbit_stabilizer()


# ---------------------------------------------------------------------------
# Stabilizers


def test_identity_chain_stabilizer_is_diagonal(s3_category):
    c = Chain.from_morphism_ids(s3_category, ["id_*", "id_*"])
    stab = stabilizer(s3_category, c)
    assert stab.order == 6
    for alpha in stab.elements:
        assert alpha[0] == alpha[1] == alpha[2]


def test_column_stabilizer_over_f2():
    sk = finvect.vect_skeleton(2, 2)
    c = Chain.from_morphism_ids(sk, ["m1_2_10"])
    assert stabilizer(sk, c).order == 2


def test_zero_matrix_stabilizer_over_f2():
    sk = finvect.vect_skeleton(2, 2)
    c = Chain.from_morphism_ids(sk, ["m2_2_0000"])
    assert stabilizer(sk, c).order == 36


def test_transversal_path_agrees_with_scan():
    # force the transversal fallback with a tiny scan limit and
    # compare its exact orders against the direct scan
    tiny = Limits(scan_limit=1)
    cases = [(finset.finset_skeleton(3), 1), (finvect.vect_skeleton(2, 2), 1)]
    for cat, n in cases:
        default = {o.rep.mors: o.stabilizer.order for o in orbits(cat, n)}
        forced = {o.rep.mors: (o.stabilizer.order, o.stabilizer.policy,
                               o.ambient_order)
                  for o in orbits(cat, n, tiny)}
        assert set(default) == set(forced)
        saw_transversal = False
        for rep, order in default.items():
            forder, fpolicy, ambient = forced[rep]
            assert forder == order
            if ambient > 1:
                assert fpolicy == "transversal"
                saw_transversal = True
        assert saw_transversal


def test_stabilizer_transversal_path_standalone():
    sk = finvect.vect_skeleton(2, 2)
    c = Chain.from_morphism_ids(sk, ["m2_2_1000"])   # diag(1, 0)
    stab = stabilizer(sk, c, Limits(scan_limit=1))
    assert stab.policy == "transversal"
    assert stab.order == 4
    assert stab.to_cayley_table(20000).n == 4
    # the chain's stabilizer must have exactly the division order
    for wrong in (2, 8):
        with pytest.raises(GroupError):
            dataclasses.replace(stab, order=wrong).to_cayley_table(20000)


def test_transversal_stabilizer_elements_form_the_stabilizer():
    sk = finset.finset_skeleton(3)
    tiny = Limits(scan_limit=1)
    for o in orbits(sk, 1, tiny):
        stab = o.stabilizer
        els = chains._chain_stabilizer(sk, stab.objs, stab.mors)
        assert len(set(els)) == len(els) == stab.order
        # the table raises unless the listed elements are closed
        assert stab.to_cayley_table(20000).n == stab.order


# Both stabilizer policies, in both enumeration orders, on four categories.
STABILIZER_CASES = [("finset:3", 1), ("vect:2:2", 1), ("group:S3", 2), ("delta:2", 2)]
STABILIZER_MODES = [(Limits(), False), (Limits(), True),
                    (Limits(scan_limit=1), False), (Limits(scan_limit=1), True)]


@pytest.mark.parametrize("spec,level", STABILIZER_CASES)
def test_stabilizer_elements_fix_the_representative(spec, level):
    cat = builtin_category(spec)
    scanned = {o.rep.mors: o.stabilizer for o in orbits(cat, level)}
    assert {s.policy for s in scanned.values()} == {"scan"}
    saw_transversal = False
    for limits, reverse in STABILIZER_MODES:
        for o in orbits(cat, level, limits, reverse=reverse):
            rep, stab = o.rep, o.stabilizer
            els = stab.elements
            if els is None:
                # listed only when tabled; must equal the scan of the same chain
                els = chains._chain_stabilizer(cat, rep.objs, rep.mors)
                assert els == scanned[rep.mors].elements, rep
                saw_transversal = True
            assert len(els) == stab.order
            for g in els:
                assert _act_mors(cat, g, rep.objs, rep.mors) == rep.mors, (rep, g)
    # scan_limit=1 sends every stabilizer with a nontrivial ambient product
    # down the transversal path (delta:2 has none)
    assert saw_transversal == any(o.ambient_order > 1 for o in orbits(cat, level))


@pytest.mark.parametrize("spec,level", STABILIZER_CASES)
def test_stabilizer_of_a_chain_matches_its_orbit(spec, level):
    cat = builtin_category(spec)
    rng = random.Random(7)
    for limits in (Limits(), Limits(scan_limit=1)):
        for o in orbits(cat, level, limits):
            # the representative and a random member of its orbit
            alpha = [rng.choice(cat.aut_idx(x)) for x in o.rep.objs]
            moved = Chain(cat, o.rep.objs, _act_mors(cat, alpha, o.rep.objs, o.rep.mors))
            for chain in (o.rep, moved):
                got = stabilizer(cat, chain, limits)
                assert (got.order, got.policy) == (o.stabilizer.order, o.stabilizer.policy)


# ---------------------------------------------------------------------------
# Level-0 classes


def test_iso_classes_walking_arrow():
    orbs = iso_classes_of_objects(fincat.walking_arrow())
    assert len(orbs) == 2
    assert all(o.stabilizer.order == 1 for o in orbs)


def test_iso_classes_iso_interval():
    orbs = iso_classes_of_objects(fincat.iso_interval())
    assert len(orbs) == 1 and orbs[0].stabilizer.order == 1
    assert orbs[0].size == 2


def test_iso_classes_finset3():
    orbs = iso_classes_of_objects(finset.finset_skeleton(3))
    assert len(orbs) == 4
    assert sorted(o.stabilizer.order for o in orbs) == [1, 1, 2, 6]


# ---------------------------------------------------------------------------
# Stabilizer Cayley tables


@pytest.mark.parametrize("spec,level,policies", [
    ("finset:4", 1, {"scan"}),
    ("vect:2:3", 2, {"scan", "transversal"}),
    # order-252 stabilizers whose coordinates use few elements of GL(2, 7)
    ("vect:2:7", 1, {"scan"}),
])
def test_stabilizer_tables_equal_per_pair_reference(spec, level, policies):
    cat = builtin_category(spec)
    stabs = [o.stabilizer for o in orbits(cat, level) if o.stabilizer.order <= 512]
    assert {s.policy for s in stabs} == policies

    def compose(a, b):
        return tuple(cat.compose_idx(x, y) for x, y in zip(a, b))

    for stab in stabs:
        els = stab.elements
        if els is None:
            els = chains._chain_stabilizer(cat, stab.objs, stab.mors)
        ref = table_from_elements(els, compose)
        assert np.array_equal(stab.to_cayley_table(20000).table, ref.table), stab.objs


def test_stabilizer_table_rejects_a_set_that_is_not_closed(s3_category):
    cat = s3_category
    e, c = cat.mor_index("id_*"), cat.mor_index("g3")    # g3 has order 3
    c2 = cat.compose_idx(c, c)
    # {e, g3} in Aut(*): the coordinate's own automorphisms are not closed
    small = StabilizerGroup(cat, (0,), (), 2, [(e,), (c,)], "scan")
    with pytest.raises(GroupError, match="not closed"):
        small.to_cayley_table(20000)
    # each coordinate uses the closed {e, g3, g3^2}, but the pairs are not
    # closed: (g3, g3^2)(g3, e) = (g3^2, g3^2) is missing
    pairs = [(e, e), (c, c2), (c2, c), (c, e), (c2, e)]
    large = StabilizerGroup(cat, (0, 0), (e,), 5, pairs, "scan")
    with pytest.raises(GroupError, match="not closed"):
        large.to_cayley_table(20000)


def test_reversed_orbit_search_catches_a_lost_move(monkeypatch):
    # Keep only the first generator move after labelling: the labels still
    # give the right orbits, so only the search from each orbit's greatest
    # member, run under reverse=True, can see that the moves are wrong.
    cat = builtin_category("group:S3")
    real = chains._tuple_action

    def lossy(cat, objs):
        homs, strides, moves, labels = real(cat, objs)
        return homs, strides, moves[:1], labels

    monkeypatch.setattr(chains, "_tuple_action", lossy)
    orbits(cat, 1)
    with pytest.raises(CategoryError, match="differ"):
        orbits(cat, 1, reverse=True)


def test_least_member_is_the_orbit_representative():
    cat = builtin_category("vect:2:2")
    rng = random.Random(3)
    for o in orbits(cat, 2):
        alpha = [rng.choice(cat.aut_idx(x)) for x in o.rep.objs]
        moved = Chain(cat, o.rep.objs, _act_mors(cat, alpha, o.rep.objs, o.rep.mors))
        assert least_member(cat, moved) == o.rep


# ---------------------------------------------------------------------------
# Aut(x) action arrays


ACTION_CATEGORIES = ["ordinal:2", "iso-interval", "group:S3", "mixed", "finset:3",
                     "vect:2:2", "delta:2", "op(finset:3)"]


def _category(spec):
    if spec == "mixed":
        return fincat.from_catdef(MIXED_CLASS_CATDEF, name="mixed")
    if spec == "op(finset:3)":
        return finset.finset_skeleton(3).opposite()
    return builtin_category(spec)


@pytest.mark.parametrize("spec", ACTION_CATEGORIES)
def test_action_arrays_equal_per_pair_reference(spec):
    cat = _category(spec)

    def after(a, f):
        return cat.compose_idx(a, f)

    def before_inverse(a, f):
        return cat.compose_idx(f, cat.inverse_idx(a))

    def ref(hom, auts, action):
        pos = {f: p for p, f in enumerate(hom)}
        return np.array([[pos[action(a, f)] for f in hom] for a in auts],
                        dtype=np.int64).reshape(len(auts), len(hom))

    for x in range(cat.n_objects):
        words = cat.aut_words(x)
        auts, gens = cat.aut_idx(x), cat.aut_generators(x)
        assert sorted(a for a, _, _ in words) == list(range(len(auts)))
        assert words[0] == (auts.index(cat.identity_idx[x]), -1, -1)
        for a, p, k in words[1:]:
            assert cat.compose_idx(auts[p], gens[k]) == auts[a]
        table = cat.aut_table(x)
        assert np.array_equal(table, table_from_elements(auts, cat.compose_idx).table)
        assert table.dtype == np.min_scalar_type(len(auts) - 1)
        assert not table.flags.writeable
        for y in range(cat.n_objects):
            hom = cat.hom_idx(x, y)
            if not hom:
                continue
            left, right = cat.hom_columns(x, y)
            assert np.array_equal(left, ref(hom, cat.aut_generators(y), after))
            assert np.array_equal(right, ref(hom, cat.aut_generators(x), before_inverse))
            assert left.dtype == right.dtype == np.min_scalar_type(len(hom) - 1)
            full_left, full_right = cat.hom_action_tables(x, y)
            assert np.array_equal(full_left, ref(hom, cat.aut_idx(y), after))
            assert np.array_equal(full_right, ref(hom, cat.aut_idx(x), before_inverse))


def test_words_from_too_few_generators_raise():
    cat = builtin_category("group:S3")
    involution = next(a for a in cat.aut_idx(0)
                      if a != cat.identity_idx[0]
                      and cat.compose_idx(a, a) == cat.identity_idx[0])
    cat._aut_gens[0] = [involution]
    with pytest.raises(CategoryError, match="reach 2 of its 6"):
        cat.aut_words(0)
