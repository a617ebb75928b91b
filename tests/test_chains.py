import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

from cdiag import chains, fincat, finset, finvect
from cdiag.chains import (Chain, ChainLimitExceeded, SelfCheckFailed,
                          StabilizerGroup, _act_mors, act, chain_count, enumerate_chains,
                          least_member, orbits, stabilizer)
from cdiag.cli import builtin_category
from cdiag.fincat import CategoryError
from cdiag.groups import ClosureLimitExceeded, GroupError, table_from_elements
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


def test_chain_array_is_narrow():
    rows = chains._chain_array(finset.finset_skeleton(4), 2)
    assert rows.shape == (133799, 2)
    assert rows.dtype == np.uint16


def test_chain_array_of_the_empty_category():
    empty = fincat.from_catdef("# nothing")
    for n in (1, 2, 3):
        assert chains._chain_array(empty, n).shape == (0, n)
    assert enumerate_chains(empty, 2) == []


# sha256 of repr([(c.objs, c.mors) for c in enumerate_chains(S3, n)]) and of
# repr((levels, sorted faces, sorted degeneracies)) of nerve_truncation(S3, 3),
# pinned from the engine that enumerated chains with a recursive generator
S3_ENUMERATION_SHA = [
    "367d5052b11809bd2bf74b9e45d7be98112a302f4975e17201d62aedaafe0c46",
    "9846e009d46a4a82030878baa99e02acaaabc3199aac18c854a9cf324ef3ed5f",
    "53b41248bc98dde4118548e0184205b01c97344d5b4555138e8311704391465c",
    "cb45cb02f00ac85db1ac49cedca84ee81bce4fe50734161c89f5168c8cf0ad6f",
]
S3_NERVE_SHA = "19d58fdf56ea8447b5a05a9585baf8609012847cf106678bc0cbd13b0861460d"


def test_s3_enumeration_and_nerve_are_pinned():
    from cdiag.classifying import nerve_truncation
    cat = builtin_category("group:S3")
    for n, pinned in enumerate(S3_ENUMERATION_SHA):
        text = repr([(c.objs, c.mors) for c in enumerate_chains(cat, n)])
        assert hashlib.sha256(text.encode()).hexdigest() == pinned, n
    t = nerve_truncation(cat, 3)
    # the arrays in the tuple-and-list form the pin was taken from
    levels = [t.levels[0].tolist()] + [list(map(tuple, rows.tolist())) for rows in t.levels[1:]]
    faces, degen = ([(k, v.tolist()) for k, v in sorted(m.items())]
                    for m in (t.faces, t.degeneracies))
    text = repr((levels, faces, degen))
    assert hashlib.sha256(text.encode()).hexdigest() == S3_NERVE_SHA


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


def test_transversal_path_agrees_with_scan(monkeypatch):
    # force the search path with a listing bound of 0 and compare its
    # exact orders and elements against the listed path
    cats = [(finset.finset_skeleton(3), 1), (finvect.vect_skeleton(2, 2), 1)]
    listed = [{o.rep.mors: o.stabilizer for o in orbits(cat, n)} for cat, n in cats]
    monkeypatch.setattr(chains, "_LIST_LIMIT", 0)
    for (cat, n), default in zip(cats, listed):
        forced = {o.rep.mors: o.stabilizer for o in orbits(cat, n)}
        assert set(default) == set(forced)
        for rep, stab in default.items():
            assert stab.policy == "scan"
            assert forced[rep].policy == "transversal"
            assert forced[rep].order == stab.order
            assert forced[rep].elements == stab.elements


def test_stabilizer_transversal_path_standalone(monkeypatch):
    sk = finvect.vect_skeleton(2, 2)
    c = Chain.from_morphism_ids(sk, ["m2_2_1000"])   # diag(1, 0)
    monkeypatch.setattr(chains, "_LIST_LIMIT", 0)
    stab = stabilizer(sk, c)
    assert stab.policy == "transversal"
    assert stab.order == 4
    assert stab.to_cayley_table(20000).n == 4
    # to_cayley_table lists nothing: it refuses above table_limit or without elements
    for refused, table_limit in ((stab, 3), (dataclasses.replace(stab, elements=None), 20000)):
        with pytest.raises(ClosureLimitExceeded):
            refused.to_cayley_table(table_limit)
    # the chain's stabilizer must have exactly the division order, checked
    # when its orbit is found
    listed = chains._stabilizer_elements
    monkeypatch.setattr(chains, "_stabilizer_elements",
                        lambda cat, objs, reps: [els[:-1] for els in listed(cat, objs, reps)])
    with pytest.raises(SelfCheckFailed, match="orbit-stabilizer identity fails"):
        orbits(sk, 1)


def test_transversal_stabilizer_elements_form_the_stabilizer(monkeypatch):
    sk = finset.finset_skeleton(3)
    monkeypatch.setattr(chains, "_LIST_LIMIT", 0)
    for o in orbits(sk, 1):
        stab = o.stabilizer
        assert stab.policy == "transversal"
        [els] = chains._stabilizer_elements(sk, stab.objs, [stab.mors])
        assert stab.elements == els
        assert len(set(els)) == len(els) == stab.order
        # the table raises unless the listed elements are closed
        assert stab.to_cayley_table(20000).n == stab.order


def test_small_stabilizers_in_a_large_product_are_listed():
    # level 1 of S6: one orbit in an ambient product of order 720^2 = 518400,
    # stabilized by the diagonal, of order 720
    cat = builtin_category("group:S6")
    [o] = orbits(cat, 1)
    assert (o.ambient_order, o.stabilizer.order) == (518400, 720)
    assert o.stabilizer.policy == "scan"
    assert o.stabilizer.elements == [(a, a) for a in cat.aut_idx(0)]


def test_a_stabilizer_over_the_listing_bound_is_searched():
    orbs = orbits(builtin_category("vect:2:3"), 2)
    big = [o.stabilizer for o in orbs if o.stabilizer.order > chains._LIST_LIMIT]
    assert [s.order for s in big] == [110592]
    assert big[0].policy == "transversal" and big[0].elements is None
    with pytest.raises(ClosureLimitExceeded):
        big[0].to_cayley_table(10 ** 6)
    assert all(o.stabilizer.policy == "scan" for o in orbs if o.stabilizer is not big[0])


@pytest.mark.parametrize("cells", [chains._SCAN_CELLS, 1])
def test_stabilizer_elements_equal_a_brute_force_filter(cells, monkeypatch):
    # every automorphism tuple that fixes the chain, in lexicographic order,
    # for all chains of each tuple in one call; cells=1 lists one chain per block
    monkeypatch.setattr(chains, "_SCAN_CELLS", cells)
    for spec, level in [("finset:3", 1), ("vect:2:2", 1), ("group:S3", 2), ("mixed", 2)]:
        cat = _category(spec)
        by_objs = {}
        for c in enumerate_chains(cat, level):
            by_objs.setdefault(c.objs, []).append(c.mors)
        for objs, reps in by_objs.items():
            ambient = list(itertools.product(*(cat.aut_idx(x) for x in objs)))
            want = [[g for g in ambient if _act_mors(cat, g, objs, mors) == mors]
                    for mors in reps]
            assert list(chains._stabilizer_elements(cat, objs, reps)) == want, objs


# Both stabilizer policies (the default listing bound, and 0 to search
# every orbit), in both enumeration orders, on four categories.
STABILIZER_CASES = [("finset:3", 1), ("vect:2:2", 1), ("group:S3", 2), ("delta:2", 2)]
STABILIZER_MODES = [(chains._LIST_LIMIT, False), (chains._LIST_LIMIT, True),
                    (0, False), (0, True)]


@pytest.mark.parametrize("spec,level", STABILIZER_CASES)
def test_stabilizer_elements_fix_the_representative(spec, level, monkeypatch):
    cat = builtin_category(spec)
    scanned = {o.rep.mors: o.stabilizer for o in orbits(cat, level)}
    assert {s.policy for s in scanned.values()} == {"scan"}
    for list_limit, reverse in STABILIZER_MODES:
        monkeypatch.setattr(chains, "_LIST_LIMIT", list_limit)
        for o in orbits(cat, level, reverse=reverse):
            rep, stab = o.rep, o.stabilizer
            assert stab.policy == ("scan" if list_limit else "transversal")
            # the search path lists the same elements as the scan of the same chain
            assert stab.elements == scanned[rep.mors].elements, rep
            assert len(stab.elements) == stab.order
            for g in stab.elements:
                assert _act_mors(cat, g, rep.objs, rep.mors) == rep.mors, (rep, g)


@pytest.mark.parametrize("spec,level", STABILIZER_CASES)
def test_stabilizer_of_a_chain_matches_its_orbit(spec, level, monkeypatch):
    cat = builtin_category(spec)
    rng = random.Random(7)
    for list_limit in (chains._LIST_LIMIT, 0):
        monkeypatch.setattr(chains, "_LIST_LIMIT", list_limit)
        for o in orbits(cat, level):
            # the representative and a random member of its orbit
            alpha = [rng.choice(cat.aut_idx(x)) for x in o.rep.objs]
            moved = Chain(cat, o.rep.objs, _act_mors(cat, alpha, o.rep.objs, o.rep.mors))
            for chain in (o.rep, moved):
                got = stabilizer(cat, chain)
                assert (got.order, got.policy) == (o.stabilizer.order, o.stabilizer.policy)


# ---------------------------------------------------------------------------
# Level-0 classes


def test_iso_classes_walking_arrow():
    orbs = orbits(fincat.walking_arrow(), 0)
    assert len(orbs) == 2
    assert all(o.stabilizer.order == 1 for o in orbs)


def test_iso_classes_iso_interval():
    orbs = orbits(fincat.iso_interval(), 0)
    assert len(orbs) == 1 and orbs[0].stabilizer.order == 1
    assert orbs[0].size == 2


def test_iso_classes_finset3():
    sk = finset.finset_skeleton(3)
    orbs = orbits(sk, 0)
    assert len(orbs) == 4
    assert sorted(o.stabilizer.order for o in orbs) == [1, 1, 2, 6]
    # the scan lists all of Aut(x), in aut_idx order
    for o in orbs:
        assert o.stabilizer.elements == [(a,) for a in sk.aut_idx(o.rep.objs[0])]


def test_level0_is_held_to_chain_limit():
    with pytest.raises(ChainLimitExceeded, match="4 chains at level 0"):
        orbits(finset.finset_skeleton(3), 0, Limits(chain_limit=3))
    assert len(orbits(finset.finset_skeleton(3), 0, Limits(chain_limit=4))) == 4


# ---------------------------------------------------------------------------
# Stabilizer Cayley tables


@pytest.mark.parametrize("spec,level,policies", [
    ("finset:4", 1, {"scan"}),
    ("vect:2:3", 2, {"scan"}),
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
        ref = table_from_elements(stab.elements, compose)
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
    with pytest.raises(SelfCheckFailed, match="differ"):
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
                     "finset:3:inj", "finset:3:surj", "vect:2:2", "vect:1:3", "vect:2:3",
                     "delta:2", "op(finset:3)"]


def _category(spec):
    if spec == "mixed":
        return fincat.from_catdef(MIXED_CLASS_CATDEF, name="mixed")
    if spec == "op(finset:3)":
        return finset.finset_skeleton(3).opposite()
    if spec.startswith("finset:3:"):
        return finset.finset_skeleton(3, spec.split(":")[2])
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
            assert cat.compose_idx(gens[k], auts[p]) == auts[a]
        table = cat.aut_table(x)
        assert np.array_equal(table, table_from_elements(auts, cat.compose_idx).table)
        assert table.dtype == np.min_scalar_type(len(auts) - 1)
        assert not table.flags.writeable
        for y in range(cat.n_objects):
            hom = cat.hom_idx(x, y)
            left, right = cat.hom_columns(x, y)
            assert np.array_equal(left, ref(hom, cat.aut_generators(y), after))
            assert np.array_equal(right, ref(hom, cat.aut_generators(x), before_inverse))
            assert left.dtype == right.dtype == np.min_scalar_type(max(len(hom) - 1, 0))
            full_left = ref(hom, cat.aut_idx(y), after)
            full_right = ref(hom, cat.aut_idx(x), before_inverse)
            every = list(range(len(hom)))
            # a non-contiguous subset, out of order and with repeats
            some = [p for p in every if p % 3 != 1][::-1] * 2
            for positions in (every, some):
                on_left, on_right = cat.hom_action_tables(x, y, positions)
                assert np.array_equal(on_left, full_left[:, positions])
                assert np.array_equal(on_right, full_right[:, positions])


def test_words_and_generators_come_from_one_closure(monkeypatch):
    # the generators, the words and the Cayley table of each Aut(x) come
    # from one greedy closure, whose tree is the words
    closures, closure = [], fincat.greedy_closure

    def spy(*args):
        closures.append(args[3])
        return closure(*args)

    monkeypatch.setattr(fincat, "greedy_closure", spy)
    cat = builtin_category("group:S3")
    auts, gens, words = cat.aut_idx(0), cat.aut_generators(0), cat.aut_words(0)
    table = cat.aut_table(0)
    cat.hom_action_tables(0, 0, range(6))
    assert closures == [6]
    ranks = [auts.index(g) for g in gens]
    assert all(table[ranks[k], p] == a for a, p, k in words[1:])
