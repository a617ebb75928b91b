import dataclasses
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from conftest import (aut_reference, aut_words, check_subgroup_against_reference,
                      closure_table, ladder_act, repeated_image, spoiled_aut_columns,
                      table_from_elements)

from cdiag import chains, classifying, fincat, finset, finvect, groups
from cdiag.chains import (ChainLimitExceeded, SelfCheckFailed, StabilizerGroup, chain_count,
                          enumerate_chains, orbits)
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category, run
from cdiag.groups import ClosureLimitExceeded, GroupError
from cdiag.limits import DEFAULT_LIMITS, Limits


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_ordinal1_level2():
    cs = enumerate_chains(fincat.ordinal(1), 2)
    assert len(cs) == 4
    assert all(len(c.mors) == 2 and len(c.objs) == 3 for c in cs)


def test_enumerate_level0_one_per_object():
    cat = fincat.ordinal(3)
    cs = enumerate_chains(cat, 0)
    assert [(cat.objects[x], mors) for (x,), mors in cs] == [(o, ()) for o in "0123"]


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


@pytest.mark.parametrize("spec,level", [("finset:3", 1), ("vect:2:2", 2)])
def test_the_views_keep_what_the_staged_replay_reads(spec, level):
    # perfbench/staged.py reads these and nothing more of the object views
    cat, limits = builtin_category(spec), DEFAULT_LIMITS
    orbs = orbits(cat, level, limits)
    blocks = chains.level_blocks(cat, level, limits)
    assert [(o.rep.objs, o.rep.mors, o.size, o.stabilizer.order) for o in orbs] == [
        (b.objs, tuple(rep), size * b.multiplicity, order) for b in blocks
        for rep, size, order in zip(b.reps.tolist(), b.fiber_sizes, b.orders)]
    for o in orbs:
        assert all(type(i) is int for i in o.rep.objs + o.rep.mors)
        assert o.check_orbit_stabilizer()
        assert o.stabilizer.policy == "scan"
        if o.stabilizer.order <= limits.iso_limit:
            assert o.stabilizer.to_cayley_table(limits.table_limit).n == o.stabilizer.order
    assert len(enumerate_chains(cat, level, limits)) == chain_count(cat, level)
    assert sum(o.size for o in orbs) == chain_count(cat, level)


# ---------------------------------------------------------------------------
# The ladder action


def _component_of(cat, mors, limits=DEFAULT_LIMITS) -> tuple:
    """(block, k): the component of the chain ``mors`` on a tuple of class
    representatives, found through the engine's label of its code."""
    objs = (cat.src[mors[0]],) + tuple(cat.dst[f] for f in mors)
    homs, strides, _, labels = chains._tuple_action(cat, objs)
    least = chains._decode(homs, strides, labels[chains._encode(homs, strides, [mors])])
    [block] = [b for b in chains.level_blocks(cat, len(mors), limits) if b.objs == objs]
    return block, block.reps.tolist().index(least[0].tolist())


def test_act_identity_tuple_fixes(s3_category):
    cat = s3_category
    e = cat.mor_index("id_*")
    for c in enumerate_chains(cat, 2):
        assert ladder_act(cat, (e, e, e), c.mors) == c.mors


def test_act_compatibility_random(s3_category):
    rng = random.Random(11)
    cat = s3_category
    for _ in range(300):
        f = rng.randrange(cat.n_morphisms)
        beta = [rng.randrange(cat.n_morphisms) for _ in range(2)]
        gamma = [rng.randrange(cat.n_morphisms) for _ in range(2)]
        bg = [cat.compose_idx(b, g) for b, g in zip(beta, gamma)]
        assert ladder_act(cat, beta, ladder_act(cat, gamma, (f,))) == ladder_act(cat, bg, (f,))


def test_act_matrix_example_over_f2():
    # ( [1], [[0,1],[1,0]] ) acting on the column [1;0] gives [0;1]
    sk = finvect.vect_skeleton(2, 2)
    col, swap = sk.mor_index("m1_2_10"), sk.mor_index("m2_2_0110")
    assert ladder_act(sk, (sk.mor_index("id_1"), swap), (col,)) == (sk.mor_index("m1_2_01"),)
    # the engine labels both columns with their orbit's least chain
    homs, strides, _, labels = chains._tuple_action(sk, (sk.src[col], sk.dst[col]))
    codes = chains._encode(homs, strides, [(col,), (sk.mor_index("m1_2_01"),)])
    assert labels[codes[0]] == labels[codes[1]]


@pytest.mark.parametrize("spec", ["group:S3", "mixed", "finset:3", "vect:2:2", "delta:2",
                                  "op(finset:3)"])
def test_moves_are_the_reference_action_of_the_generators(spec):
    # each move of _tuple_action maps every chain of its tuple to its image
    # under one generator of one Aut(x_i), the other coordinates identities
    cat = _category(spec)
    for n in (1, 2):
        for block in chains.level_blocks(cat, n):
            objs = block.objs
            homs, strides, moves, _ = chains._tuple_action(cat, objs)
            rows = chains._decode(homs, strides, np.arange(math.prod(map(len, homs))))
            gens = [(i, g) for i, x in enumerate(objs) for g in cat.aut_generators(x)]
            assert len(moves) == len(gens), objs
            for img, (i, g) in zip(moves, gens):
                alpha = [cat.identity_idx[x] for x in objs]
                alpha[i] = g
                want = [ladder_act(cat, alpha, tuple(r)) for r in rows.tolist()]
                assert list(map(tuple, rows[img].tolist())) == want, (objs, i, g)


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
    two = sk.objects.index("2")
    [block] = [b for b in chains.level_blocks(sk, 1) if b.objs == (two, two)]
    assert sorted(size * block.multiplicity for size in block.fiber_sizes) == [2, 2]
    assert sorted(block.orders) == [2, 2]


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


def test_block_orbit_stabilizer_check_fails_on_one_spoiled_component():
    blocks = chains.level_blocks(finset.finset_skeleton(3), 1)
    assert all(b.check_orbit_stabilizer() for b in blocks)
    block = max(blocks, key=len)
    for k in (0, len(block) - 1):
        spoiled = dataclasses.replace(block, orders=list(block.orders))
        spoiled.orders[k] += 1
        assert not spoiled.check_orbit_stabilizer()
    assert dataclasses.replace(block, fiber_sizes=[], orders=[]).check_orbit_stabilizer()


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
    e = s3_category.mor_index("id_*")
    block, k = _component_of(s3_category, (e, e))
    stab = block.stabilizer(k)
    assert stab.mors == (e, e) and stab.order == 6
    for alpha in stab.elements:
        assert alpha[0] == alpha[1] == alpha[2]


def test_column_stabilizer_over_f2():
    sk = finvect.vect_skeleton(2, 2)
    block, k = _component_of(sk, (sk.mor_index("m1_2_10"),))
    assert block.orders[k] == 2


def test_zero_matrix_stabilizer_over_f2():
    sk = finvect.vect_skeleton(2, 2)
    block, k = _component_of(sk, (sk.mor_index("m2_2_0000"),))
    assert block.orders[k] == 36


def test_transversal_path_agrees_with_scan():
    # a table_limit of 0 sends every stabilizer down the orbit search: the
    # same reps, fibre sizes and orders as the listed path, and no elements
    cats = [(finset.finset_skeleton(3), 1), (finvect.vect_skeleton(2, 2), 1),
            (fincat.ordinal(2), 2)]
    for cat, n in cats:
        listed = chains.level_blocks(cat, n)
        forced = chains.level_blocks(cat, n, Limits(table_limit=0))
        assert [(b.objs, b.reps.tolist(), b.fiber_sizes, b.orders) for b in listed] == \
            [(b.objs, b.reps.tolist(), b.fiber_sizes, b.orders) for b in forced]
        for default, searched in zip(listed, forced):
            for k in range(len(default)):
                assert default.stabilizer(k).policy == "scan"
                assert searched.stabilizer(k).policy == "transversal"
                assert searched.elements[k] is None


# categories whose levels hold tuples with a trivial ambient group
# Aut(x_0) x ... x Aut(x_n): all of them for delta:3, ordinal:3 and
# walking-arrow, and mixed with non-trivial ones on iso-interval, finset:3
# (the empty set) and vect:2:2 (the zero space)
TRIVIAL_AMBIENT_CASES = ["delta:3", "ordinal:3", "iso-interval", "walking-arrow",
                         "finset:3", "vect:2:2"]


def _reference_blocks(cat, n):
    """(objs, ambient order, multiplicity, reps, fibre sizes, orders,
    elements) per object tuple of level n, by brute force: tuples of class
    representatives with a morphism between neighbours, ascending; on each,
    every chain, its orbit under the whole ambient product, the least member
    of each orbit and the sorted ambient tuples that fix it."""
    classes = fincat.object_iso_classes(cat)
    size = {c.rep: len(c.members) for c in classes}
    out = []
    for objs in itertools.product(sorted(size), repeat=n + 1):
        homs = [cat.hom_idx(x, y) for x, y in zip(objs, objs[1:])]
        if not all(homs):
            continue
        ambient = list(itertools.product(*(cat.aut_idx(x) for x in objs)))
        orbit = {}
        for mors in itertools.product(*homs):
            orbit.setdefault(min(ladder_act(cat, g, mors) for g in ambient), []).append(mors)
        reps = sorted(orbit)
        stabs = [[g for g in ambient if ladder_act(cat, g, r) == r] for r in reps]
        out.append((objs, len(ambient), int(np.prod([size[x] for x in objs])), reps,
                    [len(orbit[r]) for r in reps], [len(g) for g in stabs], stabs))
    return out


@pytest.mark.parametrize("spec", TRIVIAL_AMBIENT_CASES)
def test_blocks_equal_a_brute_force_reference(spec):
    cat = builtin_category(spec)
    for n in range(3):
        blocks = chains.level_blocks(cat, n, reverse=True)
        got = [(b.objs, b.ambient_order, b.multiplicity, [tuple(r) for r in b.reps.tolist()],
                b.fiber_sizes, b.orders, b.elements) for b in blocks]
        assert got == _reference_blocks(cat, n), (spec, n)
        if n:
            assert any(b.ambient_order == 1 for b in blocks), (spec, n)


def test_trivial_ambient_tuples_skip_labelling_and_listing(monkeypatch):
    seen = {"_tuple_action": [], "_stabilizer_elements": []}
    for name in seen:
        real = getattr(chains, name)

        def spy(cat, objs, *args, real=real, name=name):
            seen[name].append(objs)
            return real(cat, objs, *args)

        monkeypatch.setattr(chains, name, spy)
    for spec in TRIVIAL_AMBIENT_CASES:
        cat = builtin_category(spec)
        for n in range(3):
            for name in seen:
                seen[name].clear()
            blocks = chains.level_blocks(cat, n, reverse=True)
            acted = [b.objs for b in blocks if b.ambient_order > 1]
            # one labelling and one listing per tuple with a non-trivial ambient group
            assert seen["_tuple_action"] == acted, (spec, n)
            assert seen["_stabilizer_elements"] == acted, (spec, n)


def test_trivial_ambient_blocks_follow_the_limits():
    cat = builtin_category("ordinal:2")
    identity = (cat.identity_idx[0], cat.identity_idx[1])
    [block] = [b for b in chains.level_blocks(cat, 1) if b.objs == (0, 1)]
    assert block.elements == [[identity]] and block.stabilizer(0).policy == "scan"
    # a table_limit of 0 keeps nothing, so the identity tuple is searched
    [block] = [b for b in chains.level_blocks(cat, 1, Limits(table_limit=0)) if b.objs == (0, 1)]
    assert block.elements == [None] and block.stabilizer(0).policy == "transversal"


def test_stabilizer_transversal_path_standalone(monkeypatch):
    sk = finvect.vect_skeleton(2, 2)
    diag = (sk.mor_index("m2_2_1000"),)     # diag(1, 0)
    block, k = _component_of(sk, diag, Limits(table_limit=3))
    stab = block.stabilizer(k)
    assert (stab.policy, stab.order, stab.elements) == ("transversal", 4, None)
    block, k = _component_of(sk, diag)
    listed = block.stabilizer(k)
    assert listed.policy == "scan" and listed.to_cayley_table(20000).n == 4
    # to_cayley_table lists nothing: it refuses above table_limit or without elements
    for refused, table_limit in ((listed, 3), (stab, 20000)):
        with pytest.raises(ClosureLimitExceeded):
            refused.to_cayley_table(table_limit)
    # the chain's stabilizer must have exactly the division order, checked
    # when its orbit is found
    listed = chains._stabilizer_elements
    monkeypatch.setattr(chains, "_stabilizer_elements",
                        lambda cat, objs, reps: [els[:-1] for els in listed(cat, objs, reps)])
    with pytest.raises(SelfCheckFailed, match="orbit-stabilizer identity fails"):
        orbits(sk, 1)


def test_transversal_stabilizer_elements_form_the_stabilizer():
    # a searched stabilizer keeps no elements; its division order is that of
    # the listing, and the listing is closed
    sk = finset.finset_skeleton(3)
    for o in orbits(sk, 1, Limits(table_limit=0)):
        stab = o.stabilizer
        assert stab.policy == "transversal" and stab.elements is None
        [els] = chains._stabilizer_elements(sk, stab.objs, [stab.mors])
        assert len(set(els)) == len(els) == stab.order
        # the table raises unless the listed elements are closed
        listed = dataclasses.replace(stab, elements=els)
        assert listed.policy == "scan" and listed.to_cayley_table(20000).n == stab.order


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
    big = [o.stabilizer for o in orbs if o.stabilizer.order > DEFAULT_LIMITS.table_limit]
    assert [s.order for s in big] == [110592]
    assert big[0].policy == "transversal" and big[0].elements is None
    with pytest.raises(ClosureLimitExceeded):
        big[0].to_cayley_table(10 ** 6)
    assert all(o.stabilizer.policy == "scan" for o in orbs if o.stabilizer is not big[0])


@pytest.mark.parametrize("spec,level,limits", [
    ("vect:3:2", 1, DEFAULT_LIMITS), ("vect:2:3", 2, DEFAULT_LIMITS),
    ("finset:3", 1, Limits(table_limit=2)),
], ids=["vect:3:2-1", "vect:2:3-2", "finset:3-1-table2"])
def test_a_stabilizer_is_listed_exactly_when_it_fits_table_limit(spec, level, limits,
                                                                  monkeypatch):
    listed, real = [], chains._stabilizer_elements

    def spy(cat, objs, reps):
        listed.extend((objs, tuple(r)) for r in np.asarray(reps).tolist())
        return real(cat, objs, reps)

    monkeypatch.setattr(chains, "_stabilizer_elements", spy)
    blocks = chains.level_blocks(builtin_category(spec), level, limits)
    # each representative of order at most table_limit once, in block order
    assert listed == [(b.objs, tuple(r)) for b in blocks if b.ambient_order > 1
                      for r, k in zip(b.reps.tolist(), b.orders) if k <= limits.table_limit]
    assert any(k > limits.table_limit for b in blocks for k in b.orders)
    for b in blocks:
        for k in range(len(b)):
            listing = b.orders[k] <= limits.table_limit
            assert (b.elements[k] is not None) == listing
            assert b.stabilizer(k).policy == ("scan" if listing else "transversal")


def test_the_searched_rank_0_stabilizer_checks_its_orbit(monkeypatch):
    # vect:3:2's zero map F^3 -> F^3 is fixed by all of GL(3, 2)^2, of order
    # 28224 > table_limit: a move spoiled at it only the orbit search sees
    cat = builtin_category("vect:3:2")
    [block] = [b for b in chains.level_blocks(cat, 1) if b.objs == (3, 3)]
    k = block.orders.index(28224)
    assert block.stabilizer(k).policy == "transversal"
    [zero] = chains._encode(*chains._tuple_codec(cat, (3, 3)), block.reps[k:k + 1])
    real = chains._tuple_action

    def spoiled(cat, objs):
        homs, strides, moves, labels = real(cat, objs)
        if tuple(objs) == (3, 3):
            moves = [img.copy() for img in moves]
            moves[0][zero] = zero + 1
        return homs, strides, moves, labels

    monkeypatch.setattr(chains, "_tuple_action", spoiled)
    with pytest.raises(SelfCheckFailed, match="disagrees with the orbit labels"):
        chains.level_blocks(cat, 1)


def test_a_stabilizer_without_elements_is_refused_for_what_it_lacks():
    # the order-110592 stabilizer was found under the default table_limit,
    # which it exceeds, so it kept no elements to table under a larger one
    [(block, k)] = [(b, k) for b in chains.level_blocks(builtin_category("vect:2:3"), 2)
                    for k, order in enumerate(b.orders) if order > DEFAULT_LIMITS.table_limit]
    stab = block.stabilizer(k)
    assert stab.elements is None and stab.order > DEFAULT_LIMITS.table_limit
    with pytest.raises(ClosureLimitExceeded) as refused:
        stab.to_cayley_table(10 ** 6)
    assert str(refused.value) == ("stabilizer of order 110592 kept no listed elements: "
                                  "it was found under a smaller table_limit")
    # a real order over the limit keeps the refusal wording
    with pytest.raises(ClosureLimitExceeded,
                       match="^group of order 110592 exceeds table_limit 100000$"):
        stab.to_cayley_table(10 ** 5)


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
            want = [[g for g in ambient if ladder_act(cat, g, mors) == mors] for mors in reps]
            assert list(chains._stabilizer_elements(cat, objs, reps)) == want, objs


# Both stabilizer policies (the default table_limit, which lists every
# stabilizer here, and 0 to search every orbit), in both enumeration orders,
# on four categories.
STABILIZER_CASES = [("finset:3", 1), ("vect:2:2", 1), ("group:S3", 2), ("delta:2", 2)]
SEARCH_ALL = Limits(table_limit=0)
STABILIZER_MODES = [(DEFAULT_LIMITS, False), (DEFAULT_LIMITS, True),
                    (SEARCH_ALL, False), (SEARCH_ALL, True)]


def _stabilizers(blocks) -> dict:
    """{(objs, representative): StabilizerGroup} of every component."""
    return {(b.objs, tuple(b.reps[k].tolist())): b.stabilizer(k)
            for b in blocks for k in range(len(b))}


@pytest.mark.parametrize("spec,level", STABILIZER_CASES)
def test_stabilizer_elements_fix_the_representative(spec, level):
    cat = builtin_category(spec)
    scanned = _stabilizers(chains.level_blocks(cat, level))
    for (objs, rep), stab in scanned.items():
        assert stab.policy == "scan" and len(stab.elements) == stab.order
        for g in stab.elements:
            assert ladder_act(cat, g, rep) == rep, (rep, g)
    for limits, reverse in STABILIZER_MODES:
        got = _stabilizers(chains.level_blocks(cat, level, limits, reverse=reverse))
        assert list(got) == list(scanned)
        for key, stab in got.items():
            assert stab.order == scanned[key].order, key
            # the search path keeps no elements; the listing path the same ones
            assert stab.elements == (None if limits is SEARCH_ALL
                                     else scanned[key].elements), key


@pytest.mark.parametrize("spec,level", STABILIZER_CASES)
def test_stabilizer_of_a_chain_matches_its_orbit(spec, level):
    # a random member of each orbit is fixed by a conjugate of the
    # representative's stabilizer, of the same order, and is labelled with
    # the representative
    cat = builtin_category(spec)
    rng = random.Random(7)
    for block in chains.level_blocks(cat, level):
        ambient = list(itertools.product(*(cat.aut_idx(x) for x in block.objs)))
        homs, strides, _, labels = chains._tuple_action(cat, block.objs)
        for k, rep in enumerate(map(tuple, block.reps.tolist())):
            moved = ladder_act(cat, rng.choice(ambient), rep)
            fixing = [g for g in ambient if ladder_act(cat, g, moved) == moved]
            assert len(fixing) == block.orders[k], (block.objs, rep, moved)
            [label] = labels[chains._encode(homs, strides, [moved])]
            assert chains._decode(homs, strides, [label])[0].tolist() == list(rep)


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
    small = StabilizerGroup(cat, (0,), (), 2, [(e,), (c,)])
    with pytest.raises(SelfCheckFailed, match=r"listed stabilizer of object \*: .*not closed"):
        small.to_cayley_table(20000)
    # each coordinate uses the closed {e, g3, g3^2}, but the pairs are not
    # closed: (g3, g3^2)(g3, e) = (g3^2, g3^2) is missing
    pairs = [(e, e), (c, c2), (c2, c), (c, e), (c2, e)]
    large = StabilizerGroup(cat, (0, 0), (e,), 5, pairs)
    with pytest.raises(SelfCheckFailed, match=r"listed stabilizer of chain \(id_\*\): .*not closed"):
        large.to_cayley_table(20000)


def sorted_ranks(stab):
    """The listing of ``stab`` as rows of Aut(x_i) ranks, rows ascending."""
    return sorted(tuple(stab.cat.aut_idx(x).index(a) for x, a in zip(stab.objs, el))
                  for el in stab.elements)


def reduced_listing(stab) -> tuple:
    """(kept objects, rows on them) of the sorted listing: coordinate i is
    dropped when it is a function of coordinates 0..i-1, that is, when it
    splits no set of rows that agree on those."""
    rows = sorted_ranks(stab)
    kept = [i for i in range(len(stab.objs))
            if len({r[:i] for r in rows}) != len({r[:i + 1] for r in rows})]
    return tuple(stab.objs[i] for i in kept), tuple(tuple(r[i] for i in kept) for r in rows)


@pytest.mark.parametrize("spec,level", [("vect:2:3", 2), ("vect:3:2", 1), ("finset:4", 1)])
def test_reduced_stabilizer_tables_equal_full_builds(spec, level):
    # every stabilizer decompose tables: the table built on the kept
    # coordinates is the one built on every coordinate of the sorted listing
    cat = builtin_category(spec)
    stabs = [b.stabilizer(k) for b in chains.level_blocks(cat, level) for k in range(len(b))
             if 1 < b.orders[k] <= DEFAULT_LIMITS.iso_limit]
    memo, shared = groups.GroupMemo(DEFAULT_LIMITS.iso_limit), {}
    for stab in stabs:
        got = stab.to_cayley_table(DEFAULT_LIMITS.table_limit, memo)
        auts = [chains._checked_aut(cat, x, memo) for x in stab.objs]
        want = groups.ProductSubgroup(auts, sorted_ranks(stab)).cayley_table()
        assert (got.table.dtype, got.table.tobytes()) == (want.table.dtype, want.table.tobytes())
        # stabilizers with equal reduced listings share one table
        assert shared.setdefault(reduced_listing(stab), got) is got
    assert len(shared) < len(stabs)


def test_dropped_coordinates_are_checked_on_every_listing(s3_category, monkeypatch):
    cat = s3_category
    e, c = cat.mor_index("id_*"), cat.mor_index("g3")    # g3 has order 3
    c2 = cat.compose_idx(c, c)
    # the first coordinate is the closed {e, g3, g3^2}, and the second a
    # function of it, but not a homomorphism: (g3, g3)^2 = (g3^2, g3^2)
    # is missing
    bad = StabilizerGroup(cat, (0, 0), (e,), 3, [(e, e), (c, c), (c2, e)])
    with pytest.raises(SelfCheckFailed, match="not closed"):
        bad.to_cayley_table(20000)
    # one row drops every coordinate, and its table has no generators
    with pytest.raises(SelfCheckFailed, match="not closed"):
        StabilizerGroup(cat, (0,), (), 1, [(c,)]).to_cayley_table(20000)
    assert StabilizerGroup(cat, (0,), (), 1, [(e,)]).to_cayley_table(20000).n == 1
    # the diagonal of <g3> has the same kept rows, so its subgroup is the
    # memo's on the second call; the check still runs
    builds, subgroup = [], chains.ProductSubgroup
    monkeypatch.setattr(chains, "ProductSubgroup",
                        lambda *args, **kw: builds.append(1) or subgroup(*args, **kw))
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    diagonal = StabilizerGroup(cat, (0, 0), (e,), 3, [(e, e), (c, c), (c2, c2)])
    assert diagonal.subgroup(20000, memo).n == 3
    with pytest.raises(SelfCheckFailed, match="not closed"):
        bad.subgroup(20000, memo)
    assert builds == [1]


def test_an_unsorted_listing_gives_the_sorted_listings_table(s3_category):
    # the stabilizer of g3, which is not its orbit's representative
    g3 = (s3_category.mor_index("g3"),)
    [els] = chains._stabilizer_elements(s3_category, (0, 0), [g3])
    stab = StabilizerGroup(s3_category, (0, 0), g3, len(els), els)
    assert stab.elements == sorted(stab.elements) and stab.order == 6
    want = stab.to_cayley_table(20000).table
    for seed in range(3):
        shuffled = random.Random(seed).sample(stab.elements, len(stab.elements))
        got = dataclasses.replace(stab, elements=shuffled).to_cayley_table(20000).table
        assert np.array_equal(got, want)


@pytest.mark.parametrize("spec,level", [("vect:2:3", 2), ("finset:4", 2), ("vect:3:2", 1),
                                        ("vect:2:2", 3), ("group:S4", 2)])
def test_subgroups_read_like_their_reference_tables(spec, level):
    # generators, sizes, orders, generator columns, centralizer orders,
    # abelianness and library names of every stabilizer decompose names
    cat = builtin_category(spec)
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    stabs = [b.stabilizer(k) for b in chains.level_blocks(cat, level) for k in range(len(b))
             if 1 < b.orders[k] <= DEFAULT_LIMITS.iso_limit]
    assert stabs
    for stab in stabs:
        check_subgroup_against_reference(stab, DEFAULT_LIMITS.table_limit, memo)


def test_spoiled_listings_and_aut_tables_fail_the_subgroup_check(monkeypatch):
    cat = builtin_category("vect:2:3")
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    stabs = [b.stabilizer(k) for b in chains.level_blocks(cat, 2) for k in range(len(b))
             if 2 < b.orders[k] <= DEFAULT_LIMITS.iso_limit and b.orders[k] < b.ambient_order]
    # a listed element swapped for a non-member of the same ambient group
    stab = stabs[0]
    ambient = itertools.product(*(cat.aut_idx(x) for x in stab.objs))
    outside = next(el for el in ambient if el not in stab.elements)
    swapped = dataclasses.replace(stab, elements=stab.elements[:-1] + [outside])
    with pytest.raises(SelfCheckFailed, match="listed stabilizer of chain .*not closed"):
        swapped.subgroup(DEFAULT_LIMITS.table_limit, memo)
    # a dropped coordinate changed on the whole run of rows over one kept
    # element: the kept rows, and so the memo's subgroup, stay the same
    for stab in stabs:
        ranks = np.array(sorted_ranks(stab))
        objs, kept_rows = reduced_listing(stab)
        dropped = [i for i in range(len(stab.objs))
                   if len({tuple(r[:i]) for r in ranks}) == len({tuple(r[:i + 1]) for r in ranks})
                   and len(cat.aut_idx(stab.objs[i])) > 1]
        if dropped and len(kept_rows) > 2:
            break
    i = dropped[0]
    x, run = stab.objs[i], (ranks[:, :i] == ranks[-1, :i]).all(axis=1)
    ranks[run, i] = (ranks[-1, i] + 1) % len(cat.aut_idx(x))
    auts = [cat.aut_idx(y) for y in stab.objs]
    spoiled = dataclasses.replace(stab, elements=[tuple(a[r] for a, r in zip(auts, row))
                                                  for row in ranks.tolist()])
    assert reduced_listing(spoiled) == (objs, kept_rows)
    stab.subgroup(DEFAULT_LIMITS.table_limit, memo)
    builds, subgroup = [], chains.ProductSubgroup
    monkeypatch.setattr(chains, "ProductSubgroup",
                        lambda *args, **kw: builds.append(1) or subgroup(*args, **kw))
    with pytest.raises(SelfCheckFailed, match="listed stabilizer of chain .*not closed"):
        spoiled.subgroup(DEFAULT_LIMITS.table_limit, memo)
    assert builds == []
    # a spoiled generator column of Aut(F^2), checked once per command
    spoiled_aut_columns(monkeypatch, 48, repeated_image)
    fresh = builtin_category("vect:2:3")
    stab = next(b.stabilizer(k) for b in chains.level_blocks(fresh, 1) for k in range(len(b))
                if 2 in b.objs and 1 < b.orders[k] <= DEFAULT_LIMITS.iso_limit)
    with pytest.raises(SelfCheckFailed, match=r"Aut\(2\) is not a group: a left generator"):
        stab.subgroup(DEFAULT_LIMITS.table_limit)


def test_spoiled_generator_columns_fail_the_aut_check():
    # GL(2,3) as a ClosureGroup: a repeated image in a left column, and a
    # tree edge's image swapped with another, so that the words reach the
    # wrong element
    cat = builtin_category("vect:2:3")
    _, columns, tree = cat._aut_closure(2)
    groups.ClosureGroup(columns, tree)
    spoiled = columns.copy()
    repeated_image(spoiled, tree)
    with pytest.raises(GroupError, match="a left generator column is not a permutation"):
        groups.ClosureGroup(spoiled, tree)
    # the (generator, parent) pairs whose images the words read
    n, edges = columns.shape[1], {(k, p) for _, p, k in aut_words(cat, 2)[1:]}
    k, p = min(edges)
    spoiled = columns.copy()
    spoiled[k, [p, (p + 1) % n]] = spoiled[k, [(p + 1) % n, p]]
    with pytest.raises(GroupError, match="x \\* e is not x along the words"):
        groups.ClosureGroup(spoiled, tree)
    # images of two points swapped where neither is a tree edge: every left
    # column stays a permutation and the words still reach each element, so
    # x * e = x holds, and only the commutation check can catch it; the
    # right columns then reach every element, as R_j(e) = L_j(e), and are
    # permutations, as their images are <L_k>-invariant
    k, p, q = next((k, p, q) for k in range(len(columns))
                   for p, q in itertools.combinations(range(n), 2)
                   if not {(k, p), (k, q)} & edges)
    spoiled = columns.copy()
    spoiled[k, [p, q]] = spoiled[k, [q, p]]
    with pytest.raises(GroupError, match=f"left generator column {k} does not commute"):
        groups.ClosureGroup(spoiled, tree)


def test_decompose_tables_no_stabilizer_and_no_aut_above_the_check_limit(monkeypatch):
    cat = builtin_category("vect:2:3")
    want = list(classifying.level_decomposition(cat, 2).rows())
    library = {label for label, _, _ in groups._ATOMS}
    for limit in (groups._ASSOC_CHECK_LIMIT, 10):
        monkeypatch.setattr(groups, "_ASSOC_CHECK_LIMIT", limit)
        built, init = [], groups.CayleyTable.__init__

        def spy(table, *args, **kw):
            init(table, *args, **kw)
            built.append(table)
        monkeypatch.setattr(groups.CayleyTable, "__init__", spy)
        got = classifying.level_decomposition(builtin_category("vect:2:3"), 2)
        monkeypatch.setattr(groups.CayleyTable, "__init__", init)
        assert list(got.rows()) == want
        # library candidates only: no Aut(x), of order 1, 2 or 48, is tabled
        assert built and all(set(t.label.split(" x ")) <= library for t in built)


def test_stabilizers_with_one_table_share_one_name_search(monkeypatch):
    # a subgroup's memo key is its orders and generator columns, which fix
    # its table: stabilizers on different kept objects with one table are
    # named once
    searched, match_named = [], groups.match_named
    monkeypatch.setattr(groups, "match_named",
                        lambda t, *args: searched.append(t.key) or match_named(t, *args))
    d = classifying.level_decomposition(builtin_category("vect:2:3"), 2)
    tables = {b.stabilizer(k).to_cayley_table(20000).table.tobytes()
              for b in d.blocks for k in range(len(b)) if 1 < b.orders[k] <= 512}
    assert len(searched) == len(set(searched)) == len(tables) == 24


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


def _merge_orbits(monkeypatch, objs, sizes):
    """Label the chains of the two orbits of these ``sizes`` on ``objs`` as
    one orbit, with the label of the first."""
    real = chains._tuple_action

    def merged(cat, tup):
        homs, strides, moves, labels = real(cat, tup)
        if tuple(tup) == objs:
            found, counts = np.unique(labels, return_counts=True)
            keep, drop = (found[counts.tolist().index(size)] for size in sizes)
            labels = np.where(labels == drop, keep, labels)
        return homs, strides, moves, labels

    monkeypatch.setattr(chains, "_tuple_action", merged)


def test_an_orbit_size_that_does_not_divide_the_ambient_order_fails(monkeypatch, capsys):
    # finset:3's (3, 3) tuple: 6 bijections, 18 maps onto two points and 3
    # constants under S3 x S3 of order 36; 18 + 3 = 21 does not divide 36
    _merge_orbits(monkeypatch, (3, 3), (18, 3))
    with pytest.raises(SelfCheckFailed, match="orbit size does not divide"):
        chains.level_blocks(finset.finset_skeleton(3), 1)
    assert run(["decompose", "--builtin", "finset:3", "--level", "1"]) == 1
    assert "orbit size does not divide the ambient group order" in capsys.readouterr().err


def test_an_orbit_search_that_disagrees_with_the_labels_fails(monkeypatch, capsys):
    # 6 + 3 = 9 divides 36, so the merged orbit passes the division; its
    # stabilizer of order 4 is over table_limit 1, so only the orbit search
    # from its representative sees it
    _merge_orbits(monkeypatch, (3, 3), (6, 3))
    with pytest.raises(SelfCheckFailed, match="disagrees with the orbit labels"):
        chains.level_blocks(finset.finset_skeleton(3), 1, Limits(table_limit=1))
    argv = ["decompose", "--builtin", "finset:3", "--level", "1", "--table-limit", "1"]
    assert run(argv) == 1
    assert "disagrees with the orbit labels" in capsys.readouterr().err


def test_orbit_sizes_that_miss_the_chain_count_fail(monkeypatch, capsys):
    real = chains._orbit_and_stabilizer

    def short(cat, objs, limits, *args, **kw):
        b = real(cat, objs, limits, *args, **kw)
        return dataclasses.replace(b, reps=b.reps[1:], fiber_sizes=b.fiber_sizes[1:],
                                   orders=b.orders[1:],
                                   elements=b.elements[1:]) if objs == (3, 3) else b

    monkeypatch.setattr(chains, "_orbit_and_stabilizer", short)
    with pytest.raises(SelfCheckFailed, match="orbit sizes do not sum to the chain count"):
        chains.level_blocks(finset.finset_skeleton(3), 1)
    assert run(["decompose", "--builtin", "finset:3", "--level", "1"]) == 1
    assert "orbit sizes do not sum to the chain count" in capsys.readouterr().err


def test_least_member_is_the_orbit_representative():
    # every member of an orbit, moved by a random ambient tuple, is
    # labelled with the representative, the least chain of the orbit
    cat = builtin_category("vect:2:2")
    rng = random.Random(3)
    for block in chains.level_blocks(cat, 2):
        homs, strides, _, labels = chains._tuple_action(cat, block.objs)
        for rep in map(tuple, block.reps.tolist()):
            alpha = [rng.choice(cat.aut_idx(x)) for x in block.objs]
            codes = chains._encode(homs, strides, [rep, ladder_act(cat, alpha, rep)])
            assert labels[codes].tolist() == [codes[0]] * 2, (block.objs, rep)


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
        words = aut_words(cat, x)
        auts, gens = cat.aut_idx(x), cat.aut_generators(x)
        assert sorted(a for a, _, _ in words) == list(range(len(auts)))
        assert words[0] == (auts.index(cat.identity_idx[x]), -1, -1)
        for a, p, k in words[1:]:
            assert cat.compose_idx(gens[k], auts[p]) == auts[a]
        table = closure_table(chains._checked_aut(cat, x, groups.GroupMemo(512)))
        assert np.array_equal(table, table_from_elements(auts, cat.compose_idx).table)
        assert table.dtype == np.min_scalar_type(len(auts) - 1)
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


@pytest.mark.parametrize("spec", list(ACCEPTANCE_SUITE) + ["vect:2:3", "group:C12"])
def test_checked_aut_groups_equal_the_per_pair_reference(spec):
    # every product x * a (the columns) and every element order of each
    # checked Aut(x) equal those of its table composed pair by pair;
    # group:C12 has one generator, and a word tree 11 levels deep
    cat = builtin_category(spec)
    memo = groups.GroupMemo(DEFAULT_LIMITS.iso_limit)
    for x in range(cat.n_objects):
        ref, aut = aut_reference(cat, x), chains._checked_aut(cat, x, memo)
        e, everyone = aut.identity, np.arange(aut.n)
        assert e == cat.aut_idx(x).index(cat.identity_idx[x])
        orders = []
        for a in everyone.tolist():
            power, k = a, 1
            while power != e:
                power, k = ref[power, a], k + 1
            orders.append(k)
        assert aut.orders_of(everyone[::-1]).tolist() == orders[::-1]
        assert np.array_equal(aut.columns(everyone), ref.T)
    if spec == "group:C12":
        assert len(cat._aut_closure(0)[2][2]) == 11


def test_words_and_generators_come_from_one_closure(monkeypatch):
    # the generators, the words and the checked group of each Aut(x) come
    # from one greedy closure, whose tree is the words; the spy starts
    # after the build, whose CayleyTable of S3 runs a closure of its own
    closures, closure = [], groups.greedy_closure

    def spy(*args, **kwargs):
        closures.append(args[3])
        return closure(*args, **kwargs)

    cat = builtin_category("group:S3")
    monkeypatch.setattr(groups, "greedy_closure", spy)
    auts, gens, words = cat.aut_idx(0), cat.aut_generators(0), aut_words(cat, 0)
    aut = chains._checked_aut(cat, 0, groups.GroupMemo(512))
    cat.hom_action_tables(0, 0, range(6))
    assert closures == [6]
    ranks = [auts.index(g) for g in gens]
    assert all(aut.column(p)[ranks[k]] == a for a, p, k in words[1:])
