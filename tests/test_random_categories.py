"""The chain array, level_blocks(), completeness_check() and the truncated
nerve against naive references on random small categories.

The orbit reference applies every element of Aut(x_0) x ... x Aut(x_n)
through the reference ladder action (``conftest.ladder_act``) to every chain
on each tuple of class representatives: no generators, no breadth-first
search and no action arrays.  The completeness
reference counts invertible squares pair by pair with ``compose_idx``.
The chain reference filters itertools.product of the morphisms.  The nerve
reference maps one simplex at a time, composing with ``compose_idx`` and
looking every image up in a dict of the level's tuples.  The object class
reference searches breadth first along every invertible morphism.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ladder_act

from cdiag import chains, fincat, finset, finvect, groups
from cdiag.chains import _chain_array, _chain_index
from cdiag.classifying import completeness_check, nerve_truncation
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category
from cdiag.fincat import FiniteCategory, ObjectClass, object_iso_classes
from cdiag.limits import DEFAULT_LIMITS, Limits

BASES = {"finset:3": finset.finset_skeleton(3), "vect:2:2": finvect.vect_skeleton(2, 2)}
GROUP_TABLES = [groups.cyclic_table(n).table for n in range(1, 7)] + [
    groups.product_table([groups.cyclic_table(2), groups.cyclic_table(2)]).table,
    groups.product_table([groups.cyclic_table(2), groups.cyclic_table(3)]).table,
]


def full_subcategory(cat: FiniteCategory, objs) -> FiniteCategory:
    keep = [f for f in range(cat.n_morphisms) if cat.src[f] in objs and cat.dst[f] in objs]
    table = {(cat.mor_ids[g], cat.mor_ids[f]): cat.mor_ids[cat.compose_idx(g, f)]
             for f in keep for g in keep if cat.dst[f] == cat.src[g]}
    return FiniteCategory(
        [cat.objects[x] for x in objs],
        [(cat.mor_ids[f], cat.objects[cat.src[f]], cat.objects[cat.dst[f]]) for f in keep],
        {cat.objects[x]: cat.mor_ids[cat.identity_idx[x]] for x in objs},
        payloads=[cat.mor_ids[f] for f in keep], compose_payload=lambda g, f: table.get((g, f)))


def relabelled_group(table, perm) -> FiniteCategory:
    """The group of ``table`` with element i renamed perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[int(table[i][j])]
    return fincat.one_object_group(out)


def catdef_round_trip(cat: FiniteCategory) -> FiniteCategory:
    """Write the category as CATDEF text with fresh names and parse it back."""
    obj = {x: f"o{x}" for x in range(cat.n_objects)}
    name = {f: f"m{f}" for f in range(cat.n_morphisms)}
    name.update({cat.identity_idx[x]: f"id_o{x}" for x in range(cat.n_objects)})
    lines = [f"object {obj[x]}" for x in range(cat.n_objects)]
    lines += [f"mor {name[f]} : {obj[cat.src[f]]} -> {obj[cat.dst[f]]}"
              for f in range(cat.n_morphisms) if f not in cat.identity_idx]
    lines += [f"compose {name[g]} {name[f]} = {name[cat.compose_idx(g, f)]}"
              for f in range(cat.n_morphisms) for g in cat.morphisms_from_idx(cat.dst[f])]
    return fincat.from_catdef("\n".join(lines))


@st.composite
def small_categories(draw):
    kind = draw(st.sampled_from(["sub", "group"]))
    if kind == "sub":
        base = BASES[draw(st.sampled_from(sorted(BASES)))]
        objs = draw(st.sets(st.integers(0, base.n_objects - 1), min_size=1))
        cat = full_subcategory(base, sorted(objs))
    else:
        table = draw(st.sampled_from(GROUP_TABLES))
        cat = relabelled_group(table, draw(st.permutations(range(len(table)))))
    if draw(st.booleans()):
        cat = catdef_round_trip(cat)
    return draw(st.sampled_from([lambda c: c, FiniteCategory.opposite,
                                 fincat.maximal_subgroupoid]))(cat)


def naive_orbits(cat: FiniteCategory, n: int) -> list:
    """(objects, representative, orbit size, stabilizer elements) per orbit."""
    out = []
    for objs in itertools.product([c.rep for c in object_iso_classes(cat)], repeat=n + 1):
        ambient = list(itertools.product(*(cat.aut_idx(x) for x in objs)))
        homs = [cat.hom_idx(x, y) for x, y in zip(objs, objs[1:])]
        seen = set()
        for mors in itertools.product(*homs):
            if mors in seen:
                continue
            images, fixing = set(), []
            for alpha in ambient:
                image = ladder_act(cat, alpha, mors)
                images.add(image)
                if image == mors:
                    fixing.append(alpha)
            seen |= images
            out.append((objs, mors, len(images), fixing))
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_categories())
def test_orbits_match_the_naive_reference(cat):
    for n in (1, 2):
        expected = naive_orbits(cat, n)
        # the default table_limit lists every stabilizer here, and 0
        # searches every orbit and keeps no elements
        for limits in (DEFAULT_LIMITS, Limits(table_limit=0)):
            got = [(b.objs, tuple(rep), size, order, els)
                   for b in chains.level_blocks(cat, n, limits)
                   for rep, size, order, els in zip(b.reps.tolist(), b.fiber_sizes, b.orders,
                                                    b.elements)]
            assert ([row[:4] for row in got]
                    == [(objs, mors, size, len(fixing))
                        for objs, mors, size, fixing in expected])
            for row, (_, _, _, fixing) in zip(got, expected):
                assert row[4] == (fixing if limits.table_limit else None)


def naive_chains(cat: FiniteCategory, n: int) -> list:
    return [t for t in itertools.product(range(cat.n_morphisms), repeat=n)
            if all(cat.dst[f] == cat.src[g] for f, g in zip(t, t[1:]))]


def check_chain_array(cat: FiniteCategory) -> None:
    """``_chain_array`` against the composable tuples of itertools.product,
    in product order, at levels 1-3 wherever the product has at most 10^6
    tuples, and ``_chain_index`` numbering its rows in order."""
    for n in (1, 2, 3):
        if cat.n_morphisms ** n > 10 ** 6:
            continue
        expected = naive_chains(cat, n)
        rows = _chain_array(cat, n)
        assert rows.shape == (len(expected), n)
        assert list(map(tuple, rows.tolist())) == expected
        assert np.array_equal(_chain_index(cat, rows), np.arange(len(rows)))


@pytest.mark.parametrize("spec", ACCEPTANCE_SUITE)
def test_chain_array_matches_the_naive_product_on_builtins(spec):
    check_chain_array(builtin_category(spec))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_categories())
def test_chain_array_matches_the_naive_product(cat):
    check_chain_array(cat)


def naive_invertible_squares(cat: FiniteCategory) -> tuple:
    """(class count, sorted automorphism orders) of the isomorphisms f of
    ``cat``, where f and f' are joined by every pair of isomorphisms (a, b)
    with b . f = f' . a, and Aut(f) is the set of such pairs from f to f."""
    isos = [f for f in range(cat.n_morphisms) if cat.inverse_idx(f) is not None]

    def squares(f, g):
        return sum(cat.compose_idx(b, f) == cat.compose_idx(g, a)
                   for a in isos if (cat.src[a], cat.dst[a]) == (cat.src[f], cat.src[g])
                   for b in isos if (cat.src[b], cat.dst[b]) == (cat.dst[f], cat.dst[g]))

    root = {f: f for f in isos}

    def find(f):
        while root[f] != f:
            f = root[f]
        return f

    for f in isos:
        for g in isos:
            if squares(f, g):
                root[find(g)] = find(f)
    classes = sorted({find(f) for f in isos})
    return len(classes), tuple(sorted(squares(f, f) for f in classes))


def check_completeness_against_squares(cat: FiniteCategory) -> None:
    count, orders = naive_invertible_squares(cat)
    rep = completeness_check(cat)
    assert rep.verdict
    assert rep.class_counts == (count, count)
    assert rep.aut_order_multisets == (orders, orders)


@pytest.mark.parametrize("spec", ACCEPTANCE_SUITE)
def test_completeness_matches_naive_squares_on_builtins(spec):
    check_completeness_against_squares(builtin_category(spec))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_categories())
def test_completeness_matches_naive_squares(cat):
    check_completeness_against_squares(cat)


def naive_nerve(gpd: FiniteCategory, truncation: int) -> tuple:
    """(levels, faces, degeneracies) of the nerve, one simplex at a time."""
    levels = [list(range(gpd.n_objects))]
    levels += [naive_chains(gpd, n) for n in range(1, truncation + 1)]
    row = [{s: r for r, s in enumerate(level)} for level in levels]
    faces, degen = {}, {}
    for n in range(1, truncation + 1):
        for i in range(n + 1):
            out = []
            for t in levels[n]:
                if n == 1:
                    out.append(gpd.dst[t[0]] if i == 0 else gpd.src[t[0]])
                elif i == 0 or i == n:
                    out.append(row[n - 1][t[1:] if i == 0 else t[:-1]])
                else:
                    composite = gpd.compose_idx(t[i], t[i - 1])
                    out.append(row[n - 1][t[:i - 1] + (composite,) + t[i + 1:]])
            faces[(n, i)] = out
    for n in range(truncation):
        for j in range(n + 1):
            out = []
            for s in levels[n]:
                t = () if n == 0 else s
                x = s if n == 0 else gpd.src[s[0]] if j == 0 else gpd.dst[s[j - 1]]
                out.append(row[n + 1][t[:j] + (gpd.identity_idx[x],) + t[j:]])
            degen[(n, j)] = out
    return levels, faces, degen


def check_nerve_against_the_reference(gpd: FiniteCategory, truncation: int) -> None:
    t = nerve_truncation(gpd, truncation)
    levels, faces, degen = naive_nerve(gpd, truncation)
    assert t.levels[0].tolist() == levels[0]
    assert [list(map(tuple, rows.tolist())) for rows in t.levels[1:]] == levels[1:]
    assert {k: v.tolist() for k, v in t.faces.items()} == faces
    assert {k: v.tolist() for k, v in t.degeneracies.items()} == degen
    assert t.check_simplicial_identities()


def test_nerve_matches_the_reference_with_uint16_morphisms():
    cat = builtin_category("group:C300")
    assert _chain_array(cat, 2).dtype == np.uint16
    check_nerve_against_the_reference(cat, 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_categories())
def test_nerve_matches_the_reference(cat):
    check_nerve_against_the_reference(fincat.maximal_subgroupoid(cat), 3)


def bfs_iso_classes(cat: FiniteCategory) -> list:
    """Object classes by a breadth-first search from each object along every
    invertible morphism out of the objects reached."""
    seen, classes = set(), []
    for start in range(cat.n_objects):
        if start in seen:
            continue
        members, frontier = {start}, [start]
        while frontier:
            new = []
            for x in frontier:
                for f in cat.morphisms_from_idx(x):
                    if cat.inverse_idx(f) is not None and cat.dst[f] not in members:
                        members.add(cat.dst[f])
                        new.append(cat.dst[f])
            frontier = new
        classes.append(ObjectClass(rep=start, members=sorted(members)))
        seen |= members
    return classes


def inflated(cat: FiniteCategory, copies) -> FiniteCategory:
    """An equivalent category with ``copies[x]`` isomorphic copies of each
    object x: every morphism x -> y once from each copy of x to each copy
    of y."""
    obj = [(x, i) for x in range(cat.n_objects) for i in range(copies[x])]
    keys = [(f, i, j) for f in range(cat.n_morphisms)
            for i in range(copies[cat.src[f]]) for j in range(copies[cat.dst[f]])]
    return FiniteCategory(
        [f"{x}.{i}" for x, i in obj],
        [(f"{cat.mor_ids[f]}.{i}.{j}", f"{cat.src[f]}.{i}", f"{cat.dst[f]}.{j}")
         for f, i, j in keys],
        {f"{x}.{i}": f"{cat.mor_ids[cat.identity_idx[x]]}.{i}.{i}" for x, i in obj},
        payloads=keys, compose_payload=lambda g, f: (cat.compose_idx(g[0], f[0]), f[1], g[2]))


@pytest.mark.parametrize("spec", ACCEPTANCE_SUITE)
def test_completeness_is_invariant_under_inflation(spec):
    # each object copied twice or three times: an equivalent category, so
    # the classes and their automorphism orders are the original's
    cat = builtin_category(spec)
    rep = completeness_check(inflated(cat, [2 + x % 2 for x in range(cat.n_objects)]))
    want = completeness_check(cat)
    assert rep.verdict is True and want.verdict is True
    assert rep.class_counts == want.class_counts
    assert rep.aut_order_multisets == want.aut_order_multisets


@pytest.mark.parametrize("spec", ACCEPTANCE_SUITE + ("delta:5", "finset:4", "vect:3:2"))
def test_object_iso_classes_match_the_reference_on_builtins(spec):
    cat = builtin_category(spec)
    assert object_iso_classes(cat) == bfs_iso_classes(cat)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_categories(), st.lists(st.integers(1, 3), min_size=6, max_size=6))
def test_object_iso_classes_match_the_reference(cat, copies):
    for c in (cat, inflated(cat, copies), catdef_round_trip(inflated(cat, copies))):
        assert object_iso_classes(c) == bfs_iso_classes(c)


@pytest.mark.parametrize("spec", ["delta:5", "finset:4", "vect:3:2"])
def test_no_inverse_is_sought_between_distinct_objects(spec, monkeypatch):
    cat, asked = builtin_category(spec), []
    real = FiniteCategory.inverse_idx

    def spy(self, mi):
        asked.append(self.src[mi] != self.dst[mi])
        return real(self, mi)

    monkeypatch.setattr(FiniteCategory, "inverse_idx", spy)
    object_iso_classes(cat)
    chains.level_blocks(cat, 1)
    assert asked and not any(asked)
