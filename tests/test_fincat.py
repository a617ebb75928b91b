import random

import numpy as np
import pytest

from cdiag import chains, fincat, finset, finvect, groups
from cdiag.classifying import level_decomposition
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category
from cdiag.fincat import (CatdefError, CategoryError, FiniteCategory, from_catdef,
                          maximal_subgroupoid, object_iso_classes, parse_catdef)
from conftest import S3_TABLE, aut_reference, aut_words, closure_table, same_presentation


# ---------------------------------------------------------------------------
# Parsing


def test_parse_minimal():
    d = parse_catdef("object x\nobject y\nmor f : x -> y\n")
    assert d.objects == ["x", "y"]
    assert d.morphisms == [("f", "x", "y")]
    assert d.compositions == []


def test_parse_empty():
    d = parse_catdef("")
    assert d.objects == [] and d.morphisms == []


def test_parse_comments_and_blanks():
    text = "# header\n\nobject x  # trailing\n   \nobject y\nmor f : x -> y\n"
    d = parse_catdef(text)
    assert d.objects == ["x", "y"]


def test_parse_undeclared_composite_target():
    text = "object x\nmor g : x -> x\nmor f : x -> x\ncompose g f = h\n"
    with pytest.raises(CatdefError, match="'h'"):
        parse_catdef(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CatdefError, match="line 3"):
        parse_catdef("object x\nobject y\nmor f x -> y\n")


def test_parse_duplicates_rejected():
    with pytest.raises(CatdefError, match="duplicate"):
        parse_catdef("object x\nobject x\n")
    with pytest.raises(CatdefError, match="duplicate"):
        parse_catdef("object x\nmor f : x -> x\nmor f : x -> x\n")


def test_parse_reserved_prefix():
    with pytest.raises(CatdefError, match="id_"):
        parse_catdef("object x\nmor id_f : x -> x\n")
    with pytest.raises(CatdefError, match="id_"):
        parse_catdef("object id_x\n")


def test_parse_undeclared_object():
    with pytest.raises(CatdefError, match="'y'"):
        parse_catdef("object x\nmor f : x -> y\n")


# ---------------------------------------------------------------------------
# Validation


def test_validate_walking_arrow_identities_forced():
    cat = from_catdef("object x\nobject y\nmor f : x -> y\n")
    assert cat.n_morphisms == 3
    assert set(cat.mor_ids) == {"id_x", "id_y", "f"}
    assert cat.compose("id_y", "f") == "f"
    assert cat.compose("f", "id_x") == "f"


def test_validate_identity_law_violation():
    text = ("object x\nobject y\nmor f : x -> y\nmor g : x -> y\n"
            "compose f id_x = g\n")
    with pytest.raises(CatdefError, match="identity law"):
        from_catdef(text)


def _s3_catdef():
    names = ["id_x" if i == 0 else f"g{i}" for i in range(6)]
    lines = ["object x"]
    lines += [f"mor {names[i]} : x -> x" for i in range(1, 6)]
    for i in range(1, 6):
        for j in range(1, 6):
            lines.append(f"compose {names[i]} {names[j]} = {names[S3_TABLE[i][j]]}")
    return "\n".join(lines)


def test_validate_s3_full_table():
    cat = from_catdef(_s3_catdef())
    assert cat.n_morphisms == 6
    assert all(cat.is_isomorphism(m) for m in cat.mor_ids)


def test_validate_missing_composite():
    text = "object x\nmor f : x -> x\n"
    with pytest.raises(CategoryError, match="missing composite"):
        from_catdef(text)


def test_check_axioms_finds_a_missing_composite():
    # built directly, without the parser's own check: f after f is missing
    table = {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f"}
    cat = FiniteCategory(["x"], [("e", "x", "x"), ("f", "x", "x")], {"x": "e"},
                         payloads=["e", "f"], compose_payload=lambda g, f: table.get((g, f)))
    with pytest.raises(CategoryError, match=r"missing composite for pair \(f, f\)"):
        cat.check_axioms()


def test_a_composite_payload_outside_the_category_is_missing():
    # f after f lands on a payload no morphism carries
    cat = FiniteCategory(["x"], [("e", "x", "x"), ("f", "x", "x")], {"x": "e"},
                         payloads=[0, 1], compose_payload=lambda g, f: g + f)
    with pytest.raises(CategoryError, match=r"missing composite for pair \(f, f\)"):
        cat.compose("f", "f")


def test_a_payload_shared_by_two_morphisms_is_refused():
    with pytest.raises(CategoryError, match="duplicate morphism payload"):
        FiniteCategory(["x"], [("e", "x", "x"), ("f", "x", "x")], {"x": "e"},
                       payloads=[0, 0], compose_payload=lambda g, f: 0)


def _category(objects=("x",), morphisms=(("e", "x", "x"),), identity=None, payloads=None,
              **kw):
    """One object x with its identity e, unless a refusal below changes a part."""
    return FiniteCategory(list(objects), list(morphisms),
                          {"x": "e"} if identity is None else identity,
                          payloads=[m[0] for m in morphisms] if payloads is None else payloads,
                          compose_payload=lambda g, f: g, **kw)


@pytest.mark.parametrize("parts,message", [
    ({"objects": ("x", "x")}, "duplicate object id"),
    ({"morphisms": (("e", "x", "x"), ("e", "x", "x")), "payloads": [0, 1]},
     "duplicate morphism id"),
    ({"morphisms": (("e", "x", "x"), ("f", "x", "y"))},
     "morphism endpoint not an object: 'x' -> 'y'"),
    ({"identity": {}}, "no identity for object 'x'"),
    ({"identity": {"x": "g"}}, "identity of 'x' is not a morphism"),
    ({"objects": ("x", "y"), "morphisms": (("e", "x", "y"),), "identity": {"x": "e", "y": "e"}},
     "identity of 'x' is not an endomorphism"),
    ({"payloads": ["e", "f"]}, "one payload per morphism required"),
])
def test_every_refusal_of_a_malformed_category(parts, message):
    assert _category().mor_ids == ("e",)
    with pytest.raises(CategoryError, match=message):
        _category(**parts)


def test_composing_a_non_composable_pair_is_refused():
    cat = from_catdef("object x\nobject y\nmor f : x -> y\n")
    with pytest.raises(CategoryError, match="pair not composable: f after f"):
        cat.compose("f", "f")


def test_a_wrong_builder_inverse_is_refused():
    # the involution f of x, with a builder that names e as its inverse
    table = {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f", ("f", "f"): "e"}
    cat = FiniteCategory(["x"], [("e", "x", "x"), ("f", "x", "x")], {"x": "e"},
                         payloads=["e", "f"], compose_payload=lambda g, f: table[(g, f)],
                         inverse_payload=lambda p: "e")
    assert cat.inverse_idx(0) == 0
    with pytest.raises(CategoryError, match="builder inverse is wrong for f"):
        cat.inverse_idx(1)


def test_validate_associativity_violation_reports_triple():
    # a 3-cycle composed against the wrong table entry
    text = ("object x\nmor a : x -> x\nmor b : x -> x\n"
            "compose a a = b\ncompose a b = id_x\ncompose b a = id_x\n"
            "compose b b = b\n")
    with pytest.raises(CategoryError, match="associativity"):
        from_catdef(text)


def test_validate_rejects_every_single_entry_perturbation():
    rng = random.Random(7)
    names = ["e", "a", "b", "c", "d", "f"]

    def build(table):
        morphs = [(n, "*", "*") for n in names]
        ctab = {(names[i], names[j]): names[table[i][j]]
                for i in range(6) for j in range(6)}
        FiniteCategory(["*"], morphs, {"*": "e"}, payloads=names,
                       compose_payload=lambda g, f: ctab.get((g, f))).check_axioms()

    build(S3_TABLE)
    for _ in range(200):
        i, j = rng.randrange(6), rng.randrange(6)
        v = rng.choice([x for x in range(6) if x != S3_TABLE[i][j]])
        t2 = [row[:] for row in S3_TABLE]
        t2[i][j] = v
        with pytest.raises(CategoryError):
            build(t2)


# ---------------------------------------------------------------------------
# Isomorphisms, subgroupoid, opposite


def test_is_isomorphism(s3_category):
    wa = fincat.walking_arrow()
    assert wa.is_isomorphism("id_x")
    assert not wa.is_isomorphism("f")
    assert all(s3_category.is_isomorphism(m) for m in s3_category.mor_ids)
    with pytest.raises(CategoryError):
        wa.is_isomorphism("nope")


def test_maximal_subgroupoid_walking_arrow():
    sub = maximal_subgroupoid(fincat.walking_arrow())
    assert sub.n_objects == 2
    assert set(sub.mor_ids) == {"id_x", "id_y"}


def test_maximal_subgroupoid_fixed_point_and_idempotent(s3_category):
    sub = maximal_subgroupoid(s3_category)
    assert sub.n_morphisms == s3_category.n_morphisms
    sub2 = maximal_subgroupoid(sub)
    assert sub2.mor_ids == sub.mor_ids
    assert all(sub.is_isomorphism(m) for m in sub.mor_ids)


@pytest.mark.parametrize("cat", [finset.finset_skeleton(3), finvect.vect_skeleton(2, 2)],
                         ids=["finset:3", "vect:2:2"])
def test_maximal_subgroupoid_reads_hom_sets_by_the_parent_codec(cat):
    sub = maximal_subgroupoid(cat)
    assert sub._codec is cat._codec is not None
    assert sub.payloads == tuple(p for i, p in enumerate(cat.payloads)
                                 if cat.inverse_idx(i) is not None)
    # the same groupoid composing payload by payload
    plain = FiniteCategory(
        sub.objects, [(m, sub.objects[s], sub.objects[d])
                      for m, s, d in zip(sub.mor_ids, sub.src, sub.dst)],
        {o: sub.mor_ids[i] for o, i in zip(sub.objects, sub.identity_idx)},
        payloads=sub.payloads, compose_payload=cat._compose_payload,
        inverse_payload=cat._inverse_payload)
    # the inverses the parent found, kept, equal those of a search here
    assert [sub.inverse_idx(i) for i in range(sub.n_morphisms)] == \
        [plain.inverse_idx(i) for i in range(plain.n_morphisms)]
    for x in range(sub.n_objects):
        assert sub.aut_idx(x) == plain.aut_idx(x)
        assert np.array_equal(sub.aut_inverse_ranks(x), plain.aut_inverse_ranks(x))
        assert sub.aut_generators(x) == plain.aut_generators(x)
        for y in range(sub.n_objects):
            if sub.hom_idx(x, y):
                for got, want in zip(sub.hom_columns(x, y), plain.hom_columns(x, y)):
                    assert np.array_equal(got, want), (x, y)


def test_maximal_subgroupoid_ordinal():
    sub = maximal_subgroupoid(fincat.ordinal(2))
    assert sub.n_objects == 3
    assert all(m.startswith("id_") for m in sub.mor_ids)


def test_opposite_involution():
    for cat in (fincat.walking_arrow(), fincat.ordinal(2), fincat.iso_interval()):
        assert same_presentation(cat.opposite().opposite(), cat)


def test_derived_categories_compose_through_the_parent(s3_category):
    for cat in (s3_category, fincat.ordinal(2), finset.finset_skeleton(2)):
        op, sub = cat.opposite(), maximal_subgroupoid(cat)
        for f in cat.mor_ids:
            for g in cat.mor_ids:
                if cat.source(g) == cat.target(f):
                    assert op.compose(f, g) == cat.compose(g, f)
                    if g in sub.mor_ids and f in sub.mor_ids:
                        assert sub.compose(g, f) == cat.compose(g, f)
        assert [op.inverse_idx(i) for i in range(op.n_morphisms)] == \
            [cat.inverse_idx(i) for i in range(cat.n_morphisms)]


def test_opposite_walking_arrow():
    op = fincat.walking_arrow().opposite()
    assert op.source("f") == "y" and op.target("f") == "x"


def test_opposite_ordinal_hom_direction():
    op = fincat.ordinal(2).opposite()
    for f in op.mor_ids:
        j, k = int(op.source(f)), int(op.target(f))
        assert k <= j
    assert op.n_morphisms == 6
    op.check_axioms()


# ---------------------------------------------------------------------------
# Builders


@pytest.mark.parametrize("m,count", [(0, 1), (2, 6), (4, 15)])
def test_ordinal_counts(m, count):
    assert fincat.ordinal(m).n_morphisms == count


def test_ordinal_count_formula_property():
    for m in range(9):
        cat = fincat.ordinal(m)
        assert cat.n_morphisms == (m + 1) * (m + 2) // 2
        assert cat.n_objects == m + 1


def test_one_object_group_trivial_matches_point():
    pt = fincat.one_object_group([[0]])
    assert pt.n_objects == 1 and pt.n_morphisms == 1


def test_one_object_group_s2():
    cat = fincat.one_object_group([[0, 1], [1, 0]])
    assert cat.n_morphisms == 2
    assert all(cat.is_isomorphism(m) for m in cat.mor_ids)


def test_one_object_group_rejects_non_group():
    with pytest.raises(Exception):
        fincat.one_object_group([[0, 0], [0, 0]])   # no inverses for element 1
    with pytest.raises(Exception):
        fincat.one_object_group([[1, 0], [0, 0]])   # no identity


def test_truncated_delta_monotone_counts():
    cat = fincat.truncated_delta(2)
    # morphisms [n] -> [m] are the weakly increasing (n+1)-tuples over 0..m
    from math import comb
    per_cell = {}
    for f in cat.mor_ids:
        key = (cat.source(f), cat.target(f))
        per_cell[key] = per_cell.get(key, 0) + 1
    for n in range(3):
        for m in range(3):
            assert per_cell[(f"d{n}", f"d{m}")] == comb(n + m + 1, n + 1)
    cat.check_axioms()


# ---------------------------------------------------------------------------
# Equivalence invariants: level 0 of the classifying diagram


def _level0(cat):
    d = level_decomposition(cat, 0)
    return len(d), d.orders()


def test_equivalence_invariants_point_vs_iso_interval():
    assert _level0(fincat.ordinal(0)) == _level0(fincat.iso_interval()) == (1, [1])


def test_equivalence_invariants_walking_arrow_vs_point():
    assert _level0(fincat.walking_arrow()) == (2, [1, 1])
    assert _level0(fincat.ordinal(0)) == (1, [1])


def test_equivalence_invariants_s3_vs_s2(s3_category, s2_category):
    assert _level0(s3_category) == (1, [6])
    assert _level0(s2_category) == (1, [2])


def test_builder_inverse_hints_agree_with_generic_search():
    from cdiag import finset, finvect
    pool = [finset.finset_skeleton(2), finvect.vect_skeleton(1, 3),
            fincat.truncated_delta(1)]
    for cat in pool:
        for f in range(cat.n_morphisms):
            hint = cat.inverse_idx(f)
            found = None
            for g in cat.hom_idx(cat.dst[f], cat.src[f]):
                if (cat.compose_idx(g, f) == cat.identity_idx[cat.src[f]]
                        and cat.compose_idx(f, g) == cat.identity_idx[cat.dst[f]]):
                    found = g
                    break
            assert (hint is None) == (found is None), cat.mor_ids[f]
            if hint is not None:
                assert hint == found


def test_opposite_of_computed_category():
    from cdiag import finset
    sk = finset.finset_skeleton(2)
    op = sk.opposite()
    assert same_presentation(op.opposite(), sk)
    f = next(m for m in sk.mor_ids if sk.source(m) == "1" and sk.target(m) == "2")
    assert op.source(f) == "2" and op.target(f) == "1"


def test_object_iso_classes_members():
    classes = object_iso_classes(fincat.iso_interval())
    assert [(c.rep, c.members) for c in classes] == [(0, [0, 1])]
    # the walking arrow's one morphism is not invertible
    classes = object_iso_classes(fincat.walking_arrow())
    assert [(c.rep, c.members) for c in classes] == [(0, [0]), (1, [1])]
    # identities and a non-invertible arrow join no classes; an isomorphism does
    cat = from_catdef("object a\nobject b\nobject c\nobject d\nmor f : a -> c\n"
                      "mor g : b -> d\nmor h : d -> b\ncompose h g = id_b\ncompose g h = id_d\n")
    assert [(c.rep, c.members) for c in object_iso_classes(cat)] == [(0, [0]), (1, [1, 3]), (2, [2])]


@pytest.mark.parametrize("cat", [finset.finset_skeleton(3), finset.finset_skeleton(4, "surj"),
                                 finvect.vect_skeleton(2, 2), finvect.vect_skeleton(2, 3),
                                 fincat.iso_interval()], ids=lambda c: c.name)
def test_aut_table_equals_per_pair_reference(cat):
    # the checked Aut(x), read whole through its columns
    memo = groups.GroupMemo(512)
    for oi in range(cat.n_objects):
        aut = chains._checked_aut(cat, oi, memo)
        assert np.array_equal(closure_table(aut), aut_reference(cat, oi))
        assert chains._checked_aut(cat, oi, memo) is aut


class _SpoiledCodec:
    """A hom-set codec whose left action adds 1 to every entry."""

    def __init__(self, codec):
        self.codec = codec

    def __getattr__(self, name):
        return getattr(self.codec, name)

    def left(self, g, F):
        return self.codec.left(g, F) + 1


@pytest.mark.parametrize("cat", [finset.finset_skeleton(3), finset.finset_skeleton(3, "inj"),
                                 finvect.vect_skeleton(2, 3)], ids=lambda c: c.name)
def test_spoiled_codec_raises_missing_composite(cat):
    # the closure of each Aut(x) reads the codec too, so it runs first
    for x in range(cat.n_objects):
        cat.aut_generators(x)
    cat._codec = _SpoiledCodec(cat._codec)
    spoiled = 0
    for x in range(1, cat.n_objects):
        for y in range(1, cat.n_objects):
            if cat.hom_idx(x, y) and cat.aut_generators(y):
                with pytest.raises(CategoryError, match="missing composite for pair"):
                    cat.hom_columns(x, y)
                spoiled += 1
    assert spoiled


def _spoil_codec(cat):
    cat._codec = _SpoiledCodec(cat._codec)


def _spoil_composites(cat):
    """Read every composite not yet cached as the constant map onto 0,
    which is no automorphism of a set of two or more elements."""
    const = {n: cat.mor_index(f"f{n}_{n}_" + "0" * n) for n in (2, 3)}
    cat._compose_payload = lambda g, f: const[cat.src[f]]


@pytest.mark.parametrize("make, spoil", [
    (lambda: finset.finset_skeleton(3), _spoil_codec),
    (lambda: finvect.vect_skeleton(2, 3), _spoil_codec),
    (lambda: finset.finset_skeleton(3).opposite(), _spoil_composites),
], ids=["codec finset:3", "codec vect:2:3", "composite op(finset:3)"])
def test_a_product_outside_aut_raises_from_the_closure(make, spoil):
    cat = make()
    for x in range(cat.n_objects):
        cat.aut_idx(x)
    spoil(cat)
    with pytest.raises(CategoryError, match="missing composite for pair"):
        for x in range(cat.n_objects):
            cat.aut_generators(x)


@pytest.mark.parametrize("make", [lambda: finset.finset_skeleton(4),
                                  lambda: finset.finset_skeleton(4, "surj"),
                                  lambda: finvect.vect_skeleton(2, 3)],
                         ids=["finset:4", "finset:4:surj", "vect:2:3"])
def test_aut_x_acts_only_through_generator_columns(make, monkeypatch):
    # once the automorphisms and their inverses are known, the closure,
    # the words, the tables and the hom-set columns compose nothing pair
    # by pair
    cat = make()
    for x in range(cat.n_objects):
        cat.aut_idx(x)

    def refuse(gi, fi):
        raise AssertionError("compose_idx called")

    monkeypatch.setattr(cat, "compose_idx", refuse)
    for x in range(cat.n_objects):
        auts, words = cat.aut_idx(x), aut_words(cat, x)
        assert len(cat.aut_generators(x)) <= len(auts) == len(words)
        aut = chains._checked_aut(cat, x, groups.GroupMemo(512))
        assert closure_table(aut).shape == (len(auts), len(auts))
        for y in range(cat.n_objects):
            cat.hom_columns(x, y)


def test_radix_codes_refuse_an_entry_beyond_the_radix():
    # (0, 3) in base 3 would carry into the code of (1, 0)
    stack = np.array([[0, 3], [1, 0], [2, 2], [0, -1]])
    assert groups.radix_codes(stack, 3).tolist() == [-1, 3, 8, -1]


# ---------------------------------------------------------------------------
# Aut(x) from one codec pass


BULK_INVERSE_CASES = (
    [(f"finset:{n}:{v}", lambda n=n, v=v: finset.finset_skeleton(n, v))
     for v in ("all", "inj", "surj") for n in range(6)]
    + [(f"vect:{d}:{q}", lambda d=d, q=q: finvect.vect_skeleton(d, q))
       for d, q in ((0, 2), (2, 2), (3, 2), (2, 3), (2, 11), (2, 13), (1, 101))])


@pytest.mark.parametrize("make", [m for _, m in BULK_INVERSE_CASES],
                         ids=[name for name, _ in BULK_INVERSE_CASES])
def test_bulk_inverses_equal_the_per_morphism_search(make):
    # aut_idx reads every inverse from one codec pass per object; each
    # endomorphism's answer, None included, must be the one _find_inverse
    # gives it a morphism at a time
    cat = make()
    for x in range(cat.n_objects):
        auts, ranks = cat.aut_idx(x), cat.aut_inverse_ranks(x)
        want = {m: cat._find_inverse(m) for m in cat.hom_idx(x, x)}
        assert {m: cat._inv[m] for m in want} == want
        assert auts == [m for m, g in want.items() if g is not None]
        assert [auts[r] for r in ranks.tolist()] == [want[a] for a in auts]


class _SpoiledUnits:
    """A hom-set codec whose bulk inverses are spoiled by ``spoil``."""

    def __init__(self, codec, spoil):
        self.codec, self.spoil = codec, spoil

    def __getattr__(self, name):
        return getattr(self.codec, name)

    def units(self, E):
        return self.spoil(self.codec, E)


def _off_by_one(codec, E):
    units, inv = codec.units(E)
    return units, inv + 1


def _off_by_one_within_the_radix(codec, E):
    units, inv = codec.units(E)
    return units, (inv + 1) % codec.radix(E.shape[-1], E.shape[-1])


def _every_unit_its_own_inverse(codec, E):
    units, _ = codec.units(E)
    return units, E[units]


def _one_unit_missed(codec, E):
    # the first unit that is not its own inverse is reported singular
    units, inv = codec.units(E)
    rows = np.flatnonzero(units)
    j = next(j for j, r in enumerate(rows) if not np.array_equal(E[r], inv[j]))
    units[rows[j]] = False
    return units, np.delete(inv, j, axis=0)


@pytest.mark.parametrize("spoil", [_off_by_one, _off_by_one_within_the_radix,
                                   _every_unit_its_own_inverse, _one_unit_missed])
@pytest.mark.parametrize("make", [lambda: finset.finset_skeleton(3),
                                  lambda: finvect.vect_skeleton(2, 3)],
                         ids=["finset:3", "vect:2:3"])
def test_spoiled_bulk_inverses_raise(make, spoil):
    cat = make()
    cat._codec = _SpoiledUnits(cat._codec, spoil)
    with pytest.raises(CategoryError, match="codec inverse is wrong for"):
        cat.aut_idx(cat.n_objects - 1)


@pytest.mark.parametrize("make, level", [(lambda: finvect.vect_skeleton(3, 2), 1),
                                         (lambda: finset.finset_skeleton(4), 2)],
                         ids=["vect:3:2", "finset:4"])
def test_no_endomorphism_is_inverted_one_at_a_time(make, level, monkeypatch):
    # once aut_idx has run, every inverse the engine reads is the one the
    # codec pass recorded
    from cdiag import chains
    want = [(b.objs, b.reps.tolist(), b.orders) for b in chains.level_blocks(make(), level)]
    cat = make()
    search = cat._find_inverse

    def refuse(mi):
        if cat.src[mi] == cat.dst[mi]:
            raise AssertionError(f"_find_inverse called on endomorphism {cat.mor_ids[mi]}")
        return search(mi)

    monkeypatch.setattr(cat, "_find_inverse", refuse)
    for x in range(cat.n_objects):
        cat.aut_idx(x)
    got = [(b.objs, b.reps.tolist(), b.orders) for b in chains.level_blocks(cat, level)]
    assert got == want


# ---------------------------------------------------------------------------
# Word rows a level at a time


def _word_rows_reference(cat, oi, columns, start):
    """The action table along the words, one numpy step per automorphism."""
    words = aut_words(cat, oi)
    rows = np.empty((len(words), len(start)), dtype=columns.dtype)
    rows[words[0][0]] = start
    for a, p, k in words[1:]:
        rows[a] = columns[k][rows[p]]
    return rows


WORD_ROW_CASES = list(ACCEPTANCE_SUITE) + ["vect:3:2", "finset:5"]


@pytest.mark.parametrize("name", WORD_ROW_CASES)
def test_level_batched_word_rows_equal_the_per_word_loop(name):
    cat = builtin_category(name)
    for x in range(cat.n_objects):
        ranks = np.arange(len(cat.aut_idx(x)))
        columns = cat._aut_closure(x)[1]
        ranks = ranks.astype(columns.dtype)
        assert np.array_equal(groups.word_rows(cat._aut_closure(x)[2], columns, ranks),
                              _word_rows_reference(cat, x, columns, ranks))
        for y in range(cat.n_objects):
            hom = cat.hom_idx(x, y)
            if not hom:
                continue
            left, right = cat.hom_columns(x, y)
            every = np.arange(len(hom))
            for positions in (every, every[::-1][::2]):
                on_left, on_right = cat.hom_action_tables(x, y, positions)
                positions = positions.astype(left.dtype)
                assert np.array_equal(on_left, _word_rows_reference(cat, y, left, positions))
                assert np.array_equal(on_right, _word_rows_reference(cat, x, right, positions))


# ---------------------------------------------------------------------------
# Coded categories: the construction checks, and ids and payloads made when read


def _repeat_a_code(codes, codec, x):
    return np.insert(codes, 5, codes[4])


def _swap_two_codes(codes, codec, x):
    return codes[[0, 1, 2, 3, 5, 4, *range(6, len(codes))]]


def _drop_the_identity(codes, codec, x):
    return codes[codes != codec.identity(x)]


def _append_the_bound(codes, codec, x):
    return np.append(codes, len(codes))


def _prepend_a_negative_code(codes, codec, x):
    return np.insert(codes, 0, -1)


CODED_CASES = [(finset._FunctionCodec(), 3, (2, 3)), (finvect._MatrixCodec(2, 3), 2, (1, 2))]


@pytest.mark.parametrize("spoil, message", [
    (_repeat_a_code, r"codes of Hom\({x}, {y}\) do not strictly ascend: 4 before 4"),
    (_swap_two_codes, r"codes of Hom\({x}, {y}\) do not strictly ascend: 5 before 4"),
    (_drop_the_identity, r"no identity for object '{x}'"),
    (_append_the_bound, r"code 9 outside Hom\({x}, {y}\), whose codes are below 9"),
    (_prepend_a_negative_code, r"code -1 outside Hom\({x}, {y}\)"),
], ids=["repeated", "descending", "no identity", "past the bound", "negative"])
@pytest.mark.parametrize("codec, top, hom", CODED_CASES, ids=["finset", "vect"])
def test_a_spoiled_array_builder_is_refused_when_built(codec, top, hom, spoil, message):
    # every hom set holds all its codes but one, spoiled; the identity is
    # dropped from End(x), the others from Hom(x, y), which has 9 codes
    x, y = hom
    codes = [[np.arange(codec.bound(s, d)) for d in range(top + 1)] for s in range(top + 1)]
    s, d = (x, x) if spoil is _drop_the_identity else (x, y)
    codes[s][d] = spoil(codes[s][d], codec, x)
    with pytest.raises(CategoryError, match=message.format(x=x, y=y)):
        FiniteCategory.coded([str(o) for o in range(top + 1)], codes, codec=codec,
                             compose_payload=lambda g, f: None)


def test_the_finset_builder_hands_its_codes_to_the_checks(monkeypatch):
    build = finset._function_codes

    def spoiled(codec, n, m, variant):
        codes = build(codec, n, m, variant)
        return _swap_two_codes(codes, codec, n) if (n, m, variant) == (2, 3, "all") else codes

    monkeypatch.setattr(finset, "_function_codes", spoiled)
    finset.finset_skeleton(3, "surj")
    with pytest.raises(CategoryError, match=r"Hom\(2, 3\) do not strictly ascend"):
        finset.finset_skeleton(3)


@pytest.mark.parametrize("make", [lambda: finset.finset_skeleton(5),
                                  lambda: finset.finset_skeleton(4, "inj"),
                                  lambda: finvect.vect_skeleton(3, 2)],
                         ids=["finset:5", "finset:4:inj", "vect:3:2"])
def test_a_coded_skeleton_makes_ids_and_payloads_when_read(make):
    cat = make()
    blocks = chains.level_blocks(cat, 1)
    made = {"mor_ids", "payloads", "src", "dst", "_midx", "_payload_idx"}
    assert not made & set(vars(cat))
    # a report names its representatives one block at a time
    named = [cat.ids_of(b.reps) for b in blocks]
    one = [cat.payload(int(b.reps[0, 0])) for b in blocks]
    assert not made & set(vars(cat))
    assert named == [[[cat.mor_ids[f] for f in row] for row in b.reps.tolist()] for b in blocks]
    assert one == [cat.payloads[int(b.reps[0, 0])] for b in blocks]
    assert cat.mor_index(named[-1][-1][0]) == int(blocks[-1].reps[-1, 0])
