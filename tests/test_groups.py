import itertools

import numpy as np
import pytest

from cdiag import groups, modp
from cdiag.groups import (CayleyTable, ClosureLimitExceeded, FieldAdditive,
                          FieldUnits, GeneralLinear, GroupError, Product,
                          Symmetric, Trivial, Wreath, are_isomorphic,
                          cyclic_table, greedy_closure, match_named,
                          materialize, product_table, table_from_elements)


# ---------------------------------------------------------------------------
# Oracles


def tree_aut_closure_order(n, m):
    """Independent oracle: order of the automorphism group of the height-2
    tree with m middle vertices bearing n leaves each, by closing vertex
    permutations that preserve adjacency."""
    size = m + m * n
    idt = tuple(range(size))
    gens = []
    for a in range(m - 1):
        p = list(idt)
        b = a + 1
        p[a], p[b] = b, a
        for j in range(n):
            p[m + a * n + j] = m + b * n + j
            p[m + b * n + j] = m + a * n + j
        gens.append(tuple(p))
    for a in range(m):
        for j in range(n - 1):
            p = list(idt)
            u, v = m + a * n + j, m + a * n + j + 1
            p[u], p[v] = v, u
            gens.append(tuple(p))
    els = {idt}
    bdy = [idt]
    while bdy:
        new = []
        for g in gens:
            for x in bdy:
                y = tuple(x[g[i]] for i in range(size))
                if y not in els:
                    els.add(y)
                    new.append(y)
        bdy = new
    return len(els)


def count_invertible_2x2(q):
    """Independent oracle: invertible 2x2 matrices over F_q by determinant."""
    cnt = 0
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if (a * d - b * c) % q:
            cnt += 1
    return cnt


# ---------------------------------------------------------------------------
# Orders


def test_symmetric_degenerate_orders():
    assert Symmetric(0).order() == 1
    assert Symmetric(1).order() == 1


def test_wreath_order_cross_checked_by_tree_closure():
    assert Wreath(Symmetric(3), 4).order() == 31104
    assert tree_aut_closure_order(3, 4) == 31104
    assert tree_aut_closure_order(2, 2) == 8


def test_product_of_wreaths_order():
    expr = Product([Wreath(Symmetric(2), 2), Wreath(Symmetric(4), 2)])
    assert expr.order() == 9216


def test_gl_order_brute_force():
    assert GeneralLinear(2, 2).order() == 6 == count_invertible_2x2(2)
    assert GeneralLinear(2, 3).order() == 48 == count_invertible_2x2(3)
    assert GeneralLinear(2, 5).order() == 480 == count_invertible_2x2(5)


def test_field_group_orders():
    assert FieldUnits(7).order() == 6
    assert FieldAdditive(7).order() == 7
    with pytest.raises(GroupError):
        FieldUnits(6)
    with pytest.raises(GroupError):
        GeneralLinear(2, 4)


def test_expr_text_forms():
    assert Wreath(Symmetric(3), 4).text() == "S3 wr S4"
    assert GeneralLinear(2, 3).text() == "GL(2,3)"
    assert FieldUnits(5).text() == "U(5)"
    assert FieldAdditive(5).text() == "A(5)"
    expr = Product([Wreath(Symmetric(2), 2), Wreath(Symmetric(4), 2)])
    assert expr.text() == "(S2 wr S2) x (S4 wr S2)"
    assert Trivial().text() == "1"


# ---------------------------------------------------------------------------
# Cayley tables


def test_table_axioms_checked():
    with pytest.raises(GroupError):
        CayleyTable([[0, 0], [0, 0]])                     # 1 has no inverse
    with pytest.raises(GroupError):
        CayleyTable([[0, 1], [1, 2]])                     # not closed
    with pytest.raises(GroupError, match="associativity"):
        # closed, unital, identity in every row, but (1*1)*2 != 1*(1*2)
        CayleyTable([[0, 1, 2], [1, 0, 0], [2, 0, 0]])


def test_element_orders_and_abelian():
    t = cyclic_table(6)
    assert t.element_order(1) == 6
    assert t.is_abelian()
    s3 = materialize(Symmetric(3))
    assert not s3.is_abelian()
    assert s3.element_order_histogram() == {1: 1, 2: 3, 3: 2}


@pytest.mark.parametrize("expr", [Symmetric(3), Symmetric(4), Wreath(Symmetric(2), 3),
                                  Product([Symmetric(3), FieldUnits(5)])],
                         ids=lambda e: e.text())
def test_centralizer_orders_by_hand(expr):
    t = materialize(expr)
    want = [sum(t.mul(g, x) == t.mul(x, g) for g in range(t.n)) for x in range(t.n)]
    assert t.centralizer_orders().tolist() == want
    assert cyclic_table(6).centralizer_orders().tolist() == [6] * 6


# ---------------------------------------------------------------------------
# Greedy closure


def closed_table(candidates, compose, identity, order):
    _, _, els = greedy_closure(candidates, compose, identity, order)
    return table_from_elements(els, compose)


def test_closure_empty_generators():
    t = closed_table([], lambda a, b: (a + b) % 5, 0, 1)
    assert t.n == 1


def test_closure_single_generator_cyclic():
    t = closed_table([1], lambda a, b: (a + b) % 3, 0, 3)
    assert t.n == 3
    assert are_isomorphic(t, cyclic_table(3))


def test_closure_product_of_two_aut_groups():
    # Aut(x) x Aut(y), both of order 2, generated by the coordinate swaps
    def comp(a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)

    t = closed_table([(1, 0), (0, 1)], comp, (0, 0), 4)
    assert t.n == 4
    assert t.is_abelian()


def test_closure_limit():
    # the closure overshoots the stated order
    with pytest.raises(ClosureLimitExceeded) as err:
        greedy_closure([1], lambda a, b: (a + b) % 100, 0, 10)
    assert err.value.reached == 11
    # the closure reaches the stated order, but a later candidate lies outside
    with pytest.raises(GroupError, match="outside the closure of 2 elements"):
        greedy_closure([3, 1], lambda a, b: (a + b) % 6, 0, 2)


def test_closure_stops_short_of_the_order():
    with pytest.raises(GroupError, match="generate 3 elements, not 6"):
        greedy_closure([2, 4], lambda a, b: (a + b) % 6, 0, 6)
    with pytest.raises(GroupError, match="generate 1 elements, not 5"):
        greedy_closure([], lambda a, b: (a + b) % 5, 0, 5)


def test_greedy_closure_keeps_only_growing_candidates():
    # Z/12: 4 generates {0,4,8}; 8 is already inside; 6 grows it to 6
    # elements; 3 completes it; 1 is never reached
    gens, sizes, els = greedy_closure([0, 4, 8, 6, 3, 1], lambda a, b: (a + b) % 12, 0, 12)
    assert gens == [4, 6, 3]
    assert sizes == [3, 6, 12]
    assert els[0] == 0 and sorted(els) == list(range(12))


def test_generating_sequence_is_unchanged():
    assert materialize(Symmetric(4)).generating_sequence() == ([9, 10], [4, 24])
    assert materialize(Wreath(Symmetric(2), 3)).generating_sequence() == \
        ([9, 10, 7], [6, 24, 48])


# ---------------------------------------------------------------------------
# Materialization


def test_materialize_trivial():
    assert materialize(Trivial()).n == 1


def test_materialize_wreath_s1_s2_is_s2():
    t = materialize(Wreath(Symmetric(1), 2))
    assert t.n == 2
    assert are_isomorphic(t, materialize(Symmetric(2)))


def test_materialize_wreath_s2_s2_is_tree_group():
    t = materialize(Wreath(Symmetric(2), 2))
    assert t.n == 8 and not t.is_abelian()
    # leaf-permutation closure of the 4-leaf, 2-middle tree
    leaves = [0, 1, 2, 3]
    idt = (0, 1, 2, 3)
    gens = [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]
    els = [idt]
    seen = {idt}
    bdy = [idt]
    while bdy:
        new = []
        for g in gens:
            for x in bdy:
                y = tuple(x[g[i]] for i in leaves)
                if y not in seen:
                    seen.add(y)
                    els.append(y)
                    new.append(y)
        bdy = new
    tree = table_from_elements(els, lambda a, b: tuple(a[b[i]] for i in leaves))
    assert tree.n == 8
    assert are_isomorphic(t, tree)


def test_materialize_respects_table_limit():
    with pytest.raises(ClosureLimitExceeded):
        materialize(Symmetric(5), table_limit=100)


def test_materialize_order_matches_symbolic_order():
    pool = [
        Trivial(), Symmetric(3), Symmetric(4), GeneralLinear(2, 2),
        GeneralLinear(2, 3), FieldUnits(5), FieldAdditive(3),
        Product([Symmetric(3), FieldAdditive(2)]),
        Wreath(Symmetric(2), 2), Wreath(Symmetric(2), 3),
        Wreath(Trivial(), 3), Product([Wreath(Symmetric(2), 2), Symmetric(3)]),
    ]
    for expr in pool:
        assert materialize(expr).n == expr.order(), expr.text()


def reference_carrier(expr):
    """(elements, mul) of an expression, one Python call per product: the
    per-pair reference that ``materialize`` must reproduce exactly."""
    if isinstance(expr, Trivial):
        return [0], lambda a, b: 0
    if isinstance(expr, Symmetric):
        return (list(itertools.permutations(range(expr.n))),
                lambda a, b: tuple(a[i] for i in b))
    if isinstance(expr, GeneralLinear):
        q = expr.q
        return modp.general_linear(expr.n, q), lambda a, b: modp.mul(a, b, q)
    if isinstance(expr, FieldUnits):
        q = expr.q
        return list(range(1, q)), lambda a, b: a * b % q
    if isinstance(expr, FieldAdditive):
        q = expr.q
        return list(range(q)), lambda a, b: (a + b) % q
    if isinstance(expr, Product):
        parts = [reference_carrier(f) for f in expr.factors]
        els = list(itertools.product(*(p[0] for p in parts)))
        return els, lambda a, b: tuple(p[1](x, y) for p, x, y in zip(parts, a, b))
    if isinstance(expr, Wreath):
        bels, bmul = reference_carrier(expr.base)
        k = expr.k
        perms = list(itertools.permutations(range(k)))
        els = [(f, s) for f in itertools.product(bels, repeat=k) for s in perms]

        def mul(a, b):
            (f, sig), (g, tau) = a, b
            inv = [sig.index(i) for i in range(k)]
            return (tuple(bmul(f[i], g[inv[i]]) for i in range(k)),
                    tuple(sig[t] for t in tau))

        return els, mul
    raise AssertionError(expr)


REFERENCE_EXPRS = (
    [Trivial()] + [Symmetric(n) for n in range(6)]
    + [Wreath(Symmetric(3), 0), Wreath(Symmetric(4), 1), Wreath(Symmetric(2), 3),
       Wreath(Symmetric(3), 2), Wreath(Trivial(), 3),
       Wreath(Wreath(Symmetric(2), 2), 2),
       Wreath(Product([Symmetric(2), FieldAdditive(3)]), 2),
       Product([]), Product([Symmetric(3)]),
       Product([Symmetric(3), FieldUnits(5), Wreath(Symmetric(1), 3)]),
       Product([Wreath(Symmetric(2), 2), Symmetric(3), FieldAdditive(2)])]
    + [GeneralLinear(n, q) for n, q in ((1, 2), (1, 7), (2, 2), (2, 3), (3, 2))]
    + [FieldUnits(q) for q in (2, 3, 7)] + [FieldAdditive(q) for q in (2, 5)]
)


@pytest.mark.parametrize("expr", REFERENCE_EXPRS, ids=lambda e: e.text())
def test_materialize_equals_per_pair_reference(expr):
    els, mul = reference_carrier(expr)
    assert np.array_equal(materialize(expr).table, table_from_elements(els, mul).table)


def test_product_table_equals_per_pair_reference():
    tables = [cyclic_table(3), materialize(Symmetric(3)), cyclic_table(2)]
    els = list(itertools.product(*(range(t.n) for t in tables)))
    ref = table_from_elements(
        els, lambda a, b: tuple(t.mul(x, y) for t, x, y in zip(tables, a, b)))
    got = product_table(tables)
    assert np.array_equal(got.table, ref.table)
    assert got.identity == ref.identity
    assert product_table([]).n == 1


def test_table_in_product_rejects_a_set_that_is_not_closed():
    c4 = cyclic_table(4).table
    assert groups.table_in_product([c4], [[0], [2]]).n == 2
    with pytest.raises(GroupError, match="not closed"):
        groups.table_in_product([c4], [[0], [1]])


def test_table_in_product_widens_narrow_factor_tables():
    # codes reach 20 * 30 - 1 = 599; under NumPy 1.x value-based casting a
    # stride times a uint8 block would stay uint8 and wrap
    tables = [cyclic_table(20).table, cyclic_table(30).table]
    coords = list(itertools.product(range(20), range(30)))
    want = groups.table_in_product(tables, coords).table
    narrow = [tables[0].astype(np.uint8), tables[1].astype(np.uint16)]
    assert np.array_equal(groups.table_in_product(narrow, coords).table, want)


# ---------------------------------------------------------------------------
# Isomorphism testing


def test_iso_rejects_s3_vs_c6():
    assert are_isomorphic(materialize(Symmetric(3)), cyclic_table(6)) is False


def test_iso_reflexive_and_symmetric_on_pool():
    pool = [cyclic_table(4), product_table([cyclic_table(2), cyclic_table(2)]),
            materialize(Symmetric(3)), cyclic_table(6),
            product_table([cyclic_table(2), cyclic_table(3)]),
            materialize(Wreath(Symmetric(2), 2)), cyclic_table(8)]
    for t in pool:
        assert are_isomorphic(t, t) is True
    for a in pool:
        for b in pool:
            assert are_isomorphic(a, b) == are_isomorphic(b, a)


def test_iso_c6_vs_c2xc3():
    assert are_isomorphic(cyclic_table(6),
                          product_table([cyclic_table(2), cyclic_table(3)])) is True


def test_iso_c4_vs_klein():
    assert are_isomorphic(cyclic_table(4),
                          product_table([cyclic_table(2), cyclic_table(2)])) is False


def test_iso_dihedral_vs_quaternion_order8():
    d4 = materialize(Wreath(Symmetric(2), 2))
    # quaternion group as a concrete table over 1,i,j,k,-1,-i,-j,-k
    def qmul(a, b):
        sa, xa = a // 4, a % 4
        sb, xb = b // 4, b % 4
        mul = [[(0, 0), (0, 1), (0, 2), (0, 3)],
               [(0, 1), (1, 0), (0, 3), (1, 2)],
               [(0, 2), (1, 3), (1, 0), (0, 1)],
               [(0, 3), (0, 2), (1, 1), (1, 0)]]
        s, x = mul[xa][xb]
        return ((s + sa + sb) % 2) * 4 + x
    q8 = table_from_elements(list(range(8)), qmul)
    assert are_isomorphic(d4, q8) is False


def test_iso_undecided_above_limit():
    t = cyclic_table(13)
    assert are_isomorphic(t, t, iso_limit=12) is None


def test_iso_diag_stabilizer_q2_is_elementary_abelian():
    # the 2x2 rank-1 stabilizer over F_2 as pairs of matrices
    from cdiag import modp
    q = 2
    els = [(((w, b), (0, d)), ((w, 0), (y, z)))
           for w in (1,) for b in range(2) for d in (1,)
           for y in range(2) for z in (1,)]

    def mul(e1, e2):
        (c1, d1), (c2, d2) = e1, e2
        return (modp.mul(c1, c2, q), modp.mul(d1, d2, q))

    t = table_from_elements(els, mul)
    want = materialize(Product([FieldUnits(2), FieldUnits(2), FieldUnits(2),
                                FieldAdditive(2), FieldAdditive(2)]))
    assert t.n == want.n == 4
    assert are_isomorphic(t, want) is True


# ---------------------------------------------------------------------------
# Named library


def test_match_named_basics():
    assert match_named(cyclic_table(1)) == "1"
    assert match_named(materialize(Symmetric(3))) in ("S3",)
    assert match_named(cyclic_table(4)) == "C4"
    assert match_named(product_table([cyclic_table(2), cyclic_table(2)])) == "C2 x C2"
    assert match_named(materialize(Symmetric(5))) == "S5"


def test_match_named_products():
    t = product_table([materialize(Symmetric(3)), cyclic_table(2)])
    label = match_named(t)
    assert label is not None
    # D6 of order 12 has several names; the matched label must reproduce it
    atoms = {name: make for name, _, make in groups._ATOMS}
    rebuilt = product_table([atoms[name]() for name in label.split(" x ")])
    assert are_isomorphic(t, rebuilt) is True


def test_match_named_returns_none_for_unlisted():
    q8 = None
    def qmul(a, b):
        sa, xa = a // 4, a % 4
        sb, xb = b // 4, b % 4
        mul = [[(0, 0), (0, 1), (0, 2), (0, 3)],
               [(0, 1), (1, 0), (0, 3), (1, 2)],
               [(0, 2), (1, 3), (1, 0), (0, 1)],
               [(0, 3), (0, 2), (1, 1), (1, 0)]]
        s, x = mul[xa][xb]
        return ((s + sa + sb) % 2) * 4 + x
    q8 = table_from_elements(list(range(8)), qmul)
    assert match_named(q8) is None
