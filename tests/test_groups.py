import itertools

import numpy as np
import pytest

from cdiag import finset, groups, modp
from cdiag.cli import builtin_category
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


def quaternion_table():
    """Q8 as a concrete table over 1, i, j, k, -1, -i, -j, -k."""
    mul = [[(0, 0), (0, 1), (0, 2), (0, 3)],
           [(0, 1), (1, 0), (0, 3), (1, 2)],
           [(0, 2), (1, 3), (1, 0), (0, 1)],
           [(0, 3), (0, 2), (1, 1), (1, 0)]]

    def qmul(a, b):
        s, x = mul[a % 4][b % 4]
        return ((s + a // 4 + b // 4) % 2) * 4 + x

    return table_from_elements(list(range(8)), qmul)


def relabelled(t, seed):
    """``t`` with its elements renamed by a random permutation that moves
    the identity off index 0."""
    perm = np.random.default_rng(seed).permutation(t.n)
    if perm[t.identity] == 0:
        perm[[t.identity, (t.identity + 1) % t.n]] = perm[[(t.identity + 1) % t.n, t.identity]]
    table = np.empty_like(t.table)
    table[np.ix_(perm, perm)] = perm[t.table]
    out = CayleyTable(table)
    assert out.identity == perm[t.identity] != 0
    return out


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


def test_an_element_without_a_finite_order_fails_associativity():
    # closed, unital, identity in every row, but the powers of 3 stay 3:
    # in a group every element has a finite order
    with pytest.raises(GroupError, match="associativity"):
        CayleyTable([[0, 1, 2, 3], [1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 3]])


@pytest.mark.parametrize("n", [1, 2, 6, 256, 257, 720])
def test_cyclic_table_is_addition_mod_n(n):
    t = cyclic_table(n)
    assert t.table.dtype == np.min_scalar_type(n - 1) and t.identity == 0 and t.label == f"C{n}"
    assert t.table.tolist() == [[(i + j) % n for j in range(n)] for i in range(n)]


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
    _, _, levels = greedy_closure(candidates, compose, identity, order, tree=True)
    return table_from_elements([y for level in levels for y, _, _ in level], compose)


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
    gens, sizes, levels = greedy_closure([0, 4, 8, 6, 3, 1], lambda a, b: (a + b) % 12, 0, 12,
                                         tree=True)
    assert gens == [4, 6, 3]
    assert sizes == [3, 6, 12]
    # the closure's breadth-first tree: every element once, each one
    # generator after a parent in an earlier level
    assert levels[0] == [(0, -1, -1)]
    assert sorted(y for level in levels for y, _, _ in level) == list(range(12))
    earlier = {0}
    for level in levels[1:]:
        assert level and all(y == (x + gens[k]) % 12 and x in earlier for y, x, k in level)
        earlier.update(y for y, _, _ in level)
    # a kept generator extends the closure from its members, not from the
    # identity: 6 after each of 0, 4 and 8, whose levels are 0, 1 and 2
    assert levels[3] == [(6, 0, 1), (10, 4, 1), (2, 8, 1)]
    # without the tree the generators and sizes are the same
    assert greedy_closure([0, 4, 8, 6, 3, 1], lambda a, b: (a + b) % 12, 0, 12) == \
        (gens, sizes, None)


def restarting_closure(candidates, compose, identity, order):
    """Reference: the greedy closure rebuilt breadth first from the
    identity after each kept candidate; (generators, sizes)."""
    gens, sizes, seen = [], [], {identity}
    for c in candidates:
        if c in seen:
            continue
        gens.append(c)
        seen, frontier = {identity}, [identity]
        while frontier:
            new = []
            for g in gens:
                for x in frontier:
                    y = compose(x, g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        sizes.append(len(seen))
    assert len(seen) == order
    return gens, sizes


def assert_closures_agree(candidates, compose, identity, order):
    gens, sizes, levels = greedy_closure(candidates, compose, identity, order, tree=True)
    assert (gens, sizes) == restarting_closure(candidates, compose, identity, order)
    earlier = {identity}
    for level in levels[1:]:
        assert all(x in earlier and compose(x, gens[k]) == y for y, x, k in level)
        earlier.update(y for y, _, _ in level)
    assert len(earlier) == sum(map(len, levels)) == order


@pytest.mark.parametrize("name", ["finset:4", "vect:2:3", "vect:3:2", "group:S4"])
def test_extending_closure_equals_the_restarting_one_on_aut_groups(name):
    cat = builtin_category(name)
    for x in range(cat.n_objects):
        auts = cat.aut_idx(x)
        rank = {a: r for r, a in enumerate(auts)}
        assert_closures_agree(range(len(auts)), lambda a, g: rank[cat.compose_idx(auts[g], auts[a])],
                              auts.index(cat.identity_idx[x]), len(auts))


def test_generating_sequence_is_unchanged():
    assert materialize(Symmetric(4)).generating_sequence() == ([9, 10], [4, 24])
    assert materialize(Wreath(Symmetric(2), 3)).generating_sequence() == \
        ([9, 10, 7], [6, 24, 48])


CLOSURE_EXPRS = [Symmetric(4), GeneralLinear(2, 3), Wreath(Symmetric(2), 3),
                 Wreath(Symmetric(3), 2),
                 Product([Wreath(Symmetric(2), 2), Symmetric(3), FieldAdditive(2)])]
CLOSURE_POOL = {e.text(): lambda e=e: materialize(e) for e in CLOSURE_EXPRS}
CLOSURE_POOL["C3 x S3 x C2"] = lambda: product_table([cyclic_table(3), materialize(Symmetric(3)),
                                                      cyclic_table(2)])


@pytest.mark.parametrize("make", CLOSURE_POOL.values(), ids=CLOSURE_POOL.keys())
def test_column_closures_equal_the_per_pair_reference(make, monkeypatch):
    # Light's test and the isomorphism search share one closure per table,
    # generating_sequence's, which reads products from table columns; it
    # must equal a closure run on CayleyTable.mul
    calls, closure = [], groups.greedy_closure

    def spy(candidates, compose, identity, order):
        candidates = list(candidates)
        calls.append((candidates, closure(candidates, compose, identity, order)))
        return calls[-1][1]

    table = make().table
    monkeypatch.setattr(groups, "greedy_closure", spy)
    t = CayleyTable(table)
    gens, sizes = t.generating_sequence()
    assert t.generating_sequence() == (gens, sizes)
    assert len(calls) == 1
    candidates, got = calls[0]
    assert candidates == np.argsort(-t.orders, kind="stable").tolist()
    assert got == closure(candidates, t.mul, t.identity, t.n)
    assert (gens, sizes) == got[:2]


@pytest.mark.parametrize("make", CLOSURE_POOL.values(), ids=CLOSURE_POOL.keys())
def test_extending_closure_equals_the_restarting_one_on_tables(make):
    t = make()
    assert_closures_agree(np.argsort(-t.orders, kind="stable").tolist(), t.mul, t.identity, t.n)
    assert_closures_agree(range(t.n), t.mul, t.identity, t.n)


def subexpressions(expr):
    """``expr`` and every expression whose table its table is built from."""
    yield expr
    if isinstance(expr, Product):
        for f in expr.factors:
            yield from subexpressions(f)
    if isinstance(expr, Wreath):
        if expr.k and expr.base.order() > 1:
            yield from subexpressions(expr.base)
        yield Symmetric(expr.k)


def test_memoized_tables_equal_tables_built_without_a_memo():
    # one memo across every profile of finset:5 and the closure pool, so
    # that sub-expression tables are shared between expressions
    exprs = [p.group_expr() for n in range(6) for m in range(6)
             for p in finset.enumerate_profiles(n, m)] + CLOSURE_EXPRS
    memo = groups.GroupMemo(512)
    for expr in exprs:
        got, want = materialize(expr, memo=memo).table, materialize(expr).table
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        for sub in subexpressions(expr):
            assert ("expr", sub.text()) in memo._done       # built on the way
            got, want = memo.expr_table(sub), groups._expr_table(sub)
            assert (got.dtype, got.shape, got.tobytes()) == \
                (want.dtype, want.shape, want.tobytes()), sub.text()


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
       Product([Wreath(Symmetric(2), 2), Symmetric(3), FieldAdditive(2)]),
       # factors whose identity is not element 0
       Wreath(GeneralLinear(2, 2), 2), Product([GeneralLinear(2, 2), FieldUnits(3)]),
       Wreath(FieldUnits(5), 2)]
    + [GeneralLinear(n, q) for n, q in ((1, 2), (1, 7), (2, 2), (2, 3), (3, 2))]
    + [FieldUnits(q) for q in (2, 3, 7)] + [FieldAdditive(q) for q in (2, 5)]
)


@pytest.mark.parametrize("expr", REFERENCE_EXPRS, ids=lambda e: e.text())
def test_materialize_equals_per_pair_reference(expr):
    els, mul = reference_carrier(expr)
    assert np.array_equal(materialize(expr).table, table_from_elements(els, mul).table)


def test_code_finder_locates_codes_and_misses_the_rest():
    find = groups.code_finder([7, 3, -1, 5])
    # 4 and 8 are not among the codes, and a negative code is never found
    assert find(np.array([3, 5, 7, 4, 8, -1])).tolist() == [1, 3, 0, -1, -1, -1]
    assert groups.code_finder([])(np.array([0, -1])).tolist() == [-1, -1]


def test_materialize_refuses_an_element_set_that_is_not_closed(monkeypatch):
    full = modp.general_linear(2, 2)
    for drop in range(len(full)):       # the identity, (1 0; 0 1), is element 2
        monkeypatch.setattr(modp, "general_linear", lambda n, q: full[:drop] + full[drop + 1:])
        with pytest.raises(GroupError, match="^element set is not closed under the product$"):
            materialize(GeneralLinear(2, 2))


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
    c6 = cyclic_table(6).table
    # {0, 1}; {1, 3, 5}, which holds no identity; and {0, 3, 1, 4}, which
    # 3 + x keeps and only the second generator, 1, leaves
    for tables, coords in (([c4], [[0], [1]]), ([c6], [[1], [3], [5]]),
                           ([c6], [[0], [3], [1], [4]])):
        with pytest.raises(GroupError, match="^element set is not closed under the product$"):
            groups.table_in_product(tables, coords)


def generated_coords(tables, gens):
    """The coordinate tuples of the subgroup of the product of ``tables``
    generated by ``gens``, closed one Python product per pair."""
    def mul(a, b):
        return tuple(int(t[x, y]) for t, x, y in zip(tables, a, b))

    els = {tuple(int(np.flatnonzero(t[:, 0] == 0)[0]) for t in tables)}
    frontier = list(els)
    while frontier:
        frontier = [y for y in {mul(g, x) for g in gens for x in frontier} if y not in els]
        els.update(frontier)
    return sorted(els), mul


SUBGROUP_CASES = {
    # S4 (uint8) x C17 x C17 (uint16): 408 elements
    "S4 x C17^2": ([materialize(Symmetric(4)).table, product_table([cyclic_table(17)] * 2).table],
                   [(9, 17), (1, 0)]),
    # C20 (uint8) x S4 (uint8) x C300 (uint16): 288 elements, a uint16 table
    "C20 x S4 x C300": ([cyclic_table(20).table, materialize(Symmetric(4)).table,
                         cyclic_table(300).table], [(5, 9, 0), (0, 10, 100)]),
}


@pytest.mark.parametrize("case", SUBGROUP_CASES.values(), ids=SUBGROUP_CASES.keys())
def test_subgroups_of_products_in_shuffled_order_equal_the_per_pair_reference(case):
    tables, gens = case
    els, mul = generated_coords(tables, gens)
    assert 1 < len(els) < np.prod([len(t) for t in tables])
    for seed in range(3):
        shuffled = [els[i] for i in np.random.default_rng(seed).permutation(len(els))]
        got = groups.table_in_product(tables, shuffled)
        ref = table_from_elements(shuffled, mul)
        assert got.table.dtype == ref.table.dtype
        assert np.array_equal(got.table, ref.table)
        assert got.identity == ref.identity


def test_table_in_product_widens_narrow_factor_tables():
    # codes reach 20 * 30 - 1 = 599; under NumPy 1.x value-based casting a
    # stride times a uint8 block would stay uint8 and wrap
    tables = [cyclic_table(20).table.astype(np.int64), cyclic_table(30).table.astype(np.int64)]
    coords = list(itertools.product(range(20), range(30)))
    want = groups.table_in_product(tables, coords).table
    narrow = [tables[0].astype(np.uint8), tables[1].astype(np.uint16)]
    assert np.array_equal(groups.table_in_product(narrow, coords).table, want)


# ---------------------------------------------------------------------------
# Narrow tables


NARROW_CASES = {
    "1": lambda: materialize(Trivial()),
    "C256": lambda: cyclic_table(256),
    "C257": lambda: cyclic_table(257),
    "S6": lambda: materialize(Symmetric(6)),
    "U(7)": lambda: materialize(FieldUnits(7)),
    "A(5)": lambda: materialize(FieldAdditive(5)),
    "GL(2,3)": lambda: materialize(GeneralLinear(2, 3)),
    "C17 x C17": lambda: product_table([cyclic_table(17)] * 2),
    "A(13) wr S2": lambda: materialize(Wreath(FieldAdditive(13), 2)),
    "in product": lambda: groups.table_in_product(
        [cyclic_table(20).table] * 2, list(itertools.product(range(0, 20, 2), repeat=2))),
    "from elements": lambda: table_from_elements(list(range(300)), lambda a, b: (a + b) % 300),
}


@pytest.mark.parametrize("make", NARROW_CASES.values(), ids=NARROW_CASES.keys())
def test_table_takes_the_smallest_dtype_that_holds_an_index(make):
    t = make()
    assert t.table.dtype == np.min_scalar_type(t.n - 1)


@pytest.mark.parametrize("expr", [Product([FieldAdditive(17)] * 2), Wreath(FieldAdditive(13), 2),
                                  Product([Symmetric(5), FieldAdditive(3)])],
                         ids=lambda e: e.text())
def test_uint8_factors_give_a_uint16_table_equal_to_the_reference(expr):
    els, mul = reference_carrier(expr)
    got = materialize(expr)
    assert got.table.dtype == np.uint16
    assert np.array_equal(got.table, table_from_elements(els, mul).table)


def test_product_of_uint8_tables_equals_per_pair_reference():
    c17 = cyclic_table(17)
    assert c17.table.dtype == np.uint8
    els = list(itertools.product(range(17), repeat=2))
    ref = table_from_elements(els, lambda a, b: ((a[0] + b[0]) % 17, (a[1] + b[1]) % 17))
    got = product_table([c17] * 2)
    assert got.table.dtype == np.uint16
    assert np.array_equal(got.table, ref.table)


def test_range_check_runs_before_the_narrowing_cast():
    # -1 would wrap to 255, a valid index of a 256-element uint8 table
    t = cyclic_table(256).table.astype(np.int64)
    t[3, 5] = -1
    with pytest.raises(GroupError, match="out of range"):
        CayleyTable(t)


@pytest.mark.parametrize("make", [lambda: materialize(Symmetric(4)),
                                  lambda: product_table([cyclic_table(17)] * 2)],
                         ids=["S4 uint8", "C17 x C17 uint16"])
def test_light_test_fails_on_a_narrow_table_with_one_spoiled_entry(make):
    t = make().table.copy()
    # swap two entries of row 1 away from the identity: every row still
    # holds the identity, so only associativity can fail
    cols = [j for j in range(1, len(t)) if t[1, j] != 0][:2]
    t[1, cols] = t[1, cols[::-1]]
    with pytest.raises(GroupError, match="associativity"):
        CayleyTable(t, identity=0)


def test_element_orders_are_one_array_and_bounded():
    def power_order(t, x):      # one element at a time, as a reference
        k, y = 1, x
        while y != t.identity:
            y, k = t.mul(y, x), k + 1
        return k

    for t in (materialize(Symmetric(4)), materialize(Wreath(Symmetric(2), 3)), cyclic_table(12)):
        assert t.orders.tolist() == [power_order(t, x) for x in range(t.n)]
        assert t.orders is t.orders
    # not a group (the axioms would refuse it): 1 * 1 = 2 and 2 * 1 = 1,
    # so the powers of 1 never reach 0
    t = cyclic_table(3)
    t.table, t._orders = np.array([[0, 1, 2], [1, 2, 1], [2, 1, 0]], dtype=np.uint8), None
    with pytest.raises(GroupError, match="no power"):
        t.orders


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
    assert are_isomorphic(d4, quaternion_table()) is False


def test_iso_exhausts_the_backtracking_when_every_prefilter_passes():
    # C4 x| C4 (the second factor inverts the first) and C2 x Q8 share
    # abelianness, the order histogram and the centralizer orders, so only
    # the search itself can tell them apart
    c4c4 = table_from_elements(
        list(itertools.product(range(4), repeat=2)),
        lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4))
    c2q8 = product_table([cyclic_table(2), quaternion_table()])
    for t in (c4c4, c2q8):
        assert not t.is_abelian()
        assert t.element_order_histogram() == {1: 1, 2: 3, 4: 12}
        assert sorted(t.centralizer_orders().tolist()) == [8] * 12 + [16] * 4
    assert are_isomorphic(c4c4, c2q8) is False
    assert are_isomorphic(c2q8, c4c4) is False
    for seed, t in enumerate((c4c4, c2q8)):
        moved = relabelled(t, seed)
        assert are_isomorphic(t, moved) is True
        assert are_isomorphic(moved, t) is True


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
    assert match_named(quaternion_table()) is None
