import numpy as np
import pytest

from cdiag import fincat, groups

# S3 multiplication table over elements indexed by the lexicographic
# permutations of {0,1,2}; row i, column j holds i*j.
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1],
    [4, 5, 1, 0, 3, 2],
    [5, 4, 3, 2, 1, 0],
]


@pytest.fixture(scope="session")
def s3_category():
    return fincat.one_object_group(S3_TABLE, name="S3")


@pytest.fixture(scope="session")
def s2_category():
    return fincat.one_object_group([[0, 1], [1, 0]], name="S2")


@pytest.fixture(scope="session")
def c4_category():
    return fincat.one_object_group(groups.cyclic_table(4), name="C4")


def ladder_act(cat, alpha, mors) -> tuple:
    """The reference ladder action on index tuples: the automorphism tuple
    ``alpha`` = (alpha_0, ..., alpha_n) sends the morphisms ``mors`` =
    (f_1, ..., f_n) to (alpha_1 f_1 alpha_0^-1, ..., alpha_n f_n
    alpha_{n-1}^-1), one ``compose_idx`` at a time."""
    return tuple(cat.compose_idx(alpha[i + 1], cat.compose_idx(f, cat.inverse_idx(alpha[i])))
                 for i, f in enumerate(mors))


def reference_table(stab):
    """The Cayley table of the listed stabilizer ``stab``, its elements in
    sorted order of their Aut(x_i) ranks, with every pair multiplied at once
    coordinate by coordinate in the Aut(x_i) tables and found by binary
    search among the rows' mixed-radix codes: no closure and no fill."""
    cat = stab.cat
    rows = np.array(sorted(tuple(cat.aut_idx(x).index(a) for x, a in zip(stab.objs, el))
                           for el in stab.elements), dtype=np.int64)
    codes = np.zeros(len(rows), dtype=np.int64)
    products = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for x, c in zip(stab.objs, rows.T):
        aut = cat.aut_table(x).astype(np.int64)
        codes = codes * len(aut) + c
        products = products * len(aut) + aut[c[:, None], c[None, :]]
    at = np.minimum(np.searchsorted(codes, products), len(rows) - 1)
    assert np.array_equal(codes[at], products)
    return groups.CayleyTable(at)


def check_subgroup_against_reference(stab, table_limit, memo) -> None:
    """Everything naming reads from ``stab.subgroup``, its table and its
    library name equal those read from ``reference_table(stab)``."""
    sub, ref = stab.subgroup(table_limit, memo), reference_table(stab)
    assert (sub.n, sub.identity) == (ref.n, ref.identity)
    gens, sizes = sub.generating_sequence()
    assert (gens, sizes) == tuple(ref.generating_sequence())
    assert np.array_equal(sub.orders, ref.orders)
    assert sub.element_order_histogram() == ref.element_order_histogram()
    for g in gens:
        assert np.array_equal(sub.column(g), ref.table[:, g])
        assert sub.centralizer_order(g) == ref.centralizer_order(g)
    assert sub.is_abelian() == ref.is_abelian()
    assert np.array_equal(sub.cayley_table().table, ref.table)
    assert memo.name(sub) == groups.match_named(ref, memo.iso_limit, memo)
