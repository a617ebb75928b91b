from dataclasses import dataclass

import numpy as np
import pytest

from cdiag import fincat, groups, modp
from cdiag.fincat import CategoryError
from cdiag.groups import CayleyTable, GroupError

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


# ---------------------------------------------------------------------------
# References that no command reads: each one built the plain way, pair by pair


def table_from_elements(els: list, compose, label: str = "") -> CayleyTable:
    """The checked Cayley table of the distinct elements ``els`` under
    ``compose``, one product per pair."""
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    table = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(els):
        row = table[i]
        for j, b in enumerate(els):
            row[j] = idx[compose(a, b)]
    return CayleyTable(table, label=label)


def aut_reference(cat, x) -> np.ndarray:
    """The Cayley table of Aut(x) on the ranks of ``cat.aut_idx(x)``, every
    pair composed by ``compose_idx``: no closure and no words."""
    return table_from_elements(cat.aut_idx(x), cat.compose_idx).table


def aut_words(cat, x) -> list:
    """Every automorphism of x as a left word in ``cat.aut_generators(x)``,
    read from the tree of its closure: (element, parent, generator) triples
    in breadth-first order from the identity, (identity, -1, -1), each
    element that generator after the parent, elements and parents as ranks
    in ``cat.aut_idx(x)``."""
    _, root, levels = cat._aut_closure(x)[2]
    return [(root, -1, -1)] + [tuple(map(int, w)) for level in levels
                               for w in (level if isinstance(level, list) else zip(*level))]


def closure_group(table) -> groups.ClosureGroup:
    """The group of the Cayley table ``table`` as a checked
    ``groups.ClosureGroup`` on the table's own indices, from one greedy
    closure over its rows."""
    table = np.asarray(table)
    identity = int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])
    _, levels, columns = groups.closure_columns(len(table), lambda g: table[g], identity)
    return groups.ClosureGroup(columns, groups.word_levels(levels))


def closure_table(group) -> np.ndarray:
    """Every product of a ``groups.ClosureGroup``, read through its
    columns: row x, column a holds x * a."""
    return group.columns(np.arange(group.n)).T


def spoiled_aut_columns(monkeypatch, size, spoil):
    """Make ``FiniteCategory._aut_closure`` give, for every object whose
    Aut(x) has ``size`` elements, a copy of its generator columns changed
    by ``spoil(columns, tree)``; the generators and words stay."""
    real = fincat.FiniteCategory._aut_closure

    def closure(cat, x):
        gens, columns, tree = real(cat, x)
        if columns.shape[1] == size:
            columns = columns.copy()
            spoil(columns, tree)
        return gens, columns, tree
    monkeypatch.setattr(fincat.FiniteCategory, "_aut_closure", closure)


def repeated_image(columns, tree):
    """The first generator sends two points to one image."""
    columns[0, 1] = columns[0, 0]


def same_presentation(cat, other) -> bool:
    """Structural equality: same ids in the same order, same composition.
    Enumerates all composable pairs, so use on desk-scale categories."""
    if (cat.objects != other.objects or cat.mor_ids != other.mor_ids
            or cat.src != other.src or cat.dst != other.dst
            or cat.identity_idx != other.identity_idx):
        return False
    return all(cat.compose_idx(gi, fi) == other.compose_idx(gi, fi)
               for fi in range(cat.n_morphisms) for gi in cat.morphisms_from_idx(cat.dst[fi]))


@dataclass(frozen=True)
class MatrixFq:
    """An m x n matrix over F_q representing a morphism F^n -> F^m."""

    q: int
    rows: tuple    # m row tuples of length n

    def __post_init__(self):
        if not modp.is_prime(self.q):
            raise GroupError(f"q={self.q} is not prime")
        if not all(0 <= v < self.q for row in self.rows for v in row):
            raise GroupError(f"matrix entries must lie in 0..{self.q - 1}")

    @property
    def m_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def rank(self) -> int:
        return modp.rank(self.rows, self.q)


def matrix_action(P: tuple, Q: tuple, A: MatrixFq) -> MatrixFq:
    """(P, Q) . A = Q A P^{-1} with P in GL_n, Q in GL_m."""
    q = A.q
    if len(P) != A.n_cols or len(Q) != A.m_rows:
        raise CategoryError("dimension mismatch in matrix action")
    Pinv = modp.inverse(P, q)
    if Pinv is None or modp.inverse(Q, q) is None:
        raise CategoryError("action requires invertible matrices")
    return MatrixFq(q, modp.mul(modp.mul(Q, A.rows, q), Pinv, q))


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
    coordinate by coordinate in the per-pair Aut(x_i) tables
    (``aut_reference``) and found by binary search among the rows'
    mixed-radix codes: no closure and no fill."""
    cat = stab.cat
    rows = np.array(sorted(tuple(cat.aut_idx(x).index(a) for x, a in zip(stab.objs, el))
                           for el in stab.elements), dtype=np.int64)
    codes = np.zeros(len(rows), dtype=np.int64)
    products = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for x, c in zip(stab.objs, rows.T):
        aut = aut_reference(cat, x).astype(np.int64)
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
