"""Exact finite-group bookkeeping.

Symbolic group expressions (symmetric, general linear, products, wreath
products) with exact arbitrary-precision orders, concrete Cayley tables
with fully checked group axioms, greedy generating sets closed to a known
order, and small-group isomorphism testing by backtracking over generator
images of the same element order and centralizer order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial
from typing import Optional

import numpy as np

from . import modp
from .limits import DEFAULT_LIMITS

# Tables above this size skip Light's associativity test; they only arise
# from closure inside an already-associative ambient composition.
_ASSOC_CHECK_LIMIT = 4096


class GroupError(Exception):
    pass


class ClosureLimitExceeded(GroupError):
    def __init__(self, limit, reached):
        super().__init__(f"closure exceeded limit {limit} (reached {reached} elements)")
        self.limit = limit
        self.reached = reached


# ---------------------------------------------------------------------------
# Cayley tables


class CayleyTable:
    """A finite group as an n x n multiplication table over element indices.

    Group axioms are checked on construction: closure and identity/inverses
    always, associativity via Light's test on a greedy generating set (full
    proof of associativity, not a sample) for orders up to
    ``_ASSOC_CHECK_LIMIT``.
    """

    def __init__(self, table, identity: Optional[int] = None, label: str = ""):
        t = np.asarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise GroupError("table must be square")
        self.n = int(t.shape[0])
        if self.n == 0:
            raise GroupError("empty table")
        if t.min() < 0 or t.max() >= self.n:
            raise GroupError("table entries out of range (not closed)")
        self.table = t
        self.label = label
        if identity is None:
            identity = self._find_identity()
            if identity is None:
                raise GroupError("no identity element")
        self.identity = int(identity)
        self._orders = None
        self._check_axioms()

    def _find_identity(self):
        rng = np.arange(self.n)
        for e in range(self.n):
            if np.array_equal(self.table[e], rng) and np.array_equal(self.table[:, e], rng):
                return e
        return None

    def _check_axioms(self):
        rng = np.arange(self.n)
        e = self.identity
        if not (np.array_equal(self.table[e], rng) and np.array_equal(self.table[:, e], rng)):
            raise GroupError("identity law fails")
        # inverses: identity appears in every row
        if not np.all((self.table == e).any(axis=1)):
            raise GroupError("missing inverse")
        if self.n <= _ASSOC_CHECK_LIMIT:
            gens, _, _ = greedy_closure(range(self.n), self.mul, self.identity, self.n)
            for g in gens:
                left = self.table[:, self.table[g]]       # x*(g*y)
                right = self.table[self.table[:, g]]      # (x*g)*y
                if not np.array_equal(left, right):
                    raise GroupError(f"associativity fails at generator {g}")

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(np.nonzero(self.table[i] == self.identity)[0][0])

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            k += 1
        return k

    def element_order_histogram(self) -> Counter:
        if self._orders is None:
            self._orders = Counter(self.element_order(i) for i in range(self.n))
        return self._orders

    def centralizer_orders(self) -> np.ndarray:
        """For each element, the number of elements that commute with it."""
        return (self.table == self.table.T).sum(axis=0)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def generating_sequence(self):
        """Greedy generators ordered by decreasing element order, with the
        subgroup size after each addition."""
        order_of = [self.element_order(i) for i in range(self.n)]
        by_pref = sorted(range(self.n), key=lambda i: (-order_of[i], i))
        gens, sizes, _ = greedy_closure(by_pref, self.mul, self.identity, self.n)
        return gens, sizes

    def __repr__(self):
        lbl = f" {self.label}" if self.label else ""
        return f"CayleyTable(order={self.n}{lbl})"


def cyclic_table(n: int, label: str = "") -> CayleyTable:
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    return CayleyTable(t, identity=0, label=label or f"C{n}")


def product_table(tables: list, label: str = "") -> CayleyTable:
    """Direct product of concrete tables, elements ordered lexicographically."""
    return CayleyTable(_direct_product_table([t.table for t in tables]),
                       label=label or ("" if tables else "1"))


def table_in_product(tables: list, coords, label: str = "") -> CayleyTable:
    """Cayley table of a set of elements of the direct product of ``tables``.

    Row i of ``coords`` holds the factor coordinates of element i.  Every
    product is computed coordinate-wise in the factor tables and located
    among the elements by its mixed-radix code; a product outside the set
    raises GroupError.
    """
    coords = np.asarray(coords, dtype=np.int64)
    strides = _strides([len(t) for t in tables])
    codes = coords @ strides
    order = np.argsort(codes)
    known = codes[order]
    product_codes = _product_codes(tables, coords, strides)

    def rows(lo, hi):
        prods = product_codes(lo, hi)
        at = np.minimum(np.searchsorted(known, prods), len(known) - 1)
        if not np.array_equal(known[at], prods):
            raise GroupError("element set is not closed under the product")
        return order[at]

    return CayleyTable(_fill_table(len(coords), rows), label=label)


# Tables are filled a block of rows at a time, each block about this many
# cells, so temporaries stay near this size times the number of coordinates.
_BLOCK_CELLS = 1 << 16


def _fill_table(n: int, rows) -> np.ndarray:
    """The n x n table whose rows lo..hi-1 are ``rows(lo, hi)``."""
    out = np.empty((n, n), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        out[lo:hi] = rows(lo, hi)
    return out


def _strides(sizes) -> np.ndarray:
    """Mixed-radix place values for digits of the given sizes, most
    significant first."""
    out = [1] * len(sizes)
    for k in range(len(sizes) - 2, -1, -1):
        out[k] = out[k + 1] * sizes[k + 1]
    if sizes and out[0] * sizes[0] > np.iinfo(np.int64).max:
        raise GroupError("direct product too large for 64-bit element codes")
    return np.array(out, dtype=np.int64)


def _grid(sizes) -> np.ndarray:
    """All digit tuples for the given sizes, lexicographic, one per row."""
    digits = list(itertools.product(*(range(n) for n in sizes)))
    return np.array(digits, dtype=np.int64).reshape(len(digits), len(sizes))


def _product_codes(tables, coords, strides):
    """rows(lo, hi): mixed-radix codes of x * y, for x in coords[lo:hi] and
    y in coords, multiplied coordinate-wise in the factor tables.  Each
    gathered block is widened to int64 before it is scaled, since factor
    tables may hold narrower integers."""
    def rows(lo, hi):
        return sum(s * t[np.ix_(c[lo:hi], c)].astype(np.int64)
                   for s, t, c in zip(strides, tables, coords.T))
    return rows


def _direct_product_table(tables: list) -> np.ndarray:
    """Table of the direct product over lexicographic coordinate tuples,
    whose index is their mixed-radix code."""
    sizes = [len(t) for t in tables]
    coords = _grid(sizes)
    return _fill_table(len(coords), _product_codes(tables, coords, _strides(sizes)))


# ---------------------------------------------------------------------------
# Greedy closure


def greedy_closure(candidates, compose, identity, order: int) -> tuple:
    """Greedy generators, among ``candidates``, of a group of known ``order``.

    Walks the candidates in order and keeps each one outside the closure of
    those kept so far; after each, the closure is rebuilt breadth first
    from ``identity`` as ``compose(x, g)``.  Once the closure has ``order``
    elements it keeps no more, and every later candidate must lie in it.
    Returns (generators, closure size after each, elements), the elements
    in discovery order with the identity first.  Raises
    ClosureLimitExceeded when the closure grows past ``order`` and
    GroupError when a candidate lies outside a closure of ``order``
    elements or the candidates run out before it reaches ``order``.
    """
    gens, sizes, els, seen = [], [], [identity], {identity}
    for c in candidates:
        if c in seen:
            continue
        if len(els) == order:
            raise GroupError(f"{c!r} lies outside the closure of {order} elements")
        gens.append(c)
        els, seen, frontier = [identity], {identity}, [identity]
        while frontier:
            new = []
            for g in gens:
                for x in frontier:
                    y = compose(x, g)
                    if y not in seen:
                        seen.add(y)
                        els.append(y)
                        new.append(y)
                        if len(els) > order:
                            raise ClosureLimitExceeded(order, len(els))
            frontier = new
        sizes.append(len(els))
    if len(els) != order:
        raise GroupError(f"candidates generate {len(els)} elements, not {order}")
    return gens, sizes, els


def table_from_elements(els: list, compose, label: str = "") -> CayleyTable:
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    table = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(els):
        row = table[i]
        for j, b in enumerate(els):
            row[j] = idx[compose(a, b)]
    return CayleyTable(table, label=label)


# ---------------------------------------------------------------------------
# Symbolic group expressions


class GroupExpr:
    """Base class of the symbolic expression tree."""

    def order(self) -> int:
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError

    def _needs_parens(self) -> bool:
        return False

    def __repr__(self):
        return f"<{type(self).__name__} {self.text()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class Trivial(GroupExpr):
    def order(self):
        return 1

    def text(self):
        return "1"


class Symmetric(GroupExpr):
    def __init__(self, n: int):
        if n < 0:
            raise GroupError(f"S_n needs n >= 0, got {n}")
        self.n = n

    def order(self):
        return factorial(self.n)

    def text(self):
        return f"S{self.n}"

    def _key(self):
        return (self.n,)


class GeneralLinear(GroupExpr):
    def __init__(self, n: int, q: int):
        if n < 1:
            raise GroupError(f"GL(n,q) needs n >= 1, got {n}")
        if not modp.is_prime(q):
            raise GroupError(f"q={q} is not prime")
        self.n, self.q = n, q

    def order(self):
        qn = self.q ** self.n
        out = 1
        for i in range(self.n):
            out *= qn - self.q ** i
        return out

    def text(self):
        return f"GL({self.n},{self.q})"

    def _key(self):
        return (self.n, self.q)


class FieldUnits(GroupExpr):
    """Multiplicative group of F_q; same group as GL(1, q)."""

    def __init__(self, q: int):
        if not modp.is_prime(q):
            raise GroupError(f"q={q} is not prime")
        self.q = q

    def order(self):
        return self.q - 1

    def text(self):
        return f"U({self.q})"

    def _key(self):
        return (self.q,)


class FieldAdditive(GroupExpr):
    def __init__(self, q: int):
        if not modp.is_prime(q):
            raise GroupError(f"q={q} is not prime")
        self.q = q

    def order(self):
        return self.q

    def text(self):
        return f"A({self.q})"

    def _key(self):
        return (self.q,)


class Product(GroupExpr):
    def __init__(self, factors):
        self.factors = tuple(factors)

    def order(self):
        out = 1
        for f in self.factors:
            out *= f.order()
        return out

    def text(self):
        if not self.factors:
            return "1"
        parts = []
        for f in self.factors:
            t = f.text()
            parts.append(f"({t})" if f._needs_parens() else t)
        return " x ".join(parts)

    def _needs_parens(self):
        return len(self.factors) > 1

    def _key(self):
        return self.factors


class Wreath(GroupExpr):
    """base wr S_k: the semidirect product base^k x| S_k with S_k
    permuting the k factors."""

    def __init__(self, base: GroupExpr, k: int):
        if k < 0:
            raise GroupError(f"base wr S_k needs k >= 0, got {k}")
        self.base, self.k = base, k

    def order(self):
        return self.base.order() ** self.k * factorial(self.k)

    def text(self):
        b = self.base.text()
        if self.base._needs_parens():
            b = f"({b})"
        return f"{b} wr S{self.k}"

    def _needs_parens(self):
        return True

    def _key(self):
        return (self.base, self.k)


# ---------------------------------------------------------------------------
# Materialization


def _symmetric_table(perms: np.ndarray) -> np.ndarray:
    """Table of the permutations ``perms`` (one per row, a complete S_n in
    lexicographic order) under (a*b)[i] = a[b[i]]."""
    n = perms.shape[1]
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rank = np.empty(n ** n, dtype=np.int64)
    rank[perms @ weights] = np.arange(len(perms))
    return _fill_table(len(perms), lambda lo, hi: rank[perms[lo:hi][:, perms] @ weights])


def _general_linear_table(n: int, q: int) -> np.ndarray:
    """Table of GL(n, q) in ``modp.general_linear`` order, by batched matrix
    products mod q looked up through base-q codes of the entries."""
    mats = np.array(modp.general_linear(n, q), dtype=np.int64)
    weights = q ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    index = np.empty(q ** (n * n), dtype=np.int64)
    index[mats.reshape(-1, n * n) @ weights] = np.arange(len(mats))

    def rows(lo, hi):
        prods = (mats[lo:hi, None] @ mats[None]) % q
        return index[prods.reshape(hi - lo, len(mats), n * n) @ weights]

    return _fill_table(len(mats), rows)


def _wreath_table(base: np.ndarray, k: int) -> np.ndarray:
    """Table of base wr S_k over the elements (f, sigma), f in base^k
    lexicographic and sigma in S_k lexicographic, with
    (f, sigma)(g, tau) = (h, sigma tau) and h_i = f_i g_{sigma^-1(i)}."""
    perms = _permutations(k)
    sk = _symmetric_table(perms)
    n_perms = len(perms)
    digits = _grid([len(base)] * k)
    weights = len(base) ** np.arange(k - 1, -1, -1, dtype=np.int64)
    inverses = np.argsort(perms, axis=1)

    def rows(lo, hi):
        f = digits[np.arange(lo, hi) // n_perms]           # (rows, k)
        s = np.arange(lo, hi) % n_perms
        inv = inverses[s]
        h = sum(weights[i] * base[f[:, i, None], digits[:, inv[:, i]].T]
                for i in range(k))                          # (rows, |base|^k)
        return (h[:, :, None] * n_perms + sk[s][:, None, :]).reshape(hi - lo, -1)

    return _fill_table(len(digits) * n_perms, rows)


def _permutations(n: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    return np.array(perms, dtype=np.int64).reshape(len(perms), n)


def _expr_table(expr: GroupExpr) -> np.ndarray:
    """Multiplication table of an expression over its elements in their
    canonical order: permutations and matrices lexicographic, field
    elements ascending, products and wreath coordinates lexicographic."""
    if isinstance(expr, Trivial):
        return np.zeros((1, 1), dtype=np.int64)
    if isinstance(expr, Symmetric):
        return _symmetric_table(_permutations(expr.n))
    if isinstance(expr, GeneralLinear):
        return _general_linear_table(expr.n, expr.q)
    if isinstance(expr, FieldUnits):
        units = np.arange(1, expr.q)
        return np.multiply.outer(units, units) % expr.q - 1
    if isinstance(expr, FieldAdditive):
        values = np.arange(expr.q)
        return np.add.outer(values, values) % expr.q
    if isinstance(expr, Product):
        return _direct_product_table([_expr_table(f) for f in expr.factors])
    if isinstance(expr, Wreath):
        if expr.k == 0:     # trivial, whatever the base; its table is not needed
            return np.zeros((1, 1), dtype=np.int64)
        return _wreath_table(_expr_table(expr.base), expr.k)
    raise GroupError(f"cannot materialize {expr!r}")


def materialize(expr: GroupExpr, table_limit: int = DEFAULT_LIMITS.table_limit) -> CayleyTable:
    """Concrete Cayley table of a symbolic expression.

    Refuses expressions whose order exceeds ``table_limit``.
    """
    n = expr.order()
    if n > table_limit:
        raise ClosureLimitExceeded(table_limit, n)
    return CayleyTable(_expr_table(expr), label=expr.text())


# ---------------------------------------------------------------------------
# Isomorphism testing


def are_isomorphic(a: CayleyTable, b: CayleyTable,
                   iso_limit: int = DEFAULT_LIMITS.iso_limit) -> Optional[bool]:
    """True/False when decided; None when either order exceeds ``iso_limit``
    (undecided at the configured limit, deliberately distinct from False).
    """
    if a.n != b.n:
        return False
    if a.n > iso_limit or b.n > iso_limit:
        return None
    if a.n == 1:
        return True
    if a.is_abelian() != b.is_abelian():
        return False
    if a.element_order_histogram() != b.element_order_histogram():
        return False

    # an isomorphism preserves element orders and centralizer orders
    gens, sizes = a.generating_sequence()
    cent_a, cent_b = a.centralizer_orders().tolist(), b.centralizer_orders().tolist()
    orders_b = [(b.element_order(i), cent_b[i]) for i in range(b.n)]

    def extend(images):
        """Grow the partial hom gens[:len(images)] -> images over the
        generated subgroup; None on any inconsistency."""
        amap = {a.identity: b.identity}
        frontier = [a.identity]
        pairs = list(zip(gens[: len(images)], images))
        for g, h in pairs:
            if g in amap:
                if amap[g] != h:
                    return None
            else:
                amap[g] = h
                frontier.append(g)
        while frontier:
            new = []
            for g, h in pairs:
                for x in list(frontier):
                    y = a.mul(x, g)
                    fy = b.mul(amap[x], h)
                    if y in amap:
                        if amap[y] != fy:
                            return None
                    else:
                        amap[y] = fy
                        new.append(y)
            frontier = new
        if len(set(amap.values())) != len(amap):
            return None
        return amap

    def backtrack(i, images):
        if i == len(gens):
            amap = extend(images)
            return amap is not None and len(amap) == a.n
        want = (a.element_order(gens[i]), cent_a[gens[i]])
        for h in range(b.n):
            if orders_b[h] != want:
                continue
            amap = extend(images + [h])
            if amap is None or len(amap) != sizes[i]:
                continue
            if backtrack(i + 1, images + [h]):
                return True
        return False

    return backtrack(0, [])


# ---------------------------------------------------------------------------
# Named small-group library (trivial, cyclic <= 12, S_k for k <= 6, products)


_N_CYCLIC_ATOMS = 11
_ATOMS = [(f"C{k}", k, lambda k=k: cyclic_table(k)) for k in range(2, 13)]
_ATOMS += [(f"S{k}", factorial(k), lambda k=k: materialize(Symmetric(k)))
           for k in range(3, 7)]
_atom_cache: dict = {}
_atom_hist_cache: dict = {}


def _atom_table(i: int) -> CayleyTable:
    if i not in _atom_cache:
        _atom_cache[i] = _ATOMS[i][2]()
    return _atom_cache[i]


def _atom_histogram(i: int) -> Counter:
    if i not in _atom_hist_cache:
        _atom_hist_cache[i] = _atom_table(i).element_order_histogram()
    return _atom_hist_cache[i]


def _sequence_histogram(seq) -> Counter:
    """Element-order histogram of a product of atoms, by lcm convolution."""
    from math import lcm
    hist = Counter({1: 1})
    for i in seq:
        nxt = Counter()
        for o1, m1 in hist.items():
            for o2, m2 in _atom_histogram(i).items():
                nxt[lcm(o1, o2)] += m1 * m2
        hist = nxt
    return hist


def _candidate_sequences(n: int) -> list:
    seqs = []

    def rec(start, remaining, chosen):
        if remaining == 1:
            if chosen:
                seqs.append(tuple(chosen))
            return
        for i in range(start, len(_ATOMS)):
            o = _ATOMS[i][1]
            if o <= remaining and remaining % o == 0:
                rec(i, remaining // o, chosen + [i])

    rec(0, n, [])
    return sorted(seqs, key=lambda s: (len(s), s))


def match_named(table: CayleyTable, iso_limit: int = DEFAULT_LIMITS.iso_limit) -> Optional[str]:
    """Label of the first library group isomorphic to ``table``, or None.

    Candidates are prefiltered on abelianness and the element-order
    histogram (both computable from atom data without building the product
    table), so only plausible products are materialized.
    """
    if table.n > iso_limit:
        return None
    if table.n == 1:
        return "1"
    abelian = table.is_abelian()
    hist = table.element_order_histogram()
    for seq in _candidate_sequences(table.n):
        if all(i < _N_CYCLIC_ATOMS for i in seq) != abelian:
            continue
        if _sequence_histogram(seq) != hist:
            continue
        label = " x ".join(_ATOMS[i][0] for i in seq)
        tables = [_atom_table(i) for i in seq]
        cand = tables[0] if len(tables) == 1 else product_table(tables, label=label)
        if are_isomorphic(table, cand, iso_limit):
            return label
    return None
