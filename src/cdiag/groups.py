"""Exact finite-group bookkeeping.

Symbolic group expressions (symmetric, general linear, products, wreath
products) with exact arbitrary-precision orders, concrete Cayley tables
with fully checked group axioms, greedy generating sets closed to a known
order, and small-group isomorphism testing by backtracking over generator
images of the same element order and centralizer order.

Elements are coded as integers here, by one coder (``radix_codes``: an
array of digits read as one number) and found among known codes by one
locator (``code_finder``).  The tables of expressions (but direct products
and cyclic groups) and of coded element sets are built by one routine,
``coded_table``: it locates the products of the generators of one greedy
closure over the coded elements and fills every other row along the
closure's left words.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, prod
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
    def __init__(self, limit, reached, message=None):
        super().__init__(message or f"closure exceeded limit {limit} (reached {reached} elements)")
        self.limit = limit
        self.reached = reached


def table_refusal(order: int, table_limit: int) -> ClosureLimitExceeded:
    """The one refusal, and its one wording, to table a group above table_limit."""
    return ClosureLimitExceeded(table_limit, order,
                                f"group of order {order} exceeds table_limit {table_limit}")


# ---------------------------------------------------------------------------
# Cayley tables


class CayleyTable:
    """A finite group as an n x n multiplication table over element indices,
    stored in the smallest dtype that holds an index (``np.min_scalar_type(n - 1)``).

    Group axioms are checked on construction: closure and identity/inverses
    always (the range check runs before the table is narrowed),
    associativity via Light's test on the generators of
    ``generating_sequence`` (full proof of associativity, not a sample) for
    orders up to ``_ASSOC_CHECK_LIMIT``.  That closure runs once per table
    and is kept for the isomorphism search.
    """

    def __init__(self, table, identity: Optional[int] = None, label: str = ""):
        t = np.asarray(table)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise GroupError("table must be square")
        self.n = int(t.shape[0])
        if self.n == 0:
            raise GroupError("empty table")
        if t.min() < 0 or t.max() >= self.n:
            raise GroupError("table entries out of range (not closed)")
        self.table = t.astype(np.min_scalar_type(self.n - 1), copy=False)
        self.label = label
        if identity is None:
            identity = self._find_identity()
            if identity is None:
                raise GroupError("no identity element")
        self.identity = int(identity)
        self._orders = self._generators = None
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
            try:
                gens, _ = self.generating_sequence()
            except GroupError as exc:   # every element of a group has a finite order
                raise GroupError(f"associativity fails: {exc}") from exc
            for g in gens:
                left = self.table[:, self.table[g]]       # x*(g*y)
                right = self.table[self.table[:, g]]      # (x*g)*y
                if not np.array_equal(left, right):
                    raise GroupError(f"associativity fails at generator {g}")

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def _column_mul(self):
        """``mul`` for one closure: column g is read as a Python list the
        first time g is a right factor, and dropped with the function."""
        cols = {}

        def mul(x, g):
            if g not in cols:
                cols[g] = self.table[:, g].tolist()
            return cols[g][x]
        return mul

    def inv(self, i: int) -> int:
        return int(np.nonzero(self.table[i] == self.identity)[0][0])

    @property
    def orders(self) -> np.ndarray:
        """Every element's order, by stepping all powers x^k at once; a power
        that misses the identity for n steps raises GroupError."""
        if self._orders is None:
            els = np.arange(self.n)
            power, orders = els, np.zeros(self.n, dtype=np.int64)
            for k in range(1, self.n + 1):
                orders[(power == self.identity) & (orders == 0)] = k
                if orders.all():
                    break
                power = self.table[power, els]
            else:
                raise GroupError("an element has no power equal to the identity")
            self._orders = orders
        return self._orders

    def element_order(self, i: int) -> int:
        return int(self.orders[i])

    def element_order_histogram(self) -> Counter:
        return Counter(self.orders.tolist())

    def centralizer_orders(self) -> np.ndarray:
        """For each element, the number of elements that commute with it."""
        return (self.table == self.table.T).sum(axis=0)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def generating_sequence(self):
        """Greedy generators ordered by decreasing element order, with the
        subgroup size after each addition, from one closure per table."""
        if self._generators is None:
            by_pref = np.argsort(-self.orders, kind="stable").tolist()
            gens, sizes, _ = greedy_closure(by_pref, self._column_mul(), self.identity, self.n)
            self._generators = gens, sizes
        return self._generators

    def __repr__(self):
        lbl = f" {self.label}" if self.label else ""
        return f"CayleyTable(order={self.n}{lbl})"


def cyclic_table(n: int, label: str = "") -> CayleyTable:
    t = (np.arange(n)[:, None] + np.arange(n)) % n
    return CayleyTable(t, identity=0, label=label or f"C{n}")


def product_table(tables: list, label: str = "") -> CayleyTable:
    """Direct product of concrete tables, elements ordered lexicographically."""
    return CayleyTable(_direct_product_table([t.table for t in tables]),
                       label=label or ("" if tables else "1"))


def table_in_product(tables: list, coords, label: str = "",
                     memo: Optional["GroupMemo"] = None) -> CayleyTable:
    """Cayley table of a set of elements of the direct product of ``tables``.

    Row i of ``coords`` holds the factor coordinates of element i, coded in
    mixed radix.  The products g * x are computed coordinate-wise in the
    factor tables for the generators g of ``coded_table`` only.  With a
    ``memo`` the table is checked once per distinct array.
    """
    coords = np.asarray(coords, dtype=np.int64)
    strides = _strides([len(t) for t in tables])
    identity = sum(s * int(np.flatnonzero(t[:, 0] == 0)[0]) for s, t in zip(strides, tables))

    def left_codes(g):
        return sum(s * t[c[g]][c].astype(np.int64) for s, t, c in zip(strides, tables, coords.T))

    return table_by_codes(coords @ strides, identity, left_codes, label, memo)


def table_by_codes(codes, identity: int, left_codes, label: str = "",
                   memo: Optional["GroupMemo"] = None) -> CayleyTable:
    """``coded_table`` checked as a CayleyTable; with a ``memo`` the table
    is checked once per distinct array."""
    table = coded_table(codes, identity, left_codes)
    return CayleyTable(table, label=label) if memo is None else memo.table(table, label)


def coded_table(codes, identity: int, left_codes) -> np.ndarray:
    """The multiplication table of the elements with distinct integer
    ``codes``, element i coded codes[i], the identity coded ``identity``,
    in the smallest dtype that holds an index.

    ``left_codes(g)`` gives the codes of g * x for every element x.  Only
    the generators g of one greedy closure over the elements have theirs
    located among the codes (``code_finder``); the rows are filled along the
    closure's left words, row(g * a) = column(g)[row(a)].  The closure
    reaches every element, so a product outside the set shows in a
    generator column and raises GroupError, as a missing identity does.
    """
    find = code_finder(codes)

    def locate(found):
        at = find(found)
        if at.min() < 0:
            raise GroupError("element set is not closed under the product")
        return at

    n = len(codes)
    _, levels, columns = closure_columns(n, lambda g: locate(left_codes(g)),
                                         int(locate(np.array([identity]))[0]))
    return word_rows(word_levels(levels), columns, np.arange(n, dtype=columns.dtype))


# A breadth-first level of at least _GATHER_MIN words is filled by gathers
# of at most _GATHER_CELLS entries each; below that, one numpy step per word
# costs less than a gather's set-up.
_GATHER_MIN = 4
_GATHER_CELLS = 1 << 16


def word_levels(levels) -> tuple:
    """A ``greedy_closure`` tree as ``word_rows`` reads it: (its size, its
    root, its levels after the root), a level of fewer than _GATHER_MIN
    words as its (element, parent, k) triples, a larger one as one array
    each of its elements, parents and generators."""
    return (sum(map(len, levels)), levels[0][0][0],
            [level if len(level) < _GATHER_MIN else tuple(map(np.array, zip(*level)))
             for level in levels[1:]])


def word_rows(tree: tuple, columns: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The action table of a group on the points ``start``, where its k-th
    generator g_k maps point p to columns[k, p], built along the left words
    of ``tree`` (``word_levels``): the root's row is ``start`` and
    row(g_k . parent) = column(g_k)[row(parent)], level by level, in the
    dtype of ``columns``."""
    n, root, levels = tree
    rows = np.empty((n, len(start)), dtype=columns.dtype)
    rows[root] = start
    flat, width = columns.ravel(), max(1, _GATHER_CELLS // max(len(start), 1))
    for level in levels:
        if isinstance(level, list):
            for a, p, k in level:
                rows[a] = columns[k][rows[p]]
            continue
        a, p, k = level
        for lo in range(0, len(a), width):
            part = slice(lo, lo + width)
            rows[a[part]] = flat[k[part, None] * columns.shape[1] + rows[p[part]]]
    return rows


def _strides(sizes) -> np.ndarray:
    """Mixed-radix place values for digits of the given sizes, most
    significant first."""
    out = [1] * len(sizes)
    for k in range(len(sizes) - 2, -1, -1):
        out[k] = out[k + 1] * sizes[k + 1]
    if sizes and out[0] * sizes[0] >= 1 << 63:
        raise GroupError("direct product too large for 64-bit element codes")
    return np.array(out, dtype=np.int64)


def radix_codes(stack: np.ndarray, radix: int) -> np.ndarray:
    """Each array of ``stack`` read as one number in base ``radix``, its
    first entry most significant, as int64; -1 for an array with an entry
    outside 0 .. radix - 1."""
    flat = stack.reshape(len(stack), prod(stack.shape[1:]))
    codes = np.zeros(len(flat), dtype=np.int64)
    for column in flat.T:       # an entry at a time: no int64 copy of the stack
        codes = codes * radix + column.astype(np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= radix):
        codes[((flat < 0) | (flat >= radix)).any(axis=1)] = -1
    return codes


def code_finder(codes):
    """find(found): the position among ``codes`` of each code in ``found``,
    or -1 for one that is not among them; a negative code is never found."""
    codes = np.asarray(codes, dtype=np.int64)
    order = np.argsort(codes)
    order = order[codes[order] >= 0]
    known = codes[order]

    def find(found):
        at = np.minimum(np.searchsorted(known, found), len(known) - 1)
        return np.where(known[at] == found, order[at], -1)
    return find if len(known) else lambda found: np.full(len(found), -1)


def _direct_product_table(tables: list) -> np.ndarray:
    """Table of the direct product over lexicographic coordinate tuples,
    whose index is their mixed-radix code: the sum of each factor's table,
    scaled by its stride and broadcast over the other factors' axes,
    computed in the final narrow dtype."""
    sizes = [len(t) for t in tables]
    n, k = prod(sizes), len(tables)
    dtype = np.min_scalar_type(n - 1)
    out = np.zeros(sizes + sizes, dtype=dtype)
    for i, (s, t) in enumerate(zip(_strides(sizes).tolist(), tables)):
        shape = [1] * (2 * k)
        shape[i] = shape[k + i] = sizes[i]
        out += (np.asarray(t, dtype=np.int64) * s).astype(dtype).reshape(shape)
    return out.reshape(n, n)


# ---------------------------------------------------------------------------
# Greedy closure


def greedy_closure(candidates, compose, identity, order: int, tree: bool = False) -> tuple:
    """Greedy generators, among ``candidates``, of a group of known ``order``.

    Walks the candidates in order and keeps each one outside the closure of
    those kept so far; after each, the closure is extended breadth first
    as ``compose(x, g)``: the new generator after every member so far, then
    every generator after each new element.  Once the closure has ``order``
    elements it keeps no more, and every later candidate must lie in it.
    Returns (generators, closure size after each, levels).  With ``tree``,
    levels is the closure's breadth-first tree level by level: first
    [(identity, -1, -1)], then for each round the (element, parent, k)
    triples in discovery order, each element ``compose(parent,
    generators[k])`` with its parent in an earlier level; else None.
    Raises ClosureLimitExceeded when the closure grows past ``order`` and
    GroupError when a candidate lies outside a closure of ``order``
    elements or the candidates run out before it reaches ``order``.
    """
    gens, sizes, seen = [], [], {identity: None}
    levels = [[(identity, -1, -1)]] if tree else None
    for c in candidates:
        if c in seen:
            continue
        if len(seen) == order:
            raise GroupError(f"{c!r} lies outside the closure of {order} elements")
        gens.append(c)
        frontier, steps = list(seen), [(len(gens) - 1, c)]
        while frontier:
            new, level = [], []
            for k, g in steps:
                for x in frontier:
                    y = compose(x, g)
                    if y not in seen:
                        seen[y] = None
                        new.append(y)
                        if tree:
                            level.append((y, x, k))
                        if len(seen) > order:
                            raise ClosureLimitExceeded(order, len(seen))
            if tree and level:
                levels.append(level)
            frontier, steps = new, list(enumerate(gens))
        sizes.append(len(seen))
    if len(seen) != order:
        raise GroupError(f"candidates generate {len(seen)} elements, not {order}")
    return gens, sizes, levels


def closure_columns(n: int, column, root: int) -> tuple:
    """(generators, levels, columns) of the greedy closure, with its tree,
    of the group on 0..n-1 with identity ``root`` that steps a -> g * a
    along ``column(g)``, the integer array of g * a for every a, read once
    per generator tried; ``columns`` stacks the generators' in
    ``np.min_scalar_type(n - 1)``."""
    cols = {}

    def step(a, g):
        if g not in cols:
            cols[g] = column(g).tolist()
        return cols[g][a]

    gens, _, levels = greedy_closure(range(n), step, root, n, tree=True)
    columns = np.array([cols[g] for g in gens], dtype=np.min_scalar_type(n - 1))
    return gens, levels, columns.reshape(len(gens), n)


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


class GeneralLinear(GroupExpr):
    def __init__(self, n: int, q: int):
        if n < 1:
            raise GroupError(f"GL(n,q) needs n >= 1, got {n}")
        if not modp.is_prime(q):
            raise GroupError(f"q={q} is not prime")
        self.n, self.q = n, q

    def order(self):
        """prod_{i<n} (q^n - q^i)."""
        return prod(self.q ** self.n - self.q ** i for i in range(self.n))

    def text(self):
        return f"GL({self.n},{self.q})"


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


class FieldAdditive(GroupExpr):
    def __init__(self, q: int):
        if not modp.is_prime(q):
            raise GroupError(f"q={q} is not prime")
        self.q = q

    def order(self):
        return self.q

    def text(self):
        return f"A({self.q})"


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


# ---------------------------------------------------------------------------
# Materialization


def _symmetric_table(perms: np.ndarray) -> np.ndarray:
    """Table of the permutations ``perms`` (one per row, a complete S_n in
    lexicographic order, the identity first) under (a*b)[i] = a[b[i]],
    each coded in base n."""
    n = perms.shape[1]
    codes = radix_codes(perms, n)
    return coded_table(codes, codes[0], lambda g: radix_codes(perms[g][perms], n))


def _general_linear_table(n: int, q: int) -> np.ndarray:
    """Table of GL(n, q) in ``modp.general_linear`` order under matrix
    products mod q, each matrix coded in base q."""
    mats = np.array(modp.general_linear(n, q), dtype=np.int64).reshape(-1, n, n)
    return coded_table(radix_codes(mats, q), radix_codes(np.eye(n, dtype=np.int64)[None], q)[0],
                       lambda g: radix_codes(mats[g] @ mats % q, q))


def _wreath_table(base: np.ndarray, k: int, sk: np.ndarray) -> np.ndarray:
    """Table of base wr S_k over the elements (f, sigma), f in base^k
    lexicographic and sigma in S_k lexicographic, each coded by its index,
    with (f, sigma)(g, tau) = (h, sigma tau) and h_i = f_i g_{sigma^-1(i)};
    ``sk`` is the table of S_k."""
    perms = _permutations(k)
    n_perms = len(perms)
    weights = _strides([len(base)] * k)
    digits = np.arange(len(base) ** k)[:, None] // weights % len(base)
    inverses = np.argsort(perms, axis=1)

    def left_codes(r):
        f, s = digits[r // n_perms], r % n_perms
        h = sum(weights[i] * base[f[i], digits[:, inverses[s, i]]] for i in range(k))
        return (h[:, None] * n_perms + sk[s]).ravel()

    # the identity (e, ..., e; 1) has index e * sum(weights) * k!
    e = int(np.flatnonzero(base[:, 0] == 0)[0])
    return coded_table(np.arange(len(digits) * n_perms), e * int(weights.sum()) * n_perms,
                       left_codes)


def _permutations(n: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    return np.array(perms, dtype=np.int64).reshape(len(perms), n)


def _expr_table(expr: GroupExpr, memo: Optional["GroupMemo"] = None) -> np.ndarray:
    """Multiplication table of an expression over its elements in their
    canonical order: permutations and matrices lexicographic, field
    elements ascending, products and wreath coordinates lexicographic.
    With a ``memo`` the tables of its sub-expressions come from the memo."""
    table = _expr_table if memo is None else memo.expr_table
    if isinstance(expr, Trivial):
        return np.zeros((1, 1), dtype=np.uint8)
    if isinstance(expr, Symmetric):
        return _symmetric_table(_permutations(expr.n))
    if isinstance(expr, GeneralLinear):
        return _general_linear_table(expr.n, expr.q)
    if isinstance(expr, FieldUnits):
        units = np.arange(1, expr.q)
        return coded_table(units, 1, lambda g: units[g] * units % expr.q)
    if isinstance(expr, FieldAdditive):
        return cyclic_table(expr.q).table
    if isinstance(expr, Product):
        return _direct_product_table([table(f) for f in expr.factors])
    if isinstance(expr, Wreath):
        if expr.k == 0 or expr.base.order() == 1:   # base^k is trivial: S_k's table
            return table(Symmetric(expr.k))
        if expr.k == 1:                             # S_1 is trivial: the base's table
            return table(expr.base)
        return _wreath_table(table(expr.base), expr.k, table(Symmetric(expr.k)))
    raise GroupError(f"cannot materialize {expr!r}")


def materialize(expr: GroupExpr, table_limit: int = DEFAULT_LIMITS.table_limit,
                memo: Optional["GroupMemo"] = None) -> CayleyTable:
    """Concrete Cayley table of a symbolic expression.

    Refuses expressions whose order exceeds ``table_limit``.  With a
    ``memo`` the table is built once per expression and checked once per
    distinct array.
    """
    n = expr.order()
    if n > table_limit:
        raise table_refusal(n, table_limit)
    if memo is None:
        return CayleyTable(_expr_table(expr), label=expr.text())
    return memo.table(memo.expr_table(expr), expr.text())


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
    orders_b = list(zip(b.orders.tolist(), cent_b))
    cols_a = [a.table[:, g].tolist() for g in gens]

    def extend(images):
        """Grow the partial hom gens[:len(images)] -> images over the
        generated subgroup, reading x*g and f(x)*h from table columns;
        None on any inconsistency."""
        amap = {a.identity: b.identity}
        frontier = [a.identity]
        for g, h in zip(gens, images):
            if g in amap:
                if amap[g] != h:
                    return None
            else:
                amap[g] = h
                frontier.append(g)
        cols = list(zip(cols_a, [b.table[:, h].tolist() for h in images]))
        while frontier:
            new = []
            for col_g, col_h in cols:
                for x in frontier:
                    y = col_g[x]
                    fy = col_h[amap[x]]
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


def _atom_table(i: int) -> CayleyTable:
    if i not in _atom_cache:
        _atom_cache[i] = _ATOMS[i][2]()
    return _atom_cache[i]


def _sequence_histogram(seq) -> Counter:
    """Element-order histogram of a product of atoms, by lcm convolution."""
    from math import lcm
    hist = Counter({1: 1})
    for i in seq:
        atom, nxt = _atom_table(i).element_order_histogram(), Counter()
        for o1, m1 in hist.items():
            for o2, m2 in atom.items():
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


def _candidate(seq: tuple) -> CayleyTable:
    """The table of the product of the atoms ``seq``."""
    tables = [_atom_table(i) for i in seq]
    label = " x ".join(_ATOMS[i][0] for i in seq)
    return tables[0] if len(tables) == 1 else product_table(tables, label=label)


def match_named(table: CayleyTable, iso_limit: int = DEFAULT_LIMITS.iso_limit,
                candidate=_candidate) -> Optional[str]:
    """Label of the first library group isomorphic to ``table``, or None.

    Candidates are prefiltered on abelianness and the element-order
    histogram (both computable from atom data without building the product
    table), so only plausible products are materialized, by ``candidate``.
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
        if are_isomorphic(table, candidate(seq), iso_limit):
            return " x ".join(_ATOMS[i][0] for i in seq)
    return None


# ---------------------------------------------------------------------------
# One command's memo


def _table_key(table: np.ndarray, identity=None) -> tuple:
    """The exact narrow table as a dict key, never a digest."""
    return (len(table), identity, table.tobytes())


class GroupMemo:
    """Checked tables, library names and isomorphism verdicts, each worked
    out once per distinct table; the library's candidate tables, each built
    once per atom sequence; and the arrays of expressions and of their
    sub-expressions (factors, wreath bases and the S_k of each wreath
    product), each built once per expression text.  A caller makes one for
    one command (one ``iso_limit``) and drops it with the command."""

    def __init__(self, iso_limit: int):
        self.iso_limit, self._done = iso_limit, {}

    def _once(self, key, compute):
        if key not in self._done:
            self._done[key] = compute()
        return self._done[key]

    def table(self, table: np.ndarray, label: str = "") -> CayleyTable:
        """``CayleyTable(table)``, checked on the first sight of the array
        only; a later ``label`` for the same array is dropped."""
        return self._once(("table", _table_key(table)), lambda: CayleyTable(table, label=label))

    def expr_table(self, expr: GroupExpr) -> np.ndarray:
        """``_expr_table(expr)``, built once per expression text."""
        return self._once(("expr", expr.text()), lambda: _expr_table(expr, self))

    def name(self, t: CayleyTable) -> Optional[str]:
        return self._once(("name", _table_key(t.table, t.identity)),
                          lambda: match_named(t, self.iso_limit, self._candidate))

    def _candidate(self, seq: tuple) -> CayleyTable:
        return self._once(("candidate", seq), lambda: _candidate(seq))

    def isomorphic(self, a: CayleyTable, b: CayleyTable) -> Optional[bool]:
        return self._once(("iso", _table_key(a.table, a.identity), _table_key(b.table, b.identity)),
                          lambda: are_isomorphic(a, b, self.iso_limit))
