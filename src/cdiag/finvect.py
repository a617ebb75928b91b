"""Finite-dimensional vector spaces over a prime field F_q.

Morphisms F^n -> F^m are m x n matrices; the pair (GL_n, GL_m) acts by
(P, Q) . A = Q A P^{-1} and the orbits are exactly the rank classes.  Level
0 of the classifying diagram decomposes into B(GL_n) components, level 1
into one component per rank with stabilizer orders recovered both by
orbit-stabilizer division and, within scan limits, by a direct exhaustive
scan over all (P, Q) pairs; a disagreement is a failed self-check.  In
dimensions <= 2 every rank class has a named stabilizer, built by
``rank_case`` alone: ``finvect`` prints it for the rank rows and the
five-case catalogue, and ``oracle_diff_vect`` tests each one of order at
most iso_limit against the engine's stabilizer by isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import chains as chains_mod
from . import modp
from .classifying import ClosedForm, Component, DiffReport, diff_closed_forms
from .fincat import CategoryError, FiniteCategory
from .groups import (FieldAdditive, FieldUnits, GeneralLinear, GroupError,
                     GroupMemo, Product, _strides, materialize, radix_codes, table_by_codes,
                     table_refusal)
from .limits import DEFAULT_LIMITS, Limits

# vect_skeleton and orbits_by_rank enumerate at most this many matrices, and
# no field is larger: that keeps the loops of is_prime (over the root of q)
# and primitive_root (over q) under a second.
ENUM_BOUND = 2 ** 20

# orbits_by_rank counts a stabilizer by a direct scan over GL_n x GL_m when
# the pair count is at most this.
SCAN_BOUND = 100_000

# _MatrixCodec.units eliminates on blocks of about this many entries, so its
# working memory does not grow with the number of matrices.
_ELIMINATION_CELLS = 1 << 16


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

    def __repr__(self):
        return f"MatrixFq(q={self.q}, {self.rows})"


def glnq_order(n: int, q: int) -> int:
    """|GL_n(F_q)|, as ``GeneralLinear(n, q).order()``; GL_0 is trivial."""
    if not modp.is_prime(q):
        raise GroupError(f"q={q} is not prime")
    if n < 0:
        raise GroupError(f"GL_n needs n >= 0, got {n}")
    return 1 if n == 0 else GeneralLinear(n, q).order()


def matrix_action(P: tuple, Q: tuple, A: MatrixFq) -> MatrixFq:
    """(P, Q) . A = Q A P^{-1} with P in GL_n, Q in GL_m."""
    q = A.q
    if len(P) != A.n_cols or len(Q) != A.m_rows:
        raise CategoryError("dimension mismatch in matrix action")
    Pinv = modp.inverse(P, q)
    if Pinv is None or modp.inverse(Q, q) is None:
        raise CategoryError("action requires invertible matrices")
    return MatrixFq(q, modp.mul(modp.mul(Q, A.rows, q), Pinv, q))


def canonical_rank_rep(rank: int, m: int, n: int) -> tuple:
    """The m x n matrix with an identity block of the given rank top-left."""
    return tuple(tuple(1 if (i == j and i < rank) else 0 for j in range(n))
                 for i in range(m))


# ---------------------------------------------------------------------------
# Skeleton construction


def vect_skeleton(max_dim: int, q: int) -> FiniteCategory:
    """Objects 0..max_dim (spaces F^d); morphisms all matrices over F_q."""
    if max_dim < 0:
        raise CategoryError(f"max_dim must be at least 0, got {max_dim}")
    # checked before the primality test, whose trial division runs for
    # minutes on a large q; max_dim^2 > 20 alone means more than 2^20 matrices
    if max_dim * max_dim > 20 or sum(q ** (n * m) for n in range(max_dim + 1)
                                     for m in range(max_dim + 1)) > ENUM_BOUND:
        raise CategoryError(f"vect:{max_dim}:{q} has more than {ENUM_BOUND} morphisms")
    if q > ENUM_BOUND:
        raise CategoryError(f"vect:{max_dim}:{q} needs q <= {ENUM_BOUND}")
    if not modp.is_prime(q):
        raise GroupError(f"q={q} is not prime")
    dims = range(max_dim + 1)

    def comp(gp, fp):
        (gn, gm, g), (fn, _, f) = gp, fp
        if gn == 0:
            # factoring through F^0: the zero map, whose shape the bare row
            # tuples cannot carry
            rows = tuple(tuple(0 for _ in range(fn)) for _ in range(gm))
        else:
            rows = modp.mul(g, f, q)
        return (fn, gm, rows)

    def inv(p):
        n, m, rows = p
        if n != m:
            return None
        r = modp.inverse(rows, q)
        return None if r is None else (n, n, r)

    return FiniteCategory.coded([str(d) for d in dims],
                                [[np.arange(q ** (n * m)) for m in dims] for n in dims],
                                codec=_MatrixCodec(max_dim, q), compose_payload=comp,
                                inverse_payload=inv, name=f"vect:{max_dim}:{q}")


class _MatrixCodec:
    """The hom-set codec of the skeleton (``FiniteCategory.coded``): a
    matrix F^n -> F^m is its m x n entries below q, coded in base q row by
    row, so g after F and F after h are batched products mod q.  The dtype
    holds the sums of a product before they are reduced."""

    def __init__(self, max_dim: int, q: int):
        self.q = q
        self.dtype = np.min_scalar_type((q - 1) ** 2 * max(max_dim, 1))
        # entries above 9 need a separator: (1, 10) and (11, 0) would both read 110
        self.sep = "_" if q > 10 else ""
        self._place = {}        # (n, m) -> the place values of a code of n -> m
        self._recip = None      # the inverse of each unit mod q, made by the first units call

    def bound(self, n, m):
        return self.q ** (n * m)

    def identity(self, n):
        return sum(self.q ** (n * n - 1 - i * (n + 1)) for i in range(n))

    def decode(self, n, m, codes):
        if (n, m) not in self._place:
            self._place[n, m] = _strides([self.q] * (m * n))
        codes = np.asarray(codes)
        digits = codes[:, None] // self._place[n, m] % self.q
        return digits.astype(self.dtype).reshape(len(codes), m, n)

    def ids(self, n, m, stack):
        one = np.eye(n, dtype=int).ravel().tolist() if n == m else None
        return [f"id_{n}" if row == one else f"m{n}_{m}_" + self.sep.join(map(str, row))
                for row in stack.reshape(len(stack), -1).tolist()]

    def payloads(self, n, m, stack):
        return [(n, m, tuple(map(tuple, rows))) for rows in stack.tolist()]

    def radix(self, n, m):
        return self.q

    def left(self, g, F):
        return g @ F % self.q

    def right(self, F, h):
        return F @ h % self.q

    def units(self, E):
        """(invertible, inverses) of the stack E of n x n matrices: which
        are invertible, and the stack of their inverses, by Gauss-Jordan
        elimination of [E | I] mod q on blocks of about _ELIMINATION_CELLS
        entries, in int32, or int64 when that is needed to hold +-q^2 (int8,
        enough for q <= 11, ran about 10% faster but raised the peak RSS of
        a process by about 0.3 MB).  A matrix with no pivot in some column
        is singular; its rows are reduced on regardless and dropped at the
        end."""
        n, q = E.shape[1], self.q
        if self._recip is None:
            work = np.result_type(np.min_scalar_type(-q * q), np.int32)
            self._recip = np.array([0] + [pow(v, -1, q) for v in range(1, q)], dtype=work)
        recip = self._recip
        work = recip.dtype
        block = max(1, _ELIMINATION_CELLS // max(2 * n * n, 1))
        invertible, inverses = [], []
        for lo in range(0, len(E), block):
            part = E[lo:lo + block]
            at = np.arange(len(part))
            aug = np.zeros((len(part), n, 2 * n), dtype=work)
            aug[:, :, :n] = part
            aug.reshape(len(part), -1)[:, n::2 * n + 1] = 1     # I, entry (i, n + i)
            alive = np.ones(len(part), dtype=bool)
            for c in range(n):
                nonzero = aug[:, c:, c] != 0
                alive &= nonzero.any(axis=1)
                pivot = c + nonzero.argmax(axis=1)
                row = aug[at, pivot]            # the pivot row, swapped into row c
                aug[at, pivot] = aug[:, c]
                row *= recip[row[:, c], None]
                row %= q
                aug -= aug[:, :, c, None] * row[:, None]     # row c too, then replaced
                aug[:, c] = row
                aug %= q
            invertible.append(alive)
            inverses.append(aug[alive, :, n:])
        return np.concatenate(invertible), np.concatenate(inverses).astype(self.dtype)


# ---------------------------------------------------------------------------
# Rank orbits per (n, m) cell


@dataclass
class RankClass:
    rank: int
    class_size: int
    stabilizer_order: int         # by orbit-stabilizer division
    scan_order: Optional[int]     # direct pair scan, when within SCAN_BOUND
    policy: str
    case: Optional[StabilizerCase] = None   # named form, dimensions <= 2 only

    @property
    def expr_text(self) -> Optional[str]:
        return None if self.case is None else self.case.expr_text


@dataclass
class VectCell:
    n: int
    m: int
    q: int
    classes: list

    def check_counts(self) -> bool:
        return sum(c.class_size for c in self.classes) == self.q ** (self.n * self.m)


def direct_scan_stabilizer_order(A_rows: tuple, n: int, m: int, q: int,
                                 bound: int = SCAN_BOUND) -> Optional[int]:
    """Exhaustive scan over GL_n x GL_m counting pairs with Q A = A P.

    Returns None when the pair count exceeds ``bound``.
    """
    total = glnq_order(n, q) * glnq_order(m, q)
    if total > bound:
        return None
    gln = modp.general_linear(n, q)
    glm = modp.general_linear(m, q)
    right = [modp.mul(A_rows, P, q) for P in gln]
    left = [modp.mul(Q, A_rows, q) for Q in glm]
    count = 0
    for ap in right:
        for qa in left:
            if ap == qa:
                count += 1
    return count


def check_enumerable(n: int, m: int, q: int) -> None:
    """Raise CategoryError when there are more than ENUM_BOUND m x n
    matrices over F_q."""
    # q >= 2, so n * m > 20 alone means more than 2^20 matrices
    if n * m > 20 or q ** (n * m) > ENUM_BOUND:
        raise CategoryError(f"{q}^{n * m} matrices exceeds enumeration bound {ENUM_BOUND}")


def orbits_by_rank(n: int, m: int, q: int) -> VectCell:
    """Enumerate all m x n matrices and group them by rank.  Each rank class
    must be the orbit of its canonical representative (breadth-first action
    by generators), its size must divide |GL_n x GL_m|, the quotient must
    equal a direct scan within SCAN_BOUND and the order of its named form
    (``rank_case``), and the sizes must sum to q^(nm); a class that fails
    raises ``SelfCheckFailed``."""
    check_enumerable(n, m, q)
    by_rank = {}
    for rows in modp.all_matrices(m, n, q):
        by_rank.setdefault(modp.rank(rows, q), set()).add(rows)

    gens_n = modp.gl_generators(n, q)
    gens_m = modp.gl_generators(m, q)
    gens_n_inv = [modp.inverse(g, q) for g in gens_n]
    group_order = glnq_order(n, q) * glnq_order(m, q)

    classes = []
    for r in sorted(by_rank):
        rep, where = canonical_rank_rep(r, m, n), f"{n} -> {m} over F_{q}, rank {r}"
        if rep not in by_rank[r]:
            raise chains_mod.SelfCheckFailed(f"{where}: the canonical matrix has another rank")
        seen = {rep}
        frontier = [rep]
        while frontier:
            new = []
            for rows in frontier:
                for g in gens_m:
                    nxt = modp.mul(g, rows, q)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
                for ginv in gens_n_inv:
                    nxt = modp.mul(rows, ginv, q)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
            frontier = new
        size = len(by_rank[r])
        if seen != by_rank[r]:
            raise chains_mod.SelfCheckFailed(
                f"{where}: the orbit of the canonical matrix has {len(seen)} "
                f"of the {size} matrices of its rank")
        if group_order % size:
            raise chains_mod.SelfCheckFailed(
                f"{where}: class size {size} does not divide the group order {group_order}")
        stab = group_order // size
        scan = direct_scan_stabilizer_order(rep, n, m, q)
        if scan is not None and scan != stab:
            raise chains_mod.SelfCheckFailed(
                f"{where}: direct scan {scan} != division order {stab}")
        case = rank_case(n, m, r, q)
        if case is not None and case.order != stab:
            raise chains_mod.SelfCheckFailed(
                f"{where}: {case.expr_text} has order {case.order}, not {stab}")
        policy = "division+scan" if scan is not None else "division-only"
        classes.append(RankClass(rank=r, class_size=size, stabilizer_order=stab,
                                 scan_order=scan, policy=policy, case=case))
    cell = VectCell(n=n, m=m, q=q, classes=classes)
    if not cell.check_counts():
        raise chains_mod.SelfCheckFailed(f"{n} -> {m} over F_{q}: rank class sizes "
                                         f"do not sum to q^(nm)")
    return cell


# ---------------------------------------------------------------------------
# The dimension <= 2 stabilizer catalogue


def _column_elements(q: int) -> list:
    """The pairs ([a], [[a,x],[0,z]]) with a, z units."""
    units = range(1, q)
    return [(((w,),), ((w, x), (0, z))) for w in units for x in range(q) for z in units]


def _diag_elements(q: int) -> list:
    """The pairs ([[a,b],[0,d]], [[a,0],[y,z]]) with a, d, z units."""
    units = range(1, q)
    return [(((w, b), (0, d)), ((w, 0), (y, z)))
            for w in units for b in range(q) for d in units
            for y in range(q) for z in units]


@dataclass
class StabilizerCase:
    case: str
    n: int
    m: int
    representative: tuple
    q: int
    expr_text: str
    order: int
    expr: object = None           # the GroupExpr, or None for a listed group
    _elements: object = None      # q -> list of (C, D) pairs, when expr is None

    def table(self, table_limit: int, memo: Optional[GroupMemo] = None):
        """The stabilizer subgroup as a concrete Cayley table: an expression
        materialized (through ``memo`` when given), or the listed elements,
        listed only within ``table_limit``.  Listed pairs (C, D) are
        multiplied as stacked matrices mod q, and the products g * x of the
        generators g that ``table_by_codes`` keeps are found among them by
        the base-q code (``radix_codes``) of their entries."""
        if self._elements is None:
            return materialize(self.expr, table_limit, memo)
        if self.order > table_limit:
            raise table_refusal(self.order, table_limit)
        q, pairs = self.q, self._elements(self.q)
        C = np.array([c for c, _ in pairs], dtype=np.int64)
        D = np.array([d for _, d in pairs], dtype=np.int64)

        def code(c, d):
            """The base-q code of the entries of each pair, C's first."""
            return radix_codes(np.concatenate([c.reshape(len(c), -1), d.reshape(len(d), -1)], 1), q)

        def left_codes(g):
            return code(C[g] @ C % q, D[g] @ D % q)

        [identity] = code(np.eye(len(C[0]), dtype=np.int64)[None],
                          np.eye(len(D[0]), dtype=np.int64)[None])
        return table_by_codes(code(C, D), int(identity), left_codes, label=self.case)


def rank_case(n: int, m: int, r: int, q: int) -> Optional[StabilizerCase]:
    """The stabilizer of the canonical rank-r matrix F^n -> F^m when n and
    m are at most 2 (None above), the form that ``finvect`` prints:

    rank 0: GL_n x GL_m, with GL_1 shown as U(q) and GL_0 left out;
    full rank n = m: pairs (C, C^{-1}), a copy of GL_n;
    the column [1;0] (n = 1, m = 2): pairs ([a], [[a,x],[0,z]]) with a, z
    units, a case that the row [1 0] (n = 2, m = 1) reads through the
    isomorphism (C, D) <-> (D^T, C^T);
    diag(1,0) (n = m = 2, rank 1): pairs ([[a,b],[0,d]], [[a,0],[y,z]])
    with a, d, z units.

    The column and diag groups list their elements when tabled: the
    entrywise parametrization is exact, but the multiplication twists the
    off-diagonal coordinates, so for q > 2 these groups are nonabelian and
    in particular not direct products of unit/additive groups (they only
    have the same order).  At q = 2 the twist vanishes and the direct
    product reading is exact.
    """
    if n > 2 or m > 2:
        return None
    u, a = FieldUnits(q), FieldAdditive(q)

    def named(case, expr):
        return StabilizerCase(case, n, m, canonical_rank_rep(r, m, n), q,
                              expr.text(), expr.order(), expr=expr)

    if r == 0:
        return named(f"rank-0 {m}x{n}",
                     Product([u if d == 1 else GeneralLinear(d, q) for d in (n, m) if d]))
    if r == n == m:
        return named("unit 1x1", u) if n == 1 else named("full-rank 2x2", GeneralLinear(2, q))
    if n + m == 3:
        return StabilizerCase("column [1;0]", 1, 2, ((1,), (0,)), q,
                              Product([u, u, a]).text() if q == 2 else "{([a],[[a,x],[0,z]])}",
                              (q - 1) ** 2 * q, _elements=_column_elements)
    return StabilizerCase("diag(1,0) 2x2", 2, 2, ((1, 0), (0, 0)), q,
                          Product([u, u, u, a, a]).text() if q == 2
                          else "{([[a,b],[0,d]],[[a,0],[y,z]])}",
                          (q - 1) ** 3 * q * q, _elements=_diag_elements)


def paper_stabilizers_dim_le2(q: int) -> list:
    """The five explicit stabilizer cases in dimensions <= 2 that
    ``finvect`` prints (``rank_case``): rank 0 at n = m = 2, the 1 x 1 unit
    [1], the column [1;0], diag(1,0) and the full-rank 2 x 2."""
    if not modp.is_prime(q):
        raise GroupError(f"q={q} is not prime")
    return [rank_case(n, m, r, q)
            for n, m, r in ((2, 2, 0), (1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2))]


def vect_level0(max_dim: int, q: int) -> list:
    out = []
    for d in range(max_dim + 1):
        order = glnq_order(d, q)
        out.append(Component(
            level=0, cell=(str(d),), representative=(str(d),),
            orbit_size=1, group_order=order,
            group_expr="1" if d == 0 else GeneralLinear(d, q).text(),
            policy="closed-form"))
    return out


# ---------------------------------------------------------------------------
# Oracle diff


def rank_cells(max_dim: int, q: int) -> dict:
    """``orbits_by_rank(n, m, q)`` of every cell with n, m <= max_dim,
    keyed by (n, m), in row-major order."""
    return {(n, m): orbits_by_rank(n, m, q)
            for n in range(max_dim + 1) for m in range(max_dim + 1)}


def oracle_diff_vect(max_dim: int, q: int, limits: Limits = DEFAULT_LIMITS,
                     cells: Optional[dict] = None) -> DiffReport:
    """Compare the generic chain engine on the matrix skeleton against
    orbits_by_rank through ``classifying.diff_closed_forms``: each orbit is
    keyed by the rank of its representative, and each rank class gives its
    class size, its division order and, when it is named (``rank_case``),
    the group tested by isomorphism.  The cells (n, m) and (m, n) must also
    hold the same (rank, size, order) multiset.  ``cells`` are the
    ``rank_cells(max_dim, q)`` of a caller that has them already; by
    default they are enumerated here."""
    skel = vect_skeleton(max_dim, q)
    report = DiffReport(subject=f"vect max_dim={max_dim} q={q}")
    blocks = chains_mod.level_blocks(skel, 1, limits)
    if cells is None:
        cells = rank_cells(max_dim, q)

    def rank(block, k):
        return modp.rank(skel.payload(block.reps[k, 0])[2], q)

    # object d of the skeleton is F^d, at index d
    forms = {nm: {c.rank: ClosedForm(f"rank {c.rank}", c.stabilizer_order, c.class_size,
                                     c.expr_text, None if c.case is None else c.case.table)
                  for c in cell.classes}
             for nm, cell in cells.items()}
    diff_closed_forms(report, blocks, rank, forms, limits, GroupMemo(limits.iso_limit))

    # transpose duality of component multisets
    found = {b.objs: sorted((rank(b, k), size * b.multiplicity, order)
                            for k, (size, order) in enumerate(zip(b.fiber_sizes, b.orders)))
             for b in blocks}
    for n in range(max_dim + 1):
        for m in range(n + 1, max_dim + 1):
            if found.get((n, m)) != found.get((m, n)):
                report.add(f"transpose symmetry broken between cells ({n},{m}) and ({m},{n})")
    return report
