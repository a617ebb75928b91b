"""Finite-dimensional vector spaces over a prime field F_q.

Morphisms F^n -> F^m are m x n matrices; the pair (GL_n, GL_m) acts by
(P, Q) . A = Q A P^{-1} and the orbits are exactly the rank classes.  Level
0 of the classifying diagram decomposes into B(GL_n) components, level 1
into one component per rank with stabilizer orders recovered both by
orbit-stabilizer division and, within scan limits, by a direct exhaustive
scan over all (P, Q) pairs.  The dimension <= 2 stabilizers have explicit
unit/additive-group descriptions that the scans confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import chains as chains_mod
from . import modp
from .classifying import Component
from .fincat import CategoryError, FiniteCategory
from .finset import DiffReport
from .groups import (FieldAdditive, FieldUnits, GeneralLinear, GroupError,
                     GroupMemo, Product, materialize, table_from_elements)
from .limits import DEFAULT_LIMITS, Limits

# vect_skeleton and orbits_by_rank enumerate at most this many matrices, and
# no field is larger: that keeps the loops of is_prime (over the root of q)
# and primitive_root (over q) under a second.
ENUM_BOUND = 2 ** 20

# orbits_by_rank counts a stabilizer by a direct scan over GL_n x GL_m when
# the pair count is at most this.
SCAN_BOUND = 100_000


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
    objects = [str(d) for d in range(max_dim + 1)]
    # entries above 9 need a separator: (1, 10) and (11, 0) would both read 110
    sep = "_" if q > 10 else ""
    digits = [str(v) for v in range(q)]     # the id text of an entry, read from a table
    payloads, morphisms = [], []
    for n in range(max_dim + 1):
        ident = modp.identity(n)
        for m in range(max_dim + 1):
            for rows in modp.all_matrices(m, n, q):
                payload = (n, m, rows)
                if n == m and rows == ident:
                    mid = f"id_{n}"
                else:
                    flat = sep.join([digits[v] for row in rows for v in row])
                    mid = f"m{n}_{m}_{flat}"
                payloads.append(payload)
                morphisms.append((mid, str(n), str(m)))
    identity = {str(n): f"id_{n}" for n in range(max_dim + 1)}

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

    return FiniteCategory(objects, morphisms, identity,
                          payloads=payloads, compose_payload=comp, inverse_payload=inv,
                          codec=_MatrixCodec(max_dim, q), name=f"vect:{max_dim}:{q}")


class _MatrixCodec:
    """The hom-set codec of the skeleton (``FiniteCategory``): a matrix
    F^n -> F^m is its m x n entries below q, so g after F and F after h
    are batched products mod q.  The dtype holds the sums of a product
    before they are reduced."""

    def __init__(self, max_dim: int, q: int):
        self.q = q
        self.dtype = np.min_scalar_type((q - 1) ** 2 * max(max_dim, 1))

    def values(self, n, m, payloads):
        return np.array([p[2] for p in payloads], dtype=self.dtype).reshape(len(payloads), m, n)

    def radix(self, n, m):
        return self.q

    def left(self, g, F):
        return g @ F % self.q

    def right(self, F, h):
        return F @ h % self.q


# ---------------------------------------------------------------------------
# Rank orbits per (n, m) cell


@dataclass
class RankClass:
    rank: int
    class_size: int
    orbit_verified: bool          # breadth-first action covers the whole class
    stabilizer_order: int         # by orbit-stabilizer division
    scan_order: Optional[int]     # direct pair scan, when within SCAN_BOUND
    policy: str
    expr_text: Optional[str] = None   # named form, dimensions <= 2 only


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


def _named_rank_expr(n: int, m: int, r: int, q: int) -> Optional[str]:
    """Display form of the rank-r stabilizer when both dimensions are <= 2."""
    if n > 2 or m > 2:
        return None

    def gl_text(d):
        if d == 0:
            return None
        return FieldUnits(q).text() if d == 1 else GeneralLinear(2, q).text()

    if r == 0:
        parts = [t for t in (gl_text(n), gl_text(m)) if t]
        return " x ".join(parts) if parts else "1"
    if r == n == m:
        return gl_text(n) or "1"
    return _column_text(q) if {n, m} == {1, 2} else _diag_text(q)


def check_enumerable(n: int, m: int, q: int) -> None:
    """Raise CategoryError when there are more than ENUM_BOUND m x n
    matrices over F_q."""
    # q >= 2, so n * m > 20 alone means more than 2^20 matrices
    if n * m > 20 or q ** (n * m) > ENUM_BOUND:
        raise CategoryError(f"{q}^{n * m} matrices exceeds enumeration bound {ENUM_BOUND}")


def orbits_by_rank(n: int, m: int, q: int) -> VectCell:
    """Enumerate all m x n matrices, group them by rank, and verify each
    rank class is one orbit by breadth-first action from the canonical
    representative."""
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
        rep = canonical_rank_rep(r, m, n)
        if rep not in by_rank[r]:
            raise CategoryError(f"canonical rank-{r} matrix has another rank")
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
        verified = seen == by_rank[r]
        size = len(by_rank[r])
        if group_order % size:
            raise CategoryError(f"rank-{r} class size does not divide the group order")
        stab = group_order // size
        scan = direct_scan_stabilizer_order(rep, n, m, q)
        policy = "division+scan" if scan is not None else "division-only"
        classes.append(RankClass(rank=r, class_size=size, orbit_verified=verified,
                                 stabilizer_order=stab, scan_order=scan,
                                 policy=policy,
                                 expr_text=_named_rank_expr(n, m, r, q)))
    cell = VectCell(n=n, m=m, q=q, classes=classes)
    if not cell.check_counts():
        raise CategoryError("rank class sizes do not sum to q^(nm)")
    return cell


# ---------------------------------------------------------------------------
# The dimension <= 2 stabilizer catalogue


def _column_text(q: int) -> str:
    """Display form of the stabilizer of the column [1;0]."""
    u, a = FieldUnits(q), FieldAdditive(q)
    return Product([u, u, a]).text() if q == 2 else "{([a],[[a,x],[0,z]])}"


def _diag_text(q: int) -> str:
    """Display form of the stabilizer of diag(1,0)."""
    u, a = FieldUnits(q), FieldAdditive(q)
    return (Product([u, u, u, a, a]).text() if q == 2
            else "{([[a,b],[0,d]],[[a,0],[y,z]])}")


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
    expr_text: str
    order: int
    _elements: object = None      # q -> list of (C, D) pairs, or None to use expr
    expr: object = None
    q: int = 0

    def table(self, table_limit: int):
        """The stabilizer subgroup as a concrete Cayley table; the elements
        are listed only within ``table_limit``."""
        if self._elements is None:
            return materialize(self.expr, table_limit)
        if self.order > table_limit:
            raise CategoryError(
                f"stabilizer of order {self.order} exceeds table_limit {table_limit}")
        q = self.q

        def mul(e1, e2):
            (c1, d1), (c2, d2) = e1, e2
            return (modp.mul(c1, c2, q), modp.mul(d1, d2, q))

        return table_from_elements(self._elements(q), mul, label=self.case)


def paper_stabilizers_dim_le2(q: int) -> list:
    """The five explicit stabilizer cases in dimensions <= 2.

    rank-0: the full GL_n x GL_m (instantiated at n = m = 2);
    the 1 x 1 unit [1]: pairs (C, C^{-1}), one unit group;
    the column [1;0]: pairs ([a], [[a,x],[0,z]]) with a, z units;
    diag(1,0): pairs ([[a,b],[0,d]], [[a,0],[y,z]]);
    the full-rank 2 x 2: pairs (C, C^{-1}), a copy of GL_2.

    The column and diag cases list their elements explicitly when tabled:
    the entrywise parametrization is exact, but the multiplication twists the
    off-diagonal coordinates, so for q > 2 these groups are nonabelian and
    in particular not direct products of unit/additive groups (they only
    have the same order).  At q = 2 the twist vanishes and the direct
    product reading is exact.
    """
    if not modp.is_prime(q):
        raise GroupError(f"q={q} is not prime")
    u = FieldUnits(q)
    gl2 = GeneralLinear(2, q)
    zero22 = tuple(tuple(0 for _ in range(2)) for _ in range(2))
    return [
        StabilizerCase("rank-0 2x2", 2, 2, zero22,
                       Product([gl2, gl2]).text(), gl2.order() ** 2,
                       None, Product([gl2, gl2]), q),
        StabilizerCase("unit 1x1", 1, 1, ((1,),),
                       u.text(), q - 1, None, u, q),
        StabilizerCase("column [1;0]", 1, 2, ((1,), (0,)),
                       _column_text(q), (q - 1) ** 2 * q, _column_elements, None, q),
        StabilizerCase("diag(1,0) 2x2", 2, 2, ((1, 0), (0, 0)),
                       _diag_text(q), (q - 1) ** 3 * q * q, _diag_elements, None, q),
        StabilizerCase("full-rank 2x2", 2, 2, ((1, 0), (0, 1)),
                       gl2.text(), gl2.order(), None, gl2, q),
    ]


def vect_level0(max_dim: int, q: int) -> list:
    out = []
    for d in range(max_dim + 1):
        order = glnq_order(d, q)
        out.append(Component(
            level=0, cell=(str(d),), representative=(str(d),),
            orbit_size=1, group_order=order,
            group_expr="1" if d == 0 else GeneralLinear(d, q).text(),
            policy="closed-form",
            extra={"dimension": d}))
    return out


# ---------------------------------------------------------------------------
# Oracle diff


def oracle_diff_vect(max_dim: int, q: int,
                     limits: Limits = DEFAULT_LIMITS) -> DiffReport:
    """Compare the generic chain engine on the matrix skeleton against
    orbits_by_rank and the explicit dimension <= 2 stabilizer catalogue."""
    skel = vect_skeleton(max_dim, q)
    report = DiffReport(subject=f"vect max_dim={max_dim} q={q}")
    memo = GroupMemo(limits.iso_limit)

    paper_cases = {(c.n, c.m, modp.rank(c.representative, q)): c
                   for c in paper_stabilizers_dim_le2(q)}
    # transpose twins of the catalogue (pairs (C,D) <-> (D^T, C^T))
    for (n, m, r), c in list(paper_cases.items()):
        if (m, n, r) not in paper_cases:
            paper_cases[(m, n, r)] = c

    # (rank, (size, stabilizer order, block, row)) per component
    by_cell = {}
    for block in chains_mod.level_blocks(skel, 1, limits):
        for k, (f, size) in enumerate(zip(block.reps[:, 0].tolist(), block.fiber_sizes)):
            n, m, rows = skel.payloads[f]
            by_cell.setdefault((n, m), []).append(
                (modp.rank(rows, q), (size * block.multiplicity, block.orders[k], block, k)))

    for n in range(max_dim + 1):
        for m in range(max_dim + 1):
            cell = orbits_by_rank(n, m, q)
            got = dict(by_cell.get((n, m), []))
            if sorted(got) != [c.rank for c in cell.classes]:
                report.add(f"cell ({n},{m}): orbit ranks {sorted(got)} vs "
                           f"rank classes {[c.rank for c in cell.classes]}")
                continue
            for cls in cell.classes:
                report.checked += 1
                size, order, block, k = got[cls.rank]
                if size != cls.class_size:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: orbit size "
                               f"{size} != rank class size {cls.class_size}")
                if not cls.orbit_verified:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: rank class is "
                               f"not a single orbit")
                if order != cls.stabilizer_order:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: stabilizer "
                               f"{order} != {cls.stabilizer_order}")
                if cls.scan_order is not None and cls.scan_order != order:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: direct scan "
                               f"{cls.scan_order} != engine {order}")
                case = paper_cases.get((n, m, cls.rank))
                if case is not None:
                    if case.order != order:
                        report.add(
                            f"cell ({n},{m}) rank {cls.rank}: catalogue order "
                            f"{case.order} ({case.expr_text}) != {order}")
                    elif case.order > limits.iso_limit:
                        report.policies[(n, m, cls.rank)] = "order-only"
                    else:
                        report.policies[(n, m, cls.rank)] = "isomorphism"
                        # groups of order 1 are isomorphic
                        if case.order > 1 and memo.isomorphic(
                                block.stabilizer(k).to_cayley_table(limits.table_limit, memo),
                                case.table(limits.table_limit)) is not True:
                            report.add(
                                f"cell ({n},{m}) rank {cls.rank}: stabilizer not "
                                f"isomorphic to {case.expr_text}")

    # transpose duality of component multisets
    for n in range(max_dim + 1):
        for m in range(n + 1, max_dim + 1):
            a, b = (sorted((r, size, order) for r, (size, order, _, _) in by_cell.get(cell, []))
                    for cell in ((n, m), (m, n)))
            if a != b:
                report.add(f"transpose symmetry broken between cells ({n},{m}) and ({m},{n})")
    return report
