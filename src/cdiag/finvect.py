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

from . import chains as chains_mod
from . import modp
from .classifying import Component
from .fincat import CategoryError, FiniteCategory
from .finset import DiffReport
from .groups import (FieldAdditive, FieldUnits, GeneralLinear, GroupError,
                     Product, are_isomorphic, materialize, table_from_elements)
from .limits import DEFAULT_LIMITS, Limits

# orbits_by_rank enumerates at most this many matrices.
_ENUM_BOUND = 2 ** 20


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
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i); GL_0 is trivial."""
    if not modp.is_prime(q):
        raise GroupError(f"q={q} is not prime")
    if n < 0:
        raise GroupError(f"GL_n needs n >= 0, got {n}")
    qn = q ** n
    out = 1
    for i in range(n):
        out *= qn - q ** i
    return out


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
    if not modp.is_prime(q):
        raise GroupError(f"q={q} is not prime")
    if max_dim < 0:
        raise CategoryError(f"max_dim must be at least 0, got {max_dim}")
    objects = [str(d) for d in range(max_dim + 1)]
    # entries above 9 need a separator: (1, 10) and (11, 0) would both read 110
    sep = "_" if q > 10 else ""
    payloads, morphisms = [], []
    for n in range(max_dim + 1):
        for m in range(max_dim + 1):
            for rows in modp.all_matrices(m, n, q):
                payload = (n, m, rows)
                if n == m and rows == modp.identity(n):
                    mid = f"id_{n}"
                else:
                    flat = sep.join(str(v) for row in rows for v in row)
                    mid = f"m{n}_{m}_{flat}"
                payloads.append(payload)
                morphisms.append((mid, str(n), str(m)))
    identity = {str(n): f"id_{n}" for n in range(max_dim + 1)}

    def comp(gp, fp):
        (gn, gm, g), (fn, fm, f) = gp, fp
        assert fm == gn
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
                          payloads=payloads, compose_payload=comp,
                          inverse_payload=inv, name=f"vect:{max_dim}:{q}")


# ---------------------------------------------------------------------------
# Rank orbits per (n, m) cell


@dataclass
class RankClass:
    rank: int
    class_size: int
    orbit_verified: bool          # breadth-first action covers the whole class
    stabilizer_order: int         # by orbit-stabilizer division
    scan_order: Optional[int]     # direct pair scan, when within scan_limit
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
                                 scan_limit: int) -> Optional[int]:
    """Exhaustive scan over GL_n x GL_m counting pairs with Q A = A P.

    Returns None when the pair count exceeds ``scan_limit``.
    """
    total = glnq_order(n, q) * glnq_order(m, q)
    if total > scan_limit:
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
    if {n, m} == {1, 2}:
        u, a = FieldUnits(q), FieldAdditive(q)
        return Product([u, u, a]).text() if q == 2 else "{([a],[[a,x],[0,z]])}"
    u, a = FieldUnits(q), FieldAdditive(q)
    return (Product([u, u, u, a, a]).text() if q == 2
            else "{([[a,b],[0,d]],[[a,0],[y,z]])}")


def orbits_by_rank(n: int, m: int, q: int, limits: Limits = DEFAULT_LIMITS) -> VectCell:
    """Enumerate all m x n matrices, group them by rank, and verify each
    rank class is one orbit by breadth-first action from the canonical
    representative."""
    count = q ** (n * m)
    if count > _ENUM_BOUND:
        raise CategoryError(f"{count} matrices exceeds enumeration bound {_ENUM_BOUND}")
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
        scan = direct_scan_stabilizer_order(rep, n, m, q, limits.scan_limit)
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


@dataclass
class StabilizerCase:
    case: str
    n: int
    m: int
    representative: tuple
    expr_text: str
    order: int
    _elements: object = None      # list of (C, D) pairs, or None to use expr
    expr: object = None
    q: int = 0

    def table(self, table_limit: int):
        """The stabilizer subgroup as a concrete Cayley table."""
        if self._elements is None:
            return materialize(self.expr, table_limit)
        if len(self._elements) > table_limit:
            raise CategoryError(
                f"stabilizer of order {len(self._elements)} exceeds "
                f"table_limit {table_limit}")
        q = self.q

        def mul(e1, e2):
            (c1, d1), (c2, d2) = e1, e2
            return (modp.mul(c1, c2, q), modp.mul(d1, d2, q))

        return table_from_elements(self._elements, mul, label=self.case)


def paper_stabilizers_dim_le2(q: int) -> list:
    """The five explicit stabilizer cases in dimensions <= 2.

    rank-0: the full GL_n x GL_m (instantiated at n = m = 2);
    the 1 x 1 unit [1]: pairs (C, C^{-1}), one unit group;
    the column [1;0]: pairs ([a], [[a,x],[0,z]]) with a, z units;
    diag(1,0): pairs ([[a,b],[0,d]], [[a,0],[y,z]]);
    the full-rank 2 x 2: pairs (C, C^{-1}), a copy of GL_2.

    The column and diag cases carry their explicit element lists: the
    entrywise parametrization is exact, but the multiplication twists the
    off-diagonal coordinates, so for q > 2 these groups are nonabelian and
    in particular not direct products of unit/additive groups (they only
    have the same order).  At q = 2 the twist vanishes and the direct
    product reading is exact.
    """
    if not modp.is_prime(q):
        raise GroupError(f"q={q} is not prime")
    u, a = FieldUnits(q), FieldAdditive(q)
    gl2 = GeneralLinear(2, q)
    units = range(1, q)
    zero22 = tuple(tuple(0 for _ in range(2)) for _ in range(2))

    column_els = [(((w,),), ((w, x), (0, z)))
                  for w in units for x in range(q) for z in units]
    diag_els = [(((w, b), (0, d)), ((w, 0), (y, z)))
                for w in units for b in range(q) for d in units
                for y in range(q) for z in units]
    column_text = Product([u, u, a]).text() if q == 2 else "{([a],[[a,x],[0,z]])}"
    diag_text = (Product([u, u, u, a, a]).text() if q == 2
                 else "{([[a,b],[0,d]],[[a,0],[y,z]])}")
    return [
        StabilizerCase("rank-0 2x2", 2, 2, zero22,
                       Product([gl2, gl2]).text(), gl2.order() ** 2,
                       None, Product([gl2, gl2]), q),
        StabilizerCase("unit 1x1", 1, 1, ((1,),),
                       u.text(), q - 1, None, u, q),
        StabilizerCase("column [1;0]", 1, 2, ((1,), (0,)),
                       column_text, (q - 1) ** 2 * q, column_els, None, q),
        StabilizerCase("diag(1,0) 2x2", 2, 2, ((1, 0), (0, 0)),
                       diag_text, (q - 1) ** 3 * q * q, diag_els, None, q),
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
    orbs = chains_mod.orbits(skel, 1, limits)
    report = DiffReport(subject=f"vect max_dim={max_dim} q={q}")

    paper_cases = {(c.n, c.m, modp.rank(c.representative, q)): c
                   for c in paper_stabilizers_dim_le2(q)}
    # transpose twins of the catalogue (pairs (C,D) <-> (D^T, C^T))
    for (n, m, r), c in list(paper_cases.items()):
        if (m, n, r) not in paper_cases:
            paper_cases[(m, n, r)] = c

    by_cell = {}
    for o in orbs:
        n, m, rows = skel._payloads[o.rep.mors[0]]
        by_cell.setdefault((n, m), []).append((modp.rank(rows, q), o))

    for n in range(max_dim + 1):
        for m in range(max_dim + 1):
            cell = orbits_by_rank(n, m, q, limits)
            got = dict(by_cell.get((n, m), []))
            if sorted(got) != [c.rank for c in cell.classes]:
                report.add(f"cell ({n},{m}): orbit ranks {sorted(got)} vs "
                           f"rank classes {[c.rank for c in cell.classes]}")
                continue
            for cls in cell.classes:
                report.checked += 1
                o = got[cls.rank]
                if o.size != cls.class_size:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: orbit size "
                               f"{o.size} != rank class size {cls.class_size}")
                if not cls.orbit_verified:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: rank class is "
                               f"not a single orbit")
                if o.stabilizer.order != cls.stabilizer_order:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: stabilizer "
                               f"{o.stabilizer.order} != {cls.stabilizer_order}")
                if cls.scan_order is not None and cls.scan_order != o.stabilizer.order:
                    report.add(f"cell ({n},{m}) rank {cls.rank}: direct scan "
                               f"{cls.scan_order} != engine {o.stabilizer.order}")
                case = paper_cases.get((n, m, cls.rank))
                if case is not None:
                    if case.order != o.stabilizer.order:
                        report.add(
                            f"cell ({n},{m}) rank {cls.rank}: catalogue order "
                            f"{case.order} ({case.expr_text}) != {o.stabilizer.order}")
                    elif case.order <= limits.iso_limit:
                        stab_table = o.stabilizer.to_cayley_table(limits.table_limit)
                        want = case.table(limits.table_limit)
                        if are_isomorphic(stab_table, want, limits.iso_limit) is not True:
                            report.add(
                                f"cell ({n},{m}) rank {cls.rank}: stabilizer not "
                                f"isomorphic to {case.expr_text}")
                        report.policies[(n, m, cls.rank)] = "isomorphism"
                    else:
                        report.policies[(n, m, cls.rank)] = "order-only"

    # transpose duality of component multisets
    for n in range(max_dim + 1):
        for m in range(n + 1, max_dim + 1):
            a = sorted((r, o.size, o.stabilizer.order) for r, o in by_cell.get((n, m), []))
            b = sorted((r, o.size, o.stabilizer.order) for r, o in by_cell.get((m, n), []))
            if a != b:
                report.add(f"transpose symmetry broken between cells ({n},{m}) and ({m},{n})")
    return report
