"""Levels of the classifying diagram and their structural checks.

Level n of the classifying diagram of C is the nerve of the groupoid of
chains of n composable morphisms and invertible ladders between them.  Here
each level is presented as a finite decomposition: one component per chain
class, carrying the class size and the stabilizer group of a representative.
Weak equivalence of levels is replaced throughout by the decidable pair
(component count, automorphism-order multiset), refined by small-group
isomorphism below the configured limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from . import chains as chains_mod
from .chains import Orbit, SelfCheckFailed, StabilizerGroup, TupleBlock, chain_count, orbits
from .fincat import CategoryError, FiniteCategory, maximal_subgroupoid
from .groups import GroupMemo
from .limits import DEFAULT_LIMITS, Limits


# ---------------------------------------------------------------------------
# Decompositions


@dataclass
class Component:
    level: int
    cell: tuple                 # object ids of the representative tuple
    representative: tuple       # morphism ids, or (object id,) at level 0
    orbit_size: int
    group_order: int
    group_expr: Optional[str]
    policy: str                 # "isomorphism" | "order-only" | "closed-form"
    stabilizer: Optional[StabilizerGroup] = None
    orbit: Optional[Orbit] = None
    extra: dict = field(default_factory=dict)

    def group_display(self) -> str:
        if self.group_expr is not None:
            return self.group_expr
        return f"order={self.group_order}"


@dataclass
class Decomposition:
    """Level ``level`` as the ``chains.TupleBlock`` of each object tuple,
    with the (group_expr, policy) of every component, block by block."""

    category: str
    level: int
    total_chains: int
    blocks: list
    names: list

    def orders(self) -> list:
        return sorted(order for b in self.blocks for order in b.orders)

    def __len__(self):
        return sum(len(b) for b in self.blocks)

    def rows(self) -> Iterator[tuple]:
        """(cell, representatives, orbit sizes, orders, names) per block,
        read from its columns: the object ids once per tuple, and the
        representatives' morphism ids (the object id at level 0) by one
        gather."""
        ids = None
        for block, names in zip(self.blocks, self.names):
            cat = block.cat
            cell = tuple(cat.objects[x] for x in block.objs)
            if self.level == 0:
                reps = [list(cell)] * len(block)
            else:
                if ids is None:
                    ids = np.array(cat.mor_ids, dtype=object)
                reps = ids[block.reps].tolist()
            sizes = [size * block.multiplicity for size in block.fiber_sizes]
            yield cell, reps, sizes, block.orders, names

    @cached_property
    def components(self) -> list:
        """One ``Component`` per component, built from the ``Orbit`` views
        of the blocks on first use."""
        comps = []
        for block, names in zip(self.blocks, self.names):
            for o, (expr, policy) in zip(block.orbits(), names):
                comps.append(Component(
                    level=self.level,
                    cell=o.rep.object_ids,
                    representative=o.rep.morphism_ids if self.level else o.rep.object_ids,
                    orbit_size=o.size,
                    group_order=o.stabilizer.order,
                    group_expr=expr,
                    policy=policy,
                    stabilizer=o.stabilizer,
                    orbit=o,
                ))
        return comps


def _match_component_group(block: TupleBlock, k: int, limits: Limits, memo: GroupMemo):
    """(group_expr, policy) for the stabilizer of component ``k``: named
    expression by isomorphism when the order fits iso_limit, otherwise
    order-only reporting.  Only a stabilizer that is tabled gets a
    ``StabilizerGroup``."""
    order = block.orders[k]
    if order == 1:
        return "1", "isomorphism"
    if order <= limits.iso_limit:
        table = block.stabilizer(k).to_cayley_table(limits.table_limit, memo)
        return memo.name(table), "isomorphism"
    return None, "order-only"


def level_decomposition(cat: FiniteCategory, n: int,
                        limits: Limits = DEFAULT_LIMITS) -> Decomposition:
    """Level n as components (representative, class size, stabilizer)."""
    blocks = chains_mod.level_blocks(cat, n, limits)
    memo = GroupMemo(limits.iso_limit)
    names = [[_match_component_group(b, k, limits, memo) for k in range(len(b))]
             for b in blocks]
    total = chain_count(cat, n)
    if sum(b.chains for b in blocks) != total:
        raise SelfCheckFailed("component sizes do not sum to the chain count")
    return Decomposition(category=cat.name, level=n, total_chains=total,
                         blocks=blocks, names=names)


# ---------------------------------------------------------------------------
# Segal maps


@dataclass
class SegalReport:
    level: int
    chain_count: int
    fiber_product_count: int
    bijection_ok: bool

    @property
    def ok(self) -> bool:
        return (self.chain_count == self.fiber_product_count) and self.bijection_ok


def segal_check(cat: FiniteCategory, n: int,
                limits: Limits = DEFAULT_LIMITS) -> SegalReport:
    """Verify that splitting an n-chain into its n single-morphism segments
    is a bijection onto the n-fold fiber product of level 1 over level 0:
    the enumerated rows have n morphisms each, are composable and strictly
    ascending, so distinct, and there are as many as the fiber product's
    size, counted independently over hom-set sizes.  The checks run a
    column at a time over the chain array.  A failure here signals an
    engine bug, not a property of the category."""
    if n < 2:
        raise CategoryError(f"Segal maps start at level 2, got level {n}")
    fiber = chains_mod._limited_chain_count(cat, n, limits)
    rows = chains_mod._chain_array(cat, n)
    src, dst = (np.array(e, dtype=np.min_scalar_type(cat.n_objects)) for e in (cat.src, cat.dst))
    ok = rows.shape[1:] == (n,)
    if ok:
        ok = all(np.array_equal(dst[rows[:, i - 1]], src[rows[:, i]]) for i in range(1, n))
        # each row against the one before: later once a column is greater
        # while every column before it was tied
        later = np.zeros(len(rows[1:]), dtype=bool)
        tied = ~later
        for i in range(n):
            cur, prev = rows[1:, i], rows[:-1, i]
            later |= tied & (cur > prev)
            tied &= cur == prev
        ok = ok and bool(later.all())
    return SegalReport(level=n, chain_count=len(rows),
                       fiber_product_count=fiber, bijection_ok=ok)


# ---------------------------------------------------------------------------
# Completeness via the walking isomorphism


@dataclass
class CompletenessReport:
    class_counts: tuple          # (level 0, level 1) of iso(C)
    aut_order_multisets: tuple
    verdict: bool
    policy: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict


def completeness_check(cat: FiniteCategory,
                       limits: Limits = DEFAULT_LIMITS) -> CompletenessReport:
    """Compare the components of levels 0 and 1 of the classifying diagram
    of iso(C), the maximal subgroupoid of ``cat``: its objects up to
    isomorphism, and its isomorphisms up to invertible squares.  Equal
    class counts, stabilizer orders and, below iso_limit, stabilizer groups
    are the checkable shadow of completeness of the classifying diagram."""
    gpd = maximal_subgroupoid(cat)
    side_a, side_b = orbits(gpd, 0, limits), orbits(gpd, 1, limits)

    counts = (len(side_a), len(side_b))
    multi_a = tuple(sorted(o.stabilizer.order for o in side_a))
    multi_b = tuple(sorted(o.stabilizer.order for o in side_b))
    if counts[0] != counts[1] or multi_a != multi_b:
        return CompletenessReport(counts, (multi_a, multi_b), False,
                                  "class-count + aut-order multiset",
                                  detail="invariant mismatch")

    # group-isomorphism refinement on matching classes, bucketed by order
    policy = "aut-order only"
    detail = []
    buckets_a, buckets_b = {}, {}
    for o in side_a:
        buckets_a.setdefault(o.stabilizer.order, []).append(o.stabilizer)
    for o in side_b:
        buckets_b.setdefault(o.stabilizer.order, []).append(o.stabilizer)
    verdict = True
    memo = GroupMemo(limits.iso_limit)
    for order_key in sorted(buckets_a):
        if order_key > limits.iso_limit:
            detail.append(f"order {order_key}: order-only (above iso_limit)")
            continue
        policy = "aut-order multiset + group isomorphism"
        if order_key == 1:
            continue            # every group of order 1 is trivial
        ta, tb = ([s.to_cayley_table(limits.table_limit, memo) for s in b[order_key]]
                  for b in (buckets_a, buckets_b))
        if not _match_tables(ta, tb, memo):
            verdict = False
            detail.append(f"order {order_key}: no isomorphism matching")
    return CompletenessReport(counts, (multi_a, multi_b), verdict, policy,
                              detail="; ".join(detail))


def _match_tables(ta: list, tb: list, memo: GroupMemo) -> bool:
    """Whether the two lists of groups match one to one under isomorphism.
    Every order here is at most ``iso_limit``, so isomorphism is decided
    and is an equivalence relation; matching each group of ``ta`` to the
    first unused isomorphic one of ``tb`` then finds a perfect matching
    exactly when one exists."""
    if len(ta) != len(tb):
        return False
    free = list(tb)
    for a in ta:
        j = next((j for j, b in enumerate(free) if memo.isomorphic(a, b)), None)
        if j is None:
            return False
        del free[j]
    return True


# ---------------------------------------------------------------------------
# Discreteness


@dataclass
class DiscretenessReport:
    discrete: bool
    levels: list            # (n, component count, all singleton and trivial)
    consistent: bool

    @property
    def ok(self) -> bool:
        return self.consistent


def is_discrete_classifying(cat: FiniteCategory, truncation: int,
                            limits: Limits = DEFAULT_LIMITS) -> DiscretenessReport:
    """True exactly when every isomorphism of ``cat`` is an identity; the
    report confirms the combinatorial shadow level by level: each component
    a singleton with trivial stabilizer."""
    if truncation < 1:
        raise CategoryError(f"truncation must be at least 1, got {truncation}")
    discrete = True
    for f in range(cat.n_morphisms):
        if cat.inverse_idx(f) is not None and not cat.is_identity_idx(f):
            discrete = False
            break
    levels = []
    for n in range(truncation + 1):
        orbs = orbits(cat, n, limits)
        flat = all(o.size == 1 and o.stabilizer.order == 1 for o in orbs)
        levels.append((n, len(orbs), flat))
    consistent = all(flat == discrete for _, _, flat in levels)
    return DiscretenessReport(discrete=discrete, levels=levels, consistent=consistent)


# ---------------------------------------------------------------------------
# Face and degeneracy maps: truncated nerves of groupoids, and components


@dataclass
class TruncatedSimplicialSet:
    levels: list            # levels[0]: object indices; levels[n]: morphism rows
    faces: dict             # (n, i) -> level-(n-1) row number of each level-n row
    degeneracies: dict      # (n, j) -> level-(n+1) row number of each level-n row

    @property
    def level_sizes(self) -> list:
        return [len(l) for l in self.levels]

    def check_simplicial_identities(self) -> bool:
        """Each identity is one comparison of gathered row-number arrays."""
        d, s = self.faces, self.degeneracies
        L = len(self.levels) - 1
        for n in range(2, L + 1):
            for j in range(n + 1):
                for i in range(j):
                    if not np.array_equal(d[(n - 1, i)][d[(n, j)]], d[(n - 1, j - 1)][d[(n, i)]]):
                        return False
        for n in range(L):
            same = np.arange(len(self.levels[n]))
            for j in range(n + 1):
                for i in range(n + 2):
                    if i == j or i == j + 1:
                        want = same
                    elif i < j:
                        want = s[(n - 1, j - 1)][d[(n, i)]]
                    else:
                        want = s[(n - 1, j)][d[(n, i - 1)]]
                    if not np.array_equal(d[(n + 1, i)][s[(n, j)]], want):
                        return False
        for n in range(L - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    if not np.array_equal(s[(n + 1, i)][s[(n, j)]], s[(n + 1, j + 1)][s[(n, i)]]):
                        return False
        return True


#: Highest level ``nerve_truncation`` and ``component_maps`` build.
MAX_NERVE_TRUNCATION = 4


def _check_truncation(truncation: int) -> None:
    if not 0 <= truncation <= MAX_NERVE_TRUNCATION:
        raise CategoryError(
            f"truncation must be between 0 and {MAX_NERVE_TRUNCATION}, got {truncation}")


def _compose_columns(cat: FiniteCategory, g, f) -> np.ndarray:
    """g[r] . f[r] for every r, one ``compose_idx`` call per distinct pair."""
    m = cat.n_morphisms
    pairs, at = np.unique(g.astype(np.int64) * m + f, return_inverse=True)
    composite = map(cat.compose_idx, (pairs // m).tolist(), (pairs % m).tolist())
    return np.array(list(composite), dtype=g.dtype)[at]


def _simplicial_set(cat: FiniteCategory, levels: list, index) -> TruncatedSimplicialSet:
    """Faces and degeneracies of the simplices ``levels``: object indices at
    level 0, one row of n composable morphism indices per n-simplex above.

    A face drops the first or last column or composes two adjacent ones; a
    degeneracy inserts a column of identities.  ``index(n, rows)`` numbers
    each resulting level-n simplex (an object index at level 0), so d_0 and
    d_1 of a 1-simplex are its target and source."""
    src, dst, ident = (np.array(e, dtype=np.intp) for e in (cat.src, cat.dst, cat.identity_idx))
    faces, degen = {}, {}
    for n in range(1, len(levels)):
        rows = levels[n]
        if n == 1:
            faces[(1, 0)], faces[(1, 1)] = index(0, dst[rows[:, 0]]), index(0, src[rows[:, 0]])
            continue
        faces[(n, 0)], faces[(n, n)] = index(n - 1, rows[:, 1:]), index(n - 1, rows[:, :-1])
        for i in range(1, n):
            composite = _compose_columns(cat, rows[:, i], rows[:, i - 1])
            faces[(n, i)] = index(n - 1, np.column_stack(
                [rows[:, :i - 1], composite, rows[:, i + 1:]]))
    for n in range(len(levels) - 1):
        if n == 0:
            rows, vertices = np.empty((len(levels[0]), 0), dtype=np.intp), levels[0][:, None]
        else:
            rows = levels[n]
            vertices = np.column_stack([src[rows[:, 0]], dst[rows]])
        for j in range(n + 1):
            degen[(n, j)] = index(n + 1, np.insert(rows, j, ident[vertices[:, j]], axis=1))
    return TruncatedSimplicialSet(levels=levels, faces=faces, degeneracies=degen)


def nerve_truncation(gpd: FiniteCategory, truncation: int,
                     limits: Limits = DEFAULT_LIMITS) -> TruncatedSimplicialSet:
    """Levels 0..truncation of the nerve of a groupoid, with explicit face
    and degeneracy maps, simplicial identities verified by the caller via
    ``check_simplicial_identities``.  Every level is held to chain_limit
    before any is listed.

    Level 0 is the objects and level n >= 1 is ``_chain_array(gpd, n)``;
    every map is an array of row numbers (``_chain_index``)."""
    _check_truncation(truncation)
    for f in range(gpd.n_morphisms):
        if gpd.inverse_idx(f) is None:
            raise CategoryError(
                f"nerve truncation expects a groupoid; {gpd.mor_ids[f]} is not invertible")

    for n in range(1, truncation + 1):
        chains_mod._limited_chain_count(gpd, n, limits)
    levels = [np.arange(gpd.n_objects)]
    levels += [chains_mod._chain_array(gpd, n) for n in range(1, truncation + 1)]
    return _simplicial_set(gpd, levels, lambda n, rows:
                           rows if n == 0 else chains_mod._chain_index(gpd, rows))


def component_maps(cat: FiniteCategory, truncation: int,
                   limits: Limits = DEFAULT_LIMITS) -> TruncatedSimplicialSet:
    """Levels 0..truncation of the classifying diagram as components, one
    simplex per component in ``orbits(cat, n)`` order, with the face and
    degeneracy maps between them as arrays of component numbers.

    Each component is its representative chain, a row of morphism indices
    on a tuple of class representatives (its object at level 0).  A face or
    degeneracy of such a row lies on a tuple of class representatives
    again, so no object is transported: the image's component is the one
    whose representative is the least member of the image's orbit on that
    tuple (``_tuple_action``).  An image found in no component raises
    SelfCheckFailed.  Labels are computed per tuple and per level, so
    ``check_simplicial_identities`` can fail on them."""
    _check_truncation(truncation)
    orbs = [orbits(cat, n, limits) for n in range(truncation + 1)]
    where = {(o.rep.objs, o.rep.mors): k for level in orbs for k, o in enumerate(level)}
    levels = [np.array([o.rep.objs[0] for o in orbs[0]], dtype=np.intp)]
    levels += [np.array([o.rep.mors for o in orbs[n]], dtype=np.intp).reshape(len(orbs[n]), n)
               for n in range(1, truncation + 1)]
    src, dst = np.array(cat.src, dtype=np.intp), np.array(cat.dst, dtype=np.intp)
    actions = {}

    def index(n, rows):
        if n == 0:
            objs, rows = rows[:, None], np.empty((len(rows), 0), dtype=np.intp)
        else:
            objs = np.column_stack([src[rows[:, 0]], dst[rows]])
        out = np.empty(len(rows), dtype=np.intp)
        tuples, at = np.unique(objs, axis=0, return_inverse=True)
        for t, tup in enumerate(map(tuple, tuples.tolist())):
            if tup not in actions:
                actions[tup] = chains_mod._tuple_action(cat, tup)
            homs, strides, _, labels = actions[tup]
            sel = np.flatnonzero(at.ravel() == t)
            codes = np.zeros(len(sel), dtype=np.int64)
            for i, (h, s) in enumerate(zip(homs, strides)):
                codes += np.searchsorted(h, rows[sel, i]) * s
            least = map(tuple, chains_mod._decode(homs, strides, labels[codes]).tolist())
            for r, mors in zip(sel.tolist(), least):
                if (tup, mors) not in where:
                    raise SelfCheckFailed(f"{mors} on {tup} is no component of level {n}")
                out[r] = where[tup, mors]
        return out

    return _simplicial_set(cat, levels, index)
