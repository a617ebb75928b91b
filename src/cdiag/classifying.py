"""Levels of the classifying diagram and their structural checks.

Level n of the classifying diagram of C is the nerve of the groupoid of
chains of n composable morphisms and invertible ladders between them.  Here
each level is presented as a finite decomposition: one component per chain
class, carrying the class size and the stabilizer group of a representative.
Weak equivalence of levels is replaced throughout by the decidable pair
(component count, automorphism-order multiset), refined by small-group
isomorphism below the configured limit; completeness checks the known one,
along s_0, element by element.  ``diff_closed_forms`` is the one
comparison of a level with a family's closed forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

from . import chains as chains_mod
from .chains import SelfCheckFailed, TupleBlock, chain_count
from .fincat import CategoryError, FiniteCategory, maximal_subgroupoid, object_iso_classes
from .groups import GroupMemo, code_finder, table_refusal
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
    extra: dict = field(default_factory=dict)

    def group_display(self) -> str:
        if self.group_expr is not None:
            return self.group_expr
        return f"order={self.group_order}"

    def row(self) -> tuple:
        """The component's report row: its first seven fields, in order.
        Every command reports each component as such a tuple."""
        return (self.level, self.cell, self.representative, self.orbit_size,
                self.group_order, self.group_expr, self.policy)


@dataclass
class Decomposition:
    """Level ``level`` as the ``chains.TupleBlock`` of each object tuple,
    with, block by block, the {component: (group_expr, policy)} of every
    stabilizer of order above 1; a trivial one is ("1", "isomorphism")."""

    category: str
    level: int
    total_chains: int
    blocks: list
    names: list

    def orders(self) -> list:
        return sorted(order for b in self.blocks for order in b.orders)

    def __len__(self):
        return sum(len(b) for b in self.blocks)

    def row_columns(self) -> Iterator[tuple]:
        """The report rows of each block as columns, a block at a time,
        built when read: (level, cell, representatives, orbit sizes, group
        orders, group expressions, policies), the first two shared by the
        block's rows.  The cell is the tuple of object ids, and the
        representatives' morphism ids come from ``FiniteCategory.ids_of``,
        as its lists; at level 0 the representative is the cell."""
        for block, names in zip(self.blocks, self.names):
            cat, count = block.cat, len(block)
            cell = tuple(cat.objects[x] for x in block.objs)
            reps = [cell] * count if self.level == 0 else cat.ids_of(block.reps)
            sizes = [size * block.multiplicity for size in block.fiber_sizes]
            exprs, policies = ["1"] * count, ["isomorphism"] * count
            for k, (expr, policy) in names.items():
                exprs[k], policies[k] = expr, policy
            yield self.level, cell, reps, sizes, block.orders, exprs, policies

    def rows(self) -> Iterator[tuple]:
        """The report row of every component, in ``row_columns`` order."""
        return itertools.chain.from_iterable(
            zip(itertools.repeat(level), itertools.repeat(cell), *columns)
            for level, cell, *columns in self.row_columns())

    @cached_property
    def components(self) -> list:
        """One ``Component`` per row of ``rows``, built on first use."""
        return [Component(level, cell, tuple(rep), *rest)
                for level, cell, rep, *rest in self.rows()]


def _match_component_group(block: TupleBlock, k: int, limits: Limits, memo: GroupMemo):
    """(group_expr, policy) for the stabilizer of component ``k``, of order
    above 1: named expression by isomorphism when the order fits
    iso_limit, otherwise order-only reporting.  Only a stabilizer that is
    named gets a ``StabilizerGroup``, and it is named as its
    ``subgroup``, with no Cayley table."""
    if block.orders[k] <= limits.iso_limit:
        return memo.name(block.stabilizer(k).subgroup(limits.table_limit, memo)), "isomorphism"
    return None, "order-only"


def level_decomposition(cat: FiniteCategory, n: int,
                        limits: Limits = DEFAULT_LIMITS) -> Decomposition:
    """Level n as components (representative, class size, stabilizer)."""
    blocks = chains_mod.level_blocks(cat, n, limits)
    memo = GroupMemo(limits.iso_limit)
    names = [{k: _match_component_group(b, k, limits, memo)
              for k, order in enumerate(b.orders) if order > 1} for b in blocks]
    total = chain_count(cat, n)
    if sum(b.chains for b in blocks) != total:
        raise SelfCheckFailed("component sizes do not sum to the chain count")
    return Decomposition(category=cat.name, level=n, total_chains=total,
                         blocks=blocks, names=names)


# ---------------------------------------------------------------------------
# Closed forms against the engine


@dataclass
class DiffReport:
    subject: str
    checked: int = 0
    mismatches: list = field(default_factory=list)
    policies: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def add(self, msg: str):
        self.mismatches.append(msg)

    def summary(self) -> str:
        """The subject and the count of components checked, then either
        "0 mismatches" or the count followed by every mismatch message,
        so a failing report names each failing cell or profile."""
        head = f"{self.subject}: {self.checked} components checked"
        if self.ok:
            return f"{head}, 0 mismatches"
        return f"{head}, {len(self.mismatches)} MISMATCHES: " + "; ".join(self.mismatches)


@dataclass(frozen=True)
class ClosedForm:
    """One component as a family's closed form gives it: its ``name`` in
    messages, its stabilizer ``order``, its chain count ``size`` (None when
    the family does not derive it apart from the engine), and the printed
    group ``text`` with ``table(table_limit, memo)``, its Cayley table
    (both None when the form names no group).  ``iso``, when the family
    gives one, is an explicit map of a listed stabilizer onto that table,
    as ``StabilizerGroup.map_failure`` takes it."""

    name: str
    order: int
    size: Optional[int] = None
    text: Optional[str] = None
    table: Optional[Callable] = None
    iso: Optional[Callable] = None


def diff_closed_forms(report: DiffReport, blocks: list, keys: Callable, forms: dict,
                      limits: Limits, memo: GroupMemo) -> None:
    """Add to ``report`` every mismatch of the engine's ``blocks`` of one
    level against ``forms``, the {key: ClosedForm} of each object tuple,
    where ``keys(block)`` lists an invariant of each component's
    representative, in component order.

    Per tuple (a cell, named by its object indices, in ascending order) the
    engine's key multiset must equal the forms' keys.  Then, key by key, a
    component's chain count must be the form's size when it gives one, its
    stabilizer order the form's order, and a stabilizer of order 2 to
    iso_limit isomorphic to the form's group, each text tabled once: by the
    form's explicit map when it has one (``StabilizerGroup.map_failure``),
    else by an isomorphism search from the stabilizer's ``subgroup``.  Each policy
    is kept under (tuple, key): "isomorphism" when the form names a group
    within iso_limit, else "order-only"."""
    by_objs = {b.objs: b for b in blocks}
    tables = {}
    for objs in sorted(by_objs.keys() | forms.keys()):
        block, want, cell = by_objs.get(objs), forms.get(objs, {}), ",".join(map(str, objs))
        found = [] if block is None else keys(block)
        if sorted(found) != sorted(want):
            report.add(f"cell ({cell}): engine keys {sorted(found)} vs closed-form keys {sorted(want)}")
            continue
        for got, k in sorted((got, k) for k, got in enumerate(found)):
            form, where = want[got], f"cell ({cell}) {want[got].name}"
            report.checked += 1
            size, order = block.fiber_sizes[k] * block.multiplicity, block.orders[k]
            if form.size is not None and size != form.size:
                report.add(f"{where}: orbit size {size} != closed-form size {form.size}")
            if order != form.order:
                of = "" if form.text is None else f" of {form.text}"
                report.add(f"{where}: stabilizer order {order} != order {form.order}{of}")
                continue
            tested = form.text is not None and order <= limits.iso_limit
            report.policies[(objs, got)] = "isomorphism" if tested else "order-only"
            if tested and order > 1:        # groups of order 1 are isomorphic
                if form.text not in tables:
                    tables[form.text] = form.table(limits.table_limit, memo)
                stab, table = block.stabilizer(k), tables[form.text]
                if form.iso is not None:
                    failure = stab.map_failure(form.iso, table, memo)
                elif memo.isomorphic(stab.subgroup(limits.table_limit, memo), table):
                    failure = ""
                else:
                    failure = "stabilizer is not isomorphic to"
                if failure:
                    report.add(f"{where}: {failure} {form.text}")


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
    src, dst = (e.astype(np.min_scalar_type(cat.n_objects)) for e in cat.endpoints)
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
    detail: str = ""             # the first failure, "" when the verdict is True


def completeness_check(cat: FiniteCategory,
                       limits: Limits = DEFAULT_LIMITS) -> CompletenessReport:
    """Compare levels 0 and 1 of the classifying diagram of iso(C), the
    maximal subgroupoid of ``cat``, along the degeneracy s_0.  It takes the
    class of x, stabilized by Aut(x), to the one level-1 component on (x, x):
    Aut(x) x Aut(x) acts on Aut(x) by (a, b) . f = b f a^-1, transitively,
    and fixes f exactly on the graph {(a, f a f^-1)} of conjugation by f.
    So each class needs one such component of its order, no other may be
    left, and a listed stabilizer must be that graph, by ``compose_idx`` and
    ``inverse_idx``; an order within iso_limit left unlisted is refused."""
    gpd = maximal_subgroupoid(cat)
    sides = [chains_mod.level_blocks(gpd, n, limits) for n in (0, 1)]
    counts = tuple(sum(len(b) for b in side) for side in sides)
    multi_a, multi_b = (tuple(sorted(k for b in side for k in b.orders)) for side in sides)
    within = any(k <= limits.iso_limit for k in multi_a)
    policy = ("class-count + aut-order multiset" if counts[0] != counts[1] or multi_a != multi_b
              else "aut-order multiset + group isomorphism" if within else "aut-order only")
    detail = _conjugation_failure(gpd, *sides, limits)
    return CompletenessReport(counts, (multi_a, multi_b), not detail, policy, detail)


def _conjugation_failure(gpd: FiniteCategory, level0: list, level1: list, limits: Limits) -> str:
    """The first failure of ``completeness_check`` on these levels of iso(C)."""
    on = {}         # object tuple -> its level-1 (block, component) pairs
    for b in level1:
        on.setdefault(b.objs, []).extend((b, k) for k in range(len(b)))
    for b0 in level0:             # one component each, on (x,)
        x, name = b0.objs[0], gpd.objects[b0.objs[0]]
        found = on.pop((x, x), [])
        if len(found) != 1:
            return f"class {name}: {len(found)} level-1 components on ({name},{name}), not 1"
        b, k = found[0]
        order, els = b.orders[k], b.elements[k]
        if order != b0.orders[0]:
            return f"class {name}: level-1 stabilizer order {order} != level-0 order {b0.orders[0]}"
        if els is None:
            if order <= limits.iso_limit:
                raise table_refusal(order, limits.table_limit)
            continue
        f, f_inv = int(b.reps[k, 0]), gpd.inverse_idx(int(b.reps[k, 0]))
        graph = sorted((a, gpd.compose_idx(gpd.compose_idx(f, a), f_inv)) for a in gpd.aut_idx(x))
        if els != graph:
            return f"class {name}: listed stabilizer is not the conjugation graph of {gpd.mor_id(f)}"
    for objs, found in on.items():
        cell = ",".join(gpd.objects[x] for x in objs)
        return f"{len(found)} level-1 components on ({cell}) pair with no class"
    return ""


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
    """True exactly when every isomorphism of ``cat`` is an identity: each
    object alone in its class, with trivial Aut(x).  The report confirms it
    level by level: each component a singleton with trivial stabilizer."""
    if truncation < 1:
        raise CategoryError(f"truncation must be at least 1, got {truncation}")
    discrete = all(c.members == [c.rep] and len(cat.aut_idx(c.rep)) == 1
                   for c in object_iso_classes(cat))
    levels = []
    for n in range(truncation + 1):
        blocks = chains_mod.level_blocks(cat, n, limits)
        flat = all(size * b.multiplicity == 1 and order == 1
                   for b in blocks for size, order in zip(b.fiber_sizes, b.orders))
        levels.append((n, sum(len(b) for b in blocks), flat))
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
    (src, dst), ident = cat.endpoints, np.array(cat.identity_idx, dtype=np.intp)
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
                f"nerve truncation expects a groupoid; {gpd.mor_id(f)} is not invertible")

    for n in range(1, truncation + 1):
        chains_mod._limited_chain_count(gpd, n, limits)
    levels = [np.arange(gpd.n_objects)]
    levels += [chains_mod._chain_array(gpd, n) for n in range(1, truncation + 1)]
    return _simplicial_set(gpd, levels, lambda n, rows:
                           rows if n == 0 else chains_mod._chain_index(gpd, rows))


def component_maps(cat: FiniteCategory, truncation: int,
                   limits: Limits = DEFAULT_LIMITS) -> TruncatedSimplicialSet:
    """Levels 0..truncation of the classifying diagram as components, one
    simplex per component in ``level_blocks(cat, n)`` order, with the face
    and degeneracy maps between them as arrays of component numbers.

    Each component is its representative chain, a row of morphism indices
    on a tuple of class representatives (its object at level 0).  A face or
    degeneracy of such a row lies on a tuple of class representatives
    again, so no object is transported: the image's component is the one
    of its tuple's block whose representative is the least member of the
    image's orbit (``_tuple_action``), found among the ascending codes of
    the block's representatives.  An image found in no component raises
    SelfCheckFailed.  Labels are computed per tuple and per level, so
    ``check_simplicial_identities`` can fail on them."""
    _check_truncation(truncation)
    blocks = [chains_mod.level_blocks(cat, n, limits) for n in range(truncation + 1)]
    # each tuple's representatives and the number of its first component in its level
    where = {b.objs: (b.reps, start) for level in blocks for b, start in
             zip(level, itertools.accumulate([len(b) for b in level], initial=0))}
    levels = [np.array([b.objs[0] for b in blocks[0] for _ in b.orders], dtype=np.intp)]
    levels += [np.concatenate([np.empty((0, n), dtype=np.intp)] + [b.reps for b in blocks[n]])
               for n in range(1, truncation + 1)]
    src, dst = cat.endpoints
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
            least = labels[chains_mod._encode(homs, strides, rows[sel])]
            reps, start = where.get(tup, (np.empty((0, len(homs))), 0))
            k = code_finder(chains_mod._encode(homs, strides, reps))(least)
            missing = np.flatnonzero(k < 0)
            if len(missing):
                mors = tuple(chains_mod._decode(homs, strides, least[missing[:1]])[0].tolist())
                raise SelfCheckFailed(f"{mors} on {tup} is no component of level {n}")
            out[sel] = start + k
        return out

    return _simplicial_set(cat, levels, index)
