"""The brute-force engine: chains, the ladder action, orbits, stabilizers.

A chain of length n is n composable morphisms f_1, ..., f_n between objects
x_0, ..., x_n.  The product of the automorphism groups Aut(x_0) x ... x
Aut(x_n) acts by (alpha, f) |-> (alpha_1 f_1 alpha_0^-1, ..., alpha_n f_n
alpha_{n-1}^-1); two chains on isomorphic object tuples are further
identified by transporting along the isomorphisms.  Orbits of that combined
relation, together with their stabilizers, are the components of level n of
the classifying diagram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .fincat import CategoryError, FiniteCategory, object_iso_classes
from .groups import (CayleyTable, ClosureLimitExceeded, GroupError, GroupMemo, _strides,
                     table_in_product, table_refusal)
from .limits import DEFAULT_LIMITS, Limits


class ChainLimitExceeded(CategoryError):
    pass


class SelfCheckFailed(CategoryError):
    """An identity the engine checks on its own results fails: a fault of
    the engine, not a property of the category."""


# ---------------------------------------------------------------------------
# Enumeration


def _check_level(n: int) -> None:
    if n < 0:
        raise CategoryError(f"levels start at 0, got level {n}")


def _chain_counts(cat: FiniteCategory, n: int) -> Iterator[int]:
    """The number of k-chains for k = 0..n in turn, by dynamic programming
    over hom-set sizes."""
    nob = cat.n_objects
    hom_size = [[len(cat.hom_idx(x, y)) for y in range(nob)] for x in range(nob)]
    ways = [1] * nob
    yield sum(ways)
    for _ in range(n):
        ways = [sum(ways[x] * hom_size[x][y] for x in range(nob)) for y in range(nob)]
        yield sum(ways)


def chain_count(cat: FiniteCategory, n: int) -> int:
    """Number of n-chains."""
    _check_level(n)
    return list(_chain_counts(cat, n))[-1]


def _chain_array(cat: FiniteCategory, n: int) -> np.ndarray:
    """Every n-chain (n >= 1) as one row of morphism indices, the rows
    lexicographically ascending, in the narrowest type that holds an index.

    Built a column at a time: each row is repeated once per morphism out of
    its tail object, and the copies take those morphisms in ascending order.
    Identities extend every prefix, so no level has more rows than the last.
    """
    dtype = np.min_scalar_type(max(cat.n_morphisms, cat.n_objects))
    src, dst = cat.endpoints
    out = np.argsort(src, kind="stable").astype(dtype)
    pos = np.int32 if chain_count(cat, n) < 2 ** 31 else np.int64
    degree = np.bincount(src, minlength=cat.n_objects).astype(pos)
    first_out = np.cumsum(degree, dtype=pos) - degree
    rows = np.arange(cat.n_morphisms, dtype=dtype)[:, None]
    for _ in range(n - 1):
        tail = dst[rows[:, -1]]
        count = degree[tail]
        # copy j of row r takes out[first_out[tail[r]] + j]
        at = np.repeat(first_out[tail] - np.cumsum(count, dtype=pos) + count, count)
        at += np.arange(len(at), dtype=pos)
        last = out[at]
        del at      # free the positions before the rows are copied
        rows = np.column_stack([np.repeat(rows, count, axis=0), last])
    return rows


def _chain_index(cat: FiniteCategory, rows: np.ndarray) -> np.ndarray:
    """The row number of each n-chain (n >= 1) of ``rows`` in
    ``_chain_array(cat, n)``, counted over hom sets like ``chain_count``.

    Rows ascend lexicographically, so a chain's number counts the chains
    that first differ from it by a smaller morphism: column k adds, for
    each smaller morphism g out of the same object, the number of
    (n-1-k)-chains that start at dst(g), and column 0 counts every smaller
    morphism.
    """
    src, dst = cat.endpoints
    # g is at rank[g] of the morphisms sorted by source, whose run starts at first[g]
    order = np.argsort(src, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = np.searchsorted(src[order], src)
    starting = np.ones(cat.n_objects, dtype=np.int64)    # m-chains from each object
    index = np.zeros(len(rows), dtype=np.int64)
    for k in range(rows.shape[1] - 1, -1, -1):           # m = n-1-k chains after column k
        after = starting[dst]
        if k == 0:
            below = np.cumsum(after) - after
        else:
            ahead = np.concatenate([[0], np.cumsum(after[order])])
            below = ahead[rank] - ahead[first]
        index += below[rows[:, k]]
        starting = np.zeros(cat.n_objects, dtype=np.int64)
        np.add.at(starting, src, after)
    return index


def _limited_chain_count(cat: FiniteCategory, n: int, limits: Limits) -> int:
    """``chain_count``, raising ChainLimitExceeded above chain_limit.

    Levels are counted in turn, and the first one above chain_limit raises:
    appending an identity maps k-chains injectively into (k+1)-chains, so
    no level has fewer chains than the one before."""
    for k, total in enumerate(_chain_counts(cat, n)):
        if total > limits.chain_limit:
            raise ChainLimitExceeded(
                f"{total} chains at level {k} exceeds chain_limit {limits.chain_limit}"
                + ("" if k == n else f", and level {n} has at least as many"))
    return total


# ---------------------------------------------------------------------------
# Stabilizers


@dataclass
class StabilizerGroup:
    """The subgroup of Aut(x_0) x ... x Aut(x_n) fixing the chain ``mors``.

    ``order`` comes from orbit-stabilizer division.  ``elements`` lists the
    group when its order is at most the table_limit it was found under, and
    is None otherwise, when an orbit search checked it instead.
    """

    cat: FiniteCategory
    objs: tuple
    mors: tuple
    order: int
    elements: Optional[list]              # automorphism tuples (morphism indices)

    @property
    def policy(self) -> str:
        """How it was checked: "scan" when listed, else "transversal"."""
        return "scan" if self.elements is not None else "transversal"

    def to_cayley_table(self, table_limit: int, memo: Optional[GroupMemo] = None) -> CayleyTable:
        """The listed elements, sorted rows of Aut(x_i) ranks, multiplied
        coordinate-wise in the Cayley tables of the Aut(x_i)
        (``FiniteCategory.aut_table``).  Raises ClosureLimitExceeded when
        the order exceeds ``table_limit`` or no elements were kept, and
        SelfCheckFailed unless they form a group.  A coordinate constant on
        each run of rows agreeing before it is a function phi of the kept
        ones, which alone are tabled, once per command through a ``memo``;
        the listing is closed exactly when they are and each phi is a hom,
        checked on the table's generators g as phi(x*g) = phi(x)*phi(g)."""
        if self.order > table_limit:
            raise table_refusal(self.order, table_limit)
        if self.elements is None:
            raise ClosureLimitExceeded(table_limit, self.order, (
                f"stabilizer of order {self.order} kept no listed elements: "
                f"it was found under a smaller table_limit"))
        els = np.array(self.elements, dtype=np.int64).reshape(len(self.elements), len(self.objs))
        ranks = np.stack([np.searchsorted(self.cat.aut_idx(x), els[:, i])
                          for i, x in enumerate(self.objs)], axis=1)
        ranks = ranks[np.lexsort(ranks.T[::-1])]
        kept, dropped, run_starts = [], [], np.zeros(len(ranks) - 1, dtype=bool)
        for i in range(len(self.objs)):
            steps = ranks[1:, i] != ranks[:-1, i]
            (kept if (steps & ~run_starts).any() else dropped).append(i)
            run_starts |= steps
        rows, objs = np.ascontiguousarray(ranks[:, kept]), tuple(self.objs[i] for i in kept)

        def build():
            return table_in_product([self.cat.aut_table(x) for x in objs], rows,
                                    label="stabilizer", memo=memo)
        try:
            table = build() if memo is None else memo.once(
                ("stabilizer", self.cat, objs, rows.shape, rows.tobytes()), build)
            gens = np.array(table.generating_sequence()[0], dtype=np.intp)
            for i in dropped:
                phi, aut = ranks[:, i], self.cat.aut_table(self.objs[i])
                # phi(e) * a = a holds for the identity phi(e) alone
                if (aut[phi[table.identity], 0] != 0
                        or not np.array_equal(aut[phi[:, None], phi[gens]],
                                              phi[table.table[:, gens]])):
                    raise GroupError("element set is not closed under the product")
        except GroupError as exc:
            where = _chain_name(self.cat, self.objs, self.mors)
            raise SelfCheckFailed(f"listed stabilizer of {where}: {exc}") from exc
        return table


def _chain_name(cat: FiniteCategory, objs, mors) -> str:
    """The chain on ``objs`` with morphism indices ``mors``, by its morphism
    ids, or by its object id at level 0."""
    if not len(mors):
        return f"object {cat.objects[objs[0]]}"
    return "chain (" + " ; ".join(cat.ids_of(np.asarray(mors, dtype=np.intp))) + ")"


def _ambient_order(cat: FiniteCategory, objs) -> int:
    return math.prod(len(cat.aut_idx(x)) ** objs.count(x) for x in set(objs))


def _tuple_codec(cat: FiniteCategory, objs) -> tuple:
    """(hom sets, strides) of the chain codes on one object tuple: a chain
    is coded in mixed radix over the positions of its morphisms in their
    hom sets, the first morphism most significant.  The hom sets are the
    category's kept index arrays (``FiniteCategory.hom_array``)."""
    homs = [cat.hom_array(x, y) for x, y in zip(objs, objs[1:])]
    return homs, _strides(list(map(len, homs)))


def _tuple_action(cat: FiniteCategory, objs) -> tuple:
    """(hom sets, strides, moves, labels) of the ladder action on the
    chains of one object tuple.

    Chains are coded as in ``_tuple_codec``, so codes order them
    lexicographically.  Each move maps every code to its image under
    one generator of one Aut(x_i), in (i, generator) order, read from the
    generator columns of the hom sets next to x_i; a lone object (level 0)
    has no hom sets to move, so no moves.  Min-label propagation with
    pointer jumping over the moves labels every chain with the least code
    in its orbit.
    """
    homs, strides = _tuple_codec(cat, objs)
    codes = np.arange(math.prod(map(len, homs)))
    digits = [codes // s % len(h) for s, h in zip(strides, homs)]
    moves = []
    for i, x in enumerate(objs if homs else ()):
        for k in range(len(cat.aut_generators(x))):
            img = codes.copy()
            if i > 0:
                left = cat.hom_columns(objs[i - 1], x)[0][k]
                img += (left[digits[i - 1]] - digits[i - 1]) * strides[i - 1]
            if i < len(homs):
                right = cat.hom_columns(x, objs[i + 1])[1][k]
                img += (right[digits[i]] - digits[i]) * strides[i]
            moves.append(img)
    labels = codes
    while True:
        new = labels
        for img in moves:
            new = np.minimum(new, new[img])
        new = new[new]
        if np.array_equal(new, labels):
            return homs, strides, moves, labels
        labels = new


def _decode(homs, strides, codes) -> np.ndarray:
    """The morphism tuples coded by ``codes``, one row each: every digit in
    one step, then one gather from the hom sets laid end to end, so that a
    long tuple costs no numpy call per hom set."""
    codes = np.asarray(codes, dtype=np.int64)
    if not homs:
        return np.empty((len(codes), 0), dtype=np.intp)
    sizes = [len(h) for h in homs]
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    return np.concatenate(homs)[codes[:, None] // strides % sizes + starts]


def _encode(homs, strides, rows) -> np.ndarray:
    """The codes of the morphism tuples ``rows``, one row each, on the
    tuple whose hom sets are ``homs``: the inverse of ``_decode``."""
    rows = np.asarray(rows, dtype=np.intp).reshape(len(rows), len(homs))
    codes = np.zeros(len(rows), dtype=np.int64)
    for i, (h, s) in enumerate(zip(homs, strides)):
        codes += np.searchsorted(h, rows[:, i]) * s
    return codes


def _orbit_search(moves, seed) -> list:
    """Member codes of the orbit of the chain coded ``seed``, expanded
    breadth first over the moves, (member, move) pairs met member-major."""
    if not moves:
        return [seed]
    seen = np.zeros(len(moves[0]), dtype=bool)
    seen[seed] = True
    members, frontier = [seed], np.array([seed])
    while len(frontier):
        images = np.stack([img[frontier] for img in moves], axis=1).ravel()
        fresh, first = np.unique(images, return_index=True)
        first = np.sort(first[~seen[fresh]])
        seen[images[first]] = True
        members += images[first].tolist()
        frontier = images[first]
    return members


# Stabilizers are listed for blocks of chains with about this many
# ambient elements in all.
_SCAN_CELLS = 1 << 20


def _stabilizer_elements(cat: FiniteCategory, objs, reps) -> Iterator[list]:
    """For each morphism tuple in ``reps`` on the object tuple ``objs``, in
    turn, the list of every automorphism tuple fixing it, in lexicographic
    order.  Only one block of lists is held at a time.

    a_0 runs over Aut(x_0), and a_i over the elements of Aut(x_i) with
    a_i . f_i = f_i . a_{i-1}, so dead prefixes drop out coordinate by
    coordinate.  Each coordinate is one join on the action columns of the
    block's own f_i (``FiniteCategory.hom_action_tables``): the positions
    of a . f_i, sorted stably, are searched for that of f_i . a_{i-1},
    read from the right action at a_{i-1}^-1, so the matches of every
    prefix come out in ascending rank.  A coordinate keeps only its new
    column and the prefix row each match extends; the earlier coordinates
    of the listed tuples are read back through those rows at the end, so a
    level costs a number of numpy steps linear in its length.
    """
    auts = [np.array(cat.aut_idx(x), dtype=np.int64) for x in objs]
    inv_rank = [cat.aut_inverse_ranks(x) for x in objs[:-1]]
    homs = [cat.hom_array(x, y) for x, y in zip(objs, objs[1:])]
    reps = np.array(reps, dtype=np.int64).reshape(len(reps), len(homs))
    block = max(1, _SCAN_CELLS // _ambient_order(cat, objs))
    for lo in range(0, len(reps), block):
        part = reps[lo:lo + block]
        which = np.repeat(np.arange(len(part)), len(auts[0]))
        cols, extends = [np.tile(np.arange(len(auts[0])), len(part))], []
        for i, hom in enumerate(homs):
            left, right = cat.hom_action_tables(objs[i], objs[i + 1],
                                                np.searchsorted(hom, part[:, i]))
            keys = (left.T + np.arange(len(part))[:, None] * len(hom)).ravel()
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            want = right[inv_rank[i][cols[-1]], which] + which * len(hom)
            first = np.searchsorted(keys, want)
            count = np.searchsorted(keys, want, "right") - first
            # the matches of prefix j are order[first[j]:first[j] + count[j]]
            keep = np.repeat(np.arange(len(which)), count)
            at = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
            which = which[keep]
            extends.append(keep)
            cols.append(order[at] % len(auts[i + 1]))
        rows, els = np.arange(len(which)), [None] * len(cols)
        for i in range(len(cols) - 1, -1, -1):
            els[i] = auts[i][cols[i][rows]]
            if i:
                rows = extends[i - 1][rows]
        els = np.stack(els, axis=1).tolist()
        bounds = np.searchsorted(which, np.arange(len(part) + 1)).tolist()
        for b, e in zip(bounds, bounds[1:]):
            yield list(map(tuple, els[b:e]))


def _orbit_and_stabilizer(cat: FiniteCategory, objs, limits: Limits,
                          reverse: bool = False, multiplicity: int = 1) -> "TupleBlock":
    """The block of components on one object tuple, one for the least chain
    of every orbit, in ascending order.

    Orbits come from the labels of ``_tuple_action``, and the stabilizer
    order is the ambient order divided by the orbit size.  One check backs
    each stabilizer: one of order at most table_limit is listed and kept
    (policy "scan"), and must have exactly the division order; a larger one
    gets a breadth-first orbit search, whose member set must equal the
    labelled orbit (policy "transversal").  Either proves the labelled
    orbit is the orbit, since correct moves never join two orbits.  With
    ``reverse`` the search also runs from the greatest member of every
    orbit, and its member set must equal the labelled orbit too.

    When the ambient group is trivial, ``_trivial_block`` builds the block
    from the codes alone.
    """
    ambient = _ambient_order(cat, objs)
    if ambient == 1:
        return _trivial_block(cat, objs, limits, multiplicity)
    homs, strides, moves, labels = _tuple_action(cat, objs)
    order = np.argsort(labels, kind="stable")
    by_label = labels[order]
    # orbit k is order[bounds[k]:bounds[k + 1]], its label by_label[bounds[k]]
    bounds = np.flatnonzero(np.diff(by_label, prepend=-1, append=len(labels)))
    seeds = by_label[bounds[:-1]]
    starts, ends = bounds[:-1].tolist(), bounds[1:].tolist()
    sizes = [e - b for b, e in zip(starts, ends)]
    reps = _decode(homs, strides, seeds)
    if any(ambient % size for size in sizes):
        raise SelfCheckFailed("orbit size does not divide the ambient group order")
    orders = [ambient // size for size in sizes]
    listing = [k <= limits.table_limit for k in orders]
    listed = iter(_stabilizer_elements(cat, objs, reps[np.array(listing, dtype=bool)]))
    # every trivial stabilizer keeps this one listing once its own is checked
    trivial = [tuple(cat.identity_idx[x] for x in objs)]
    elements = []
    for k, (seed, stab_order) in enumerate(zip(seeds.tolist(), orders)):
        els = next(listed) if listing[k] else None
        if els is not None and len(els) != stab_order:
            raise SelfCheckFailed(
                f"orbit-stabilizer identity fails at {_chain_name(cat, objs, reps[k])}: "
                f"{sizes[k]} * {len(els)} != {ambient}")
        elements.append(trivial if els == trivial else els)
        if els is None or reverse:
            orbit, mors = order[starts[k]:ends[k]].tolist(), tuple(reps[k].tolist())
            if els is None and sorted(_orbit_search(moves, seed)) != orbit:
                raise SelfCheckFailed(f"orbit search from {mors} disagrees with the orbit labels")
            if reverse and sorted(_orbit_search(moves, orbit[-1])) != orbit:
                greatest = tuple(_decode(homs, strides, orbit[-1:])[0].tolist())
                raise SelfCheckFailed(f"orbits of {greatest} "
                                      f"and of its least member {mors} differ")
    return TupleBlock(cat, objs, ambient, multiplicity, reps, sizes, orders, elements)


def _trivial_block(cat: FiniteCategory, objs, limits: Limits,
                   multiplicity: int) -> "TupleBlock":
    """``_orbit_and_stabilizer`` on a tuple whose ambient group
    Aut(x_0) x ... x Aut(x_n) is trivial: every chain is an orbit of its
    own, fixed by the identity tuple alone.

    No check is skipped that could fail here.  Without generators there are
    no moves, so the labels are the codes and an orbit search returns its
    seed; and the listing's join compares each position with itself, since
    ``groups.word_rows`` writes the identity's row as its start.
    The identity tuple is kept when table_limit admits order 1, by the rule
    of every other stabilizer, and the caller's size-sum check still runs."""
    homs, strides = _tuple_codec(cat, objs)
    codes = np.arange(math.prod(map(len, homs)))
    ones = [1] * len(codes)
    els = [tuple(cat.identity_idx[x] for x in objs)] if limits.table_limit >= 1 else None
    return TupleBlock(cat, objs, 1, multiplicity, _decode(homs, strides, codes), ones,
                      list(ones), [els] * len(codes))


@dataclass
class TupleBlock:
    """The components of one level on one object tuple, held as columns.

    ``reps`` is one integer array with a row of morphism indices per
    component (no columns at level 0): the least chain of its orbit on
    ``objs``, rows ascending.  Column by column with it run
    ``fiber_sizes``, the chains on ``objs`` in each orbit; ``orders``, the stabilizer orders by division;
    and ``elements``, the listed stabilizer when its order fits the
    table_limit it was found under, else None, when an orbit search checked
    it instead.  ``multiplicity`` counts the object tuples isomorphic to
    ``objs``, so a component holds its fibre size times that many chains.

    Nothing is held per component but these columns: ``stabilizer(k)``
    builds the ``StabilizerGroup`` view when a caller asks for it.
    """

    cat: FiniteCategory
    objs: tuple
    ambient_order: int
    multiplicity: int
    reps: np.ndarray
    fiber_sizes: list
    orders: list
    elements: list

    def __len__(self) -> int:
        return len(self.orders)

    @property
    def chains(self) -> int:
        """The chains in the block's components, on every isomorphic tuple."""
        return sum(self.fiber_sizes) * self.multiplicity

    def check_orbit_stabilizer(self) -> bool:
        return all(size * order == self.ambient_order
                   for size, order in zip(self.fiber_sizes, self.orders))

    def stabilizer(self, k: int) -> StabilizerGroup:
        return StabilizerGroup(self.cat, self.objs, tuple(self.reps[k].tolist()),
                               self.orders[k], self.elements[k])


def level_blocks(cat: FiniteCategory, n: int, limits: Limits = DEFAULT_LIMITS,
                 reverse: bool = False) -> list:
    """All components of level n, one ``TupleBlock`` per object tuple.

    Object tuples are first reduced to isomorphism-class representatives,
    taken in ascending order.  On each tuple the chains are labelled with
    the least chain of their orbit by min-label propagation over the
    single-coordinate generator moves (``_tuple_action``), and every orbit
    gets its stabilizer from ``_orbit_and_stabilizer``.  Representatives are
    the lexicographically least chains on their tuple (by morphism index),
    so the output does not depend on enumeration order; ``reverse`` checks
    that by also searching every orbit from its greatest member.  Level 0
    is the same search on one-object tuples: one chain per isomorphism
    class of objects, stabilized by all of Aut(x).
    """
    _check_level(n)
    total = _limited_chain_count(cat, n, limits)
    classes = object_iso_classes(cat)
    class_size = {x: len(cls.members) for cls in classes for x in cls.members}
    # each tuple extends by the representatives with morphisms from its last
    # object, in ascending order: tuples come out ascending, and no more of
    # them than chains
    reps = [cls.rep for cls in classes]
    after = {x: [y for y in reps if cat.hom_idx(x, y)] for x in reps}
    tuples = [(x,) for x in reps]
    for _ in range(n):
        tuples = [objs + (y,) for objs in tuples for y in after[objs[-1]]]
    blocks = [_orbit_and_stabilizer(cat, objs, limits, reverse=reverse,
                                    multiplicity=math.prod(class_size[x] for x in objs))
              for objs in tuples]
    if sum(b.chains for b in blocks) != total:
        raise SelfCheckFailed("orbit sizes do not sum to the chain count")
    return blocks


# ---------------------------------------------------------------------------
# Object views.  No command reads them: Chain, enumerate_chains, Orbit and
# orbits() are kept only for the staged replay of perfbench/staged.py, until
# spans in the package replace that replay (ROADMAP.md, "Spans").


class Chain(NamedTuple):
    """A point of level n: object indices x_0..x_n and morphism indices
    f_1..f_n; a level-0 chain has no morphisms."""

    objs: tuple
    mors: tuple


def enumerate_chains(cat: FiniteCategory, n: int,
                     limits: Limits = DEFAULT_LIMITS) -> list:
    """All n-chains in lexicographic order of morphism index tuples;
    level 0 yields one chain per object, in object order."""
    _check_level(n)
    if n == 0:
        return [Chain((x,), ()) for x in range(cat.n_objects)]
    _limited_chain_count(cat, n, limits)
    rows = _chain_array(cat, n)
    src, dst = cat.endpoints
    objs = np.column_stack([src[rows[:, 0]], dst[rows]])
    return [Chain(tuple(o), tuple(m)) for o, m in zip(objs.tolist(), rows.tolist())]


@dataclass
class Orbit:
    """One component of level n.

    ``size`` counts every chain in the component, across all object tuples
    isomorphic to the representative's.  ``rep_fiber_size`` counts only the
    chains on the representative tuple itself; it is the classical orbit of
    the product action, so rep_fiber_size * stabilizer.order equals the
    ambient product order exactly.
    """

    rep: Chain
    size: int
    rep_fiber_size: int
    ambient_order: int
    stabilizer: StabilizerGroup

    def check_orbit_stabilizer(self) -> bool:
        return self.rep_fiber_size * self.stabilizer.order == self.ambient_order


def orbits(cat: FiniteCategory, n: int, limits: Limits = DEFAULT_LIMITS,
           reverse: bool = False) -> list:
    """The ``Orbit`` of every component of ``level_blocks``, in block order."""
    return [Orbit(rep=Chain(b.objs, tuple(mors)), size=size * b.multiplicity,
                  rep_fiber_size=size, ambient_order=b.ambient_order, stabilizer=b.stabilizer(k))
            for b in level_blocks(cat, n, limits, reverse)
            for k, (mors, size) in enumerate(zip(b.reps.tolist(), b.fiber_sizes))]
