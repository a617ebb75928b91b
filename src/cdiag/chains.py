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
from typing import Optional

import numpy as np

from .fincat import CategoryError, FiniteCategory, object_iso_classes
from .groups import CayleyTable, ClosureLimitExceeded, GroupError, table_in_product
from .limits import DEFAULT_LIMITS, Limits


class ChainLimitExceeded(CategoryError):
    pass


class Chain:
    """A point of level n: object indices x_0..x_n and morphism indices
    f_1..f_n with target(f_i) = source(f_{i+1}).  Level-0 chains are bare
    objects (empty morphism tuple)."""

    __slots__ = ("cat", "objs", "mors")

    def __init__(self, cat: FiniteCategory, objs, mors):
        objs, mors = tuple(objs), tuple(mors)
        if len(objs) != len(mors) + 1:
            raise CategoryError("a chain of n morphisms needs n + 1 objects")
        for i, f in enumerate(mors):
            if cat.src[f] != objs[i] or cat.dst[f] != objs[i + 1]:
                raise CategoryError(f"chain not composable at morphism {i + 1}")
        self.cat, self.objs, self.mors = cat, objs, mors

    @classmethod
    def from_morphism_ids(cls, cat: FiniteCategory, mor_ids) -> "Chain":
        mors = tuple(cat.mor_index(m) for m in mor_ids)
        if not mors:
            raise CategoryError("no morphisms given; use from_object for level 0")
        objs = (cat.src[mors[0]],) + tuple(cat.dst[f] for f in mors)
        return cls(cat, objs, mors)

    @classmethod
    def from_object(cls, cat: FiniteCategory, obj_id: str) -> "Chain":
        return cls(cat, (cat.obj_index(obj_id),), ())

    @property
    def level(self) -> int:
        return len(self.mors)

    @property
    def object_ids(self) -> tuple:
        return tuple(self.cat.objects[o] for o in self.objs)

    @property
    def morphism_ids(self) -> tuple:
        return tuple(self.cat.mor_ids[f] for f in self.mors)

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.cat is other.cat
                and self.objs == other.objs and self.mors == other.mors)

    def __hash__(self):
        return hash((id(self.cat), self.objs, self.mors))

    def __repr__(self):
        if not self.mors:
            return f"Chain<{self.object_ids[0]}>"
        return "Chain<" + " ; ".join(self.morphism_ids) + ">"


class ChainIso:
    """An invertible ladder between two chains: automorphism-or-isomorphism
    components alpha_0, ..., alpha_n with every square commuting,
    alpha_i . f_i = g_i . alpha_{i-1}."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Chain, target: Chain, components):
        cat = source.cat
        if target.cat is not cat or source.level != target.level:
            raise CategoryError("a ladder joins two chains of one level in one category")
        components = tuple(components)
        if len(components) != len(source.objs):
            raise CategoryError("need one ladder component per chain object")
        for i, a in enumerate(components):
            if cat.src[a] != source.objs[i] or cat.dst[a] != target.objs[i]:
                raise CategoryError(
                    f"ladder component {cat.mor_ids[a]} has wrong endpoints")
            if cat.inverse_idx(a) is None:
                raise CategoryError(
                    f"ladder component {cat.mor_ids[a]} is not invertible")
        for i, (f, g) in enumerate(zip(source.mors, target.mors)):
            if cat.compose_idx(components[i + 1], f) != cat.compose_idx(g, components[i]):
                raise CategoryError(f"square {i + 1} does not commute")
        self.source, self.target, self.components = source, target, components

    @classmethod
    def from_ids(cls, source: Chain, target: Chain, component_ids) -> "ChainIso":
        cat = source.cat
        return cls(source, target, (cat.mor_index(a) for a in component_ids))

    @classmethod
    def from_action(cls, alpha_ids, chain: Chain) -> "ChainIso":
        """The ladder witnessing that acting by an automorphism tuple lands
        on the transformed chain."""
        return cls(chain, act(alpha_ids, chain),
                   (chain.cat.mor_index(a) for a in alpha_ids))

    @property
    def component_ids(self) -> tuple:
        return tuple(self.source.cat.mor_ids[a] for a in self.components)

    def inverse(self) -> "ChainIso":
        cat = self.source.cat
        return ChainIso(self.target, self.source,
                        (cat.inverse_idx(a) for a in self.components))

    def __repr__(self):
        return "ChainIso<" + ",".join(self.component_ids) + ">"


# ---------------------------------------------------------------------------
# Enumeration


def _check_level(n: int) -> None:
    if n < 0:
        raise CategoryError(f"levels start at 0, got level {n}")


def chain_count(cat: FiniteCategory, n: int) -> int:
    """Number of n-chains, by dynamic programming over hom-set sizes."""
    _check_level(n)
    nob = cat.n_objects
    hom_size = [[len(cat.hom_idx(x, y)) for y in range(nob)] for x in range(nob)]
    ways = [1] * nob
    for _ in range(n):
        ways = [sum(ways[x] * hom_size[x][y] for x in range(nob)) for y in range(nob)]
    return sum(ways)


def _chain_mors_iter(cat: FiniteCategory, n: int):
    """Morphism-index tuples of n-chains, lexicographically ascending."""
    def rec(prefix, tail_obj, k):
        if k == 0:
            yield tuple(prefix)
            return
        for f in cat.morphisms_from_idx(tail_obj):
            prefix.append(f)
            yield from rec(prefix, cat.dst[f], k - 1)
            prefix.pop()

    for f in range(cat.n_morphisms):
        yield from rec([f], cat.dst[f], n - 1)


def _limited_chain_count(cat: FiniteCategory, n: int, limits: Limits) -> int:
    """``chain_count``, raising ChainLimitExceeded above chain_limit."""
    total = chain_count(cat, n)
    if total > limits.chain_limit:
        raise ChainLimitExceeded(
            f"{total} chains at level {n} exceeds chain_limit {limits.chain_limit}")
    return total


def enumerate_chains(cat: FiniteCategory, n: int,
                     limits: Limits = DEFAULT_LIMITS) -> list:
    """All n-chains in lexicographic order of morphism index tuples;
    level 0 yields one chain per object, in object order."""
    _check_level(n)
    if n == 0:
        return [Chain(cat, (x,), ()) for x in range(cat.n_objects)]
    _limited_chain_count(cat, n, limits)
    out = []
    for mors in _chain_mors_iter(cat, n):
        objs = (cat.src[mors[0]],) + tuple(cat.dst[f] for f in mors)
        out.append(Chain(cat, objs, mors))
    return out


# ---------------------------------------------------------------------------
# The ladder action


def _act_mors(cat: FiniteCategory, alpha, objs, mors):
    """(alpha_1 f_1 alpha_0^-1, ..., alpha_n f_n alpha_{n-1}^-1) on indices."""
    inv0 = cat.inverse_idx(alpha[0])
    out = []
    left_inv = inv0
    for i, f in enumerate(mors):
        g = cat.compose_idx(alpha[i + 1], cat.compose_idx(f, left_inv))
        out.append(g)
        left_inv = cat.inverse_idx(alpha[i + 1])
    return tuple(out)


def act(alpha_ids, chain: Chain) -> Chain:
    """Apply an automorphism tuple (by morphism ids) to a chain."""
    cat = chain.cat
    alpha = tuple(cat.mor_index(a) for a in alpha_ids)
    if len(alpha) != len(chain.objs):
        raise CategoryError("need one automorphism per chain object")
    for i, a in enumerate(alpha):
        x = chain.objs[i]
        if cat.src[a] != x or cat.dst[a] != x or cat.inverse_idx(a) is None:
            raise CategoryError(
                f"{cat.mor_ids[a]} is not an automorphism of {cat.objects[x]}")
    return Chain(cat, chain.objs, _act_mors(cat, alpha, chain.objs, chain.mors))


# ---------------------------------------------------------------------------
# Stabilizers


@dataclass
class StabilizerGroup:
    """The subgroup of Aut(x_0) x ... x Aut(x_n) fixing the chain ``mors``.

    ``elements`` is the full element list when the ambient product was small
    enough to scan directly; otherwise it is None and the exact order comes
    from orbit-stabilizer division.
    """

    cat: FiniteCategory
    objs: tuple
    mors: tuple
    order: int
    elements: Optional[list]              # automorphism tuples (morphism indices)
    policy: str                           # "scan" or "transversal"

    def to_cayley_table(self, table_limit: int) -> CayleyTable:
        """The scanned elements, or those of ``_chain_stabilizer``,
        multiplied coordinate-wise in the Cayley tables of the Aut(x_i)
        (``FiniteCategory.aut_table``).  Raises GroupError unless the
        chain's stabilizer has exactly ``order`` elements, and the table
        unless the elements are closed."""
        els = self.elements
        if els is None:
            if self.order > table_limit:
                raise ClosureLimitExceeded(table_limit, self.order)
            els = _chain_stabilizer(self.cat, self.objs, self.mors)
            if len(els) != self.order:
                raise GroupError(f"the stabilizer has {len(els)} elements, "
                                 f"not the division order {self.order}")
        els = np.array(els, dtype=np.int64).reshape(len(els), len(self.objs))
        coords = [np.searchsorted(self.cat.aut_idx(x), els[:, i])
                  for i, x in enumerate(self.objs)]
        return table_in_product([self.cat.aut_table(x) for x in self.objs],
                                np.stack(coords, axis=1), label="stabilizer")


def _chain_stabilizer(cat: FiniteCategory, objs, mors) -> list:
    """Every automorphism tuple fixing the chain, in lexicographic order:
    a_0 runs over Aut(x_0), and a_i over the elements of Aut(x_i) with
    a_i . f_i = f_i . a_{i-1}, so dead prefixes drop out coordinate by
    coordinate."""
    els = [(a,) for a in cat.aut_idx(objs[0])]
    for i, f in enumerate(mors):
        after = {}
        for a in cat.aut_idx(objs[i + 1]):
            after.setdefault(cat.compose_idx(a, f), []).append(a)
        before = {a: cat.compose_idx(f, a) for a in cat.aut_idx(objs[i])}
        els = [p + (a,) for p in els for a in after.get(before[p[-1]], ())]
    return els


def _ambient_order(cat: FiniteCategory, objs) -> int:
    return math.prod(len(cat.aut_idx(x)) for x in objs)


def _tuple_action(cat: FiniteCategory, objs) -> tuple:
    """(hom sets, strides, moves, labels) of the ladder action on the
    chains of one object tuple.

    A chain is coded in mixed radix over the positions of its morphisms in
    their hom sets, the first morphism most significant, so codes order the
    chains lexicographically.  Each move maps every code to its image under
    one generator of one Aut(x_i), in (i, generator) order, read from the
    generator columns of the hom sets next to x_i.  Min-label propagation
    with pointer jumping over the moves labels every chain with the least
    code in its orbit.
    """
    homs = [cat.hom_idx(x, y) for x, y in zip(objs, objs[1:])]
    radix = [len(h) for h in homs]
    strides = [math.prod(radix[i + 1:]) for i in range(len(homs))]
    codes = np.arange(math.prod(radix))
    digits = [codes // s % r for s, r in zip(strides, radix)]
    moves = []
    for i, x in enumerate(objs):
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


def _decode(homs, strides, code) -> tuple:
    return tuple(h[code // s % len(h)] for h, s in zip(homs, strides))


def _encode(homs, strides, mors) -> int:
    return sum(h.index(f) * s for h, f, s in zip(homs, mors, strides))


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


# The stabilizer scan takes seeds in blocks of about this many compared cells.
_SCAN_CELLS = 1 << 20


def _scan_stabilizers(cat, objs, homs, strides, seeds) -> list:
    """For each chain coded in ``seeds``, every automorphism tuple fixing
    it, in lexicographic order.

    One vectorized pass over the full action tables of the tuple's hom
    sets: a_0 runs over Aut(x_0), and a_i over the elements of Aut(x_i)
    with a_i . h = f_i for h = f_i . a_{i-1}^-1, so dead prefixes drop out
    coordinate by coordinate.
    """
    auts = [np.array(cat.aut_idx(x)) for x in objs]
    tables = [cat.hom_action_tables(x, y) for x, y in zip(objs, objs[1:])]
    seeds = np.asarray(seeds, dtype=np.int64)
    block = max(1, _SCAN_CELLS // _ambient_order(cat, objs))
    out = []
    for lo in range(0, len(seeds), block):
        part = seeds[lo:lo + block]
        which = np.repeat(np.arange(len(part)), len(auts[0]))
        prefix = [np.tile(np.arange(len(auts[0])), len(part))]
        for i, (left, right) in enumerate(tables):
            f = (part // strides[i] % len(homs[i]))[which]
            h = right[prefix[-1], f]
            keep, a = np.nonzero(left[:, h].T == f[:, None])
            which = which[keep]
            prefix = [p[keep] for p in prefix] + [a]
        els = np.stack([aut[p] for aut, p in zip(auts, prefix)], axis=1).tolist()
        bounds = np.searchsorted(which, np.arange(len(part) + 1)).tolist()
        out += [[tuple(a) for a in els[b:e]] for b, e in zip(bounds, bounds[1:])]
    return out


def _orbit_and_stabilizer(cat: FiniteCategory, objs, limits: Limits,
                          seeds=None, reverse: bool = False) -> list:
    """[(chain morphisms, orbit size, stabilizer)] on one object tuple, for
    the chains whose morphism tuples are ``seeds`` or, by default, for the
    least chain of every orbit, in ascending order.

    Orbits come from the labels of ``_tuple_action``.  The stabilizer is
    scanned directly when the ambient product fits scan_limit, yielding the
    full element list; otherwise a breadth-first orbit search, whose member
    set must equal the labelled orbit, gives its order as the ambient order
    divided by the orbit size, and its elements are listed only when it is
    tabled.
    Either way orbit size times order must equal the ambient order.  With
    ``reverse`` the search also runs from the greatest member of every
    orbit, and its member set must equal the labelled orbit too.
    """
    homs, strides, moves, labels = _tuple_action(cat, objs)
    seeds = (np.flatnonzero(labels == np.arange(len(labels))).tolist() if seeds is None
             else [_encode(homs, strides, m) for m in seeds])
    order = np.argsort(labels, kind="stable")
    by_label = labels[order]
    orbits_ = [order[np.searchsorted(by_label, labels[c]):
                     np.searchsorted(by_label, labels[c], "right")].tolist() for c in seeds]
    ambient = _ambient_order(cat, objs)
    reps = [_decode(homs, strides, c) for c in seeds]
    stabs = []
    if ambient > limits.scan_limit:
        for seed, orbit, mors in zip(seeds, orbits_, reps):
            members = _orbit_search(moves, seed)
            if sorted(members) != orbit:
                raise CategoryError(f"orbit search from {mors} disagrees with the orbit labels")
            if ambient % len(members):
                raise CategoryError("orbit size does not divide the ambient group order")
            stabs.append(StabilizerGroup(cat, objs, mors, ambient // len(members),
                                         None, "transversal"))
    else:
        scans = _scan_stabilizers(cat, objs, homs, strides, seeds)
        stabs = [StabilizerGroup(cat, objs, mors, len(els), els, "scan")
                 for mors, els in zip(reps, scans)]
    out = []
    for orbit, stab in zip(orbits_, stabs):
        mors = stab.mors
        if len(orbit) * stab.order != ambient:
            raise CategoryError(
                f"orbit-stabilizer identity fails at {Chain(cat, objs, mors)!r}: "
                f"{len(orbit)} * {stab.order} != {ambient}")
        if reverse and sorted(_orbit_search(moves, orbit[-1])) != orbit:
            raise CategoryError(f"orbits of {_decode(homs, strides, orbit[-1])} "
                                f"and of its least member {mors} differ")
        out.append((mors, len(orbit), stab))
    return out


def least_member(cat: FiniteCategory, chain: Chain) -> Chain:
    """The lexicographically least chain in the orbit of ``chain`` on its
    object tuple."""
    homs, strides, _, labels = _tuple_action(cat, chain.objs)
    return Chain(cat, chain.objs,
                 _decode(homs, strides, int(labels[_encode(homs, strides, chain.mors)])))


def stabilizer(cat: FiniteCategory, chain: Chain,
               limits: Limits = DEFAULT_LIMITS) -> StabilizerGroup:
    """Stabilizer of a chain under the ladder action of Aut(x_0) x ... x Aut(x_n)."""
    return _orbit_and_stabilizer(cat, chain.objs, limits, [chain.mors])[0][2]


# ---------------------------------------------------------------------------
# Orbits


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


def iso_classes_of_objects(cat: FiniteCategory,
                           limits: Limits = DEFAULT_LIMITS) -> list:
    """Level-0 orbits: isomorphism classes of objects with Aut(rep)."""
    orbits_ = []
    for cls in object_iso_classes(cat):
        auts = cat.aut_idx(cls.rep)
        stab = StabilizerGroup(cat, (cls.rep,), (), len(auts), [(a,) for a in auts], "scan")
        orbits_.append(Orbit(
            rep=Chain(cat, (cls.rep,), ()),
            size=len(cls.members),
            rep_fiber_size=1,
            ambient_order=len(auts),
            stabilizer=stab,
        ))
    return orbits_


def orbits(cat: FiniteCategory, n: int, limits: Limits = DEFAULT_LIMITS,
           reverse: bool = False) -> list:
    """All components of level n with representatives and stabilizers.

    Object tuples are first reduced to isomorphism-class representatives,
    taken in ascending order.  On each tuple the chains are labelled with
    the least chain of their orbit by min-label propagation over the
    single-coordinate generator moves (``_tuple_action``), and every orbit
    gets its stabilizer from ``_orbit_and_stabilizer``.  Representatives are
    the lexicographically least chains on their tuple (by morphism index),
    so the output does not depend on enumeration order; ``reverse`` checks
    that by also searching every orbit from its greatest member.
    """
    _check_level(n)
    if n == 0:
        return iso_classes_of_objects(cat, limits)

    total = _limited_chain_count(cat, n, limits)
    classes = object_iso_classes(cat)
    class_size = {x: len(cls.members) for cls in classes for x in cls.members}
    out = []
    for objs in itertools.product([cls.rep for cls in classes], repeat=n + 1):
        if not all(cat.hom_idx(x, y) for x, y in zip(objs, objs[1:])):
            continue
        mult = math.prod(class_size[x] for x in objs)
        for mors, size, stab in _orbit_and_stabilizer(cat, objs, limits, reverse=reverse):
            out.append(Orbit(rep=Chain(cat, objs, mors), size=size * mult,
                             rep_fiber_size=size, ambient_order=_ambient_order(cat, objs),
                             stabilizer=stab))
    if sum(o.size for o in out) != total:
        raise CategoryError("orbit sizes do not sum to the chain count")
    return out
