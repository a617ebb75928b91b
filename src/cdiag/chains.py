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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fincat import CategoryError, FiniteCategory, object_iso_classes
from .groups import CayleyTable, ClosureLimitExceeded, greedy_closure, table_in_product
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


def _chain_mors_iter(cat: FiniteCategory, n: int, allowed=None):
    """Morphism-index tuples of n-chains, lexicographically ascending.
    ``allowed`` optionally restricts which morphisms may appear."""
    out_of = {}

    def outgoing(x):
        if x not in out_of:
            ms = cat.morphisms_from_idx(x)
            out_of[x] = [f for f in ms if allowed is None or f in allowed]
        return out_of[x]

    first = sorted(f for f in range(cat.n_morphisms)
                   if allowed is None or f in allowed)

    def rec(prefix, tail_obj, k):
        if k == 0:
            yield tuple(prefix)
            return
        for f in outgoing(tail_obj):
            prefix.append(f)
            yield from rec(prefix, cat.dst[f], k - 1)
            prefix.pop()

    for f in first:
        yield from rec([f], cat.dst[f], n - 1)


def enumerate_chains(cat: FiniteCategory, n: int,
                     limits: Limits = DEFAULT_LIMITS) -> list:
    """All n-chains in lexicographic order of morphism index tuples;
    level 0 yields one chain per object, in object order."""
    _check_level(n)
    if n == 0:
        return [Chain(cat, (x,), ()) for x in range(cat.n_objects)]
    total = chain_count(cat, n)
    if total > limits.chain_limit:
        raise ChainLimitExceeded(
            f"{total} chains at level {n} exceeds chain_limit {limits.chain_limit}")
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
    """The subgroup of Aut(x_0) x ... x Aut(x_n) fixing a chain.

    ``elements`` is the full element list when the ambient product was small
    enough to scan directly; otherwise only Schreier generators are kept and
    the exact order comes from orbit-stabilizer division.
    """

    cat: FiniteCategory
    objs: tuple
    order: int
    generators: list                      # automorphism tuples (morphism indices)
    elements: Optional[list]
    policy: str                           # "scan" or "transversal"

    def compose(self, a, b):
        return tuple(self.cat.compose_idx(a[i], b[i]) for i in range(len(a)))

    @property
    def identity(self):
        return tuple(self.cat.identity_idx[x] for x in self.objs)

    def to_cayley_table(self, table_limit: int) -> CayleyTable:
        """The scanned elements, or the greedy closure of the Schreier
        generators to ``order``, multiplied coordinate-wise in the Cayley
        tables of the Aut(x_i).  The closure raises GroupError unless the
        generators give exactly ``order`` elements."""
        els = self.elements
        if els is None:
            if self.order > table_limit:
                raise ClosureLimitExceeded(table_limit, self.order)
            els = greedy_closure(self.generators, self.compose, self.identity, self.order)[2]
        els = np.array(els, dtype=np.int64).reshape(len(els), len(self.objs))
        tables, coords = zip(*(_coordinate_table(self.cat, x, els[:, i])
                               for i, x in enumerate(self.objs)))
        return table_in_product(tables, np.stack(coords, axis=1), label="stabilizer")

    def generator_ids(self) -> list:
        return [tuple(self.cat.mor_ids[a] for a in alpha) for alpha in self.generators]


def _coordinate_table(cat: FiniteCategory, x: int, auts_used) -> tuple:
    """(table, coordinates) of one coordinate of a set of automorphism
    tuples, ``auts_used`` holding its automorphism of x in each element.

    The whole of Aut(x) is tabled, once per object, when it has no more
    elements than the set; its composites then cost no more than the set's
    own table, and later sets reuse them.  Otherwise only the automorphisms
    in use are tabled, which keeps a small stabilizer inside a large Aut(x)
    from paying |Aut(x)|^2.
    """
    auts = cat.aut_idx(x)
    positions = np.searchsorted(auts, auts_used)
    if len(auts) <= len(auts_used):
        return cat.aut_table(x), positions
    used, coords = np.unique(positions, return_inverse=True)
    return cat.aut_subtable(x, used.tolist()), coords


def _ambient_order(cat: FiniteCategory, objs) -> int:
    out = 1
    for x in objs:
        out *= len(cat.aut_idx(x))
    return out


def _scan_stabilizer(cat, objs, mors) -> list:
    """All automorphism tuples fixing the chain, in lexicographic order.

    Exhausts the ambient product coordinate by coordinate: alpha_i must
    satisfy alpha_i . (f_i . alpha_{i-1}^-1) = f_i, so dead prefixes are
    dropped as soon as they appear.
    """
    aut_lists = [cat.aut_idx(x) for x in objs]
    hits = []
    n = len(mors)

    def rec(i, prefix):
        if i == n + 1:
            hits.append(tuple(prefix))
            return
        if i == 0:
            for a in aut_lists[0]:
                rec(1, [a])
            return
        h = cat.compose_idx(mors[i - 1], cat.inverse_idx(prefix[i - 1]))
        f = mors[i - 1]
        for a in aut_lists[i]:
            if cat.compose_idx(a, h) == f:
                prefix.append(a)
                rec(i + 1, prefix)
                prefix.pop()

    rec(0, [])
    return hits


def _single_coordinate_moves(cat, objs):
    """(coordinate, generator, ladder tuple) moves generating the product action."""
    idt = [cat.identity_idx[x] for x in objs]
    moves = []
    for i, x in enumerate(objs):
        for g in cat.aut_generators(x):
            alpha = list(idt)
            alpha[i] = g
            moves.append(tuple(alpha))
    return moves


def _orbit_bfs(cat, objs, seed_mors, with_transversal):
    """Expand the ladder-action orbit of one chain on a fixed object tuple.

    Returns (members set, Schreier generator list); the list is empty
    unless ``with_transversal``.
    """
    moves = _single_coordinate_moves(cat, objs)
    members = {seed_mors}
    transversal = {seed_mors: tuple(cat.identity_idx[x] for x in objs)} if with_transversal else None
    schreier = []
    seen_schreier = set()
    frontier = [seed_mors]
    while frontier:
        new = []
        for mors in frontier:
            for alpha in moves:
                nxt = _act_mors(cat, alpha, objs, mors)
                if nxt not in members:
                    members.add(nxt)
                    new.append(nxt)
                    if with_transversal:
                        u = transversal[mors]
                        transversal[nxt] = tuple(
                            cat.compose_idx(alpha[i], u[i]) for i in range(len(u)))
                elif with_transversal:
                    u = transversal[mors]
                    v = transversal[nxt]
                    gen = tuple(
                        cat.compose_idx(
                            cat.inverse_idx(v[i]),
                            cat.compose_idx(alpha[i], u[i]))
                        for i in range(len(u)))
                    if gen not in seen_schreier:
                        seen_schreier.add(gen)
                        schreier.append(gen)
        frontier = new
    return members, schreier


def _orbit_and_stabilizer(cat: FiniteCategory, objs, mors, limits: Limits):
    """(orbit, stabilizer) of one chain on its object tuple.

    The stabilizer is scanned directly when the ambient product fits
    scan_limit, yielding the full element list; otherwise it keeps the
    Schreier generators of the orbit search, and its order is the ambient
    order divided by the orbit size.  Either way orbit size times order
    must equal the ambient order.
    """
    ambient = _ambient_order(cat, objs)
    transversal = ambient > limits.scan_limit
    members, schreier = _orbit_bfs(cat, objs, mors, transversal)
    idt = tuple(cat.identity_idx[x] for x in objs)
    if transversal:
        if ambient % len(members):
            raise CategoryError("orbit size does not divide the ambient group order")
        gens = [g for g in schreier if g != idt]
        stab = StabilizerGroup(cat, objs, ambient // len(members), gens, None, "transversal")
    else:
        elements = _scan_stabilizer(cat, objs, mors)
        gens = [a for a in elements if a != idt]
        stab = StabilizerGroup(cat, objs, len(elements), gens, elements, "scan")
    if len(members) * stab.order != ambient:
        raise CategoryError(
            f"orbit-stabilizer identity fails at {Chain(cat, objs, mors)!r}: "
            f"{len(members)} * {stab.order} != {ambient}")
    return members, stab


def stabilizer(cat: FiniteCategory, chain: Chain,
               limits: Limits = DEFAULT_LIMITS) -> StabilizerGroup:
    """Stabilizer of a chain under the ladder action of Aut(x_0) x ... x Aut(x_n)."""
    return _orbit_and_stabilizer(cat, chain.objs, chain.mors, limits)[1]


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
        stab = StabilizerGroup(
            cat, (cls.rep,), len(auts),
            [(a,) for a in auts if a != cat.identity_idx[cls.rep]],
            [(a,) for a in auts], "scan")
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

    Object tuples are first reduced to isomorphism-class representatives;
    within a representative tuple the ladder action is expanded breadth
    first over single-coordinate automorphism generator moves.
    Representatives are the lexicographically least chains on their tuple
    (by morphism index), so the output is independent of enumeration order.
    """
    _check_level(n)
    if n == 0:
        return iso_classes_of_objects(cat, limits)

    total = chain_count(cat, n)
    if total > limits.chain_limit:
        raise ChainLimitExceeded(
            f"{total} chains at level {n} exceeds chain_limit {limits.chain_limit}")

    classes = object_iso_classes(cat)
    class_size = {}
    rep_objects = set()
    for cls in classes:
        rep_objects.add(cls.rep)
        for x in cls.members:
            class_size[x] = len(cls.members)

    allowed = {f for f in range(cat.n_morphisms)
               if cat.src[f] in rep_objects and cat.dst[f] in rep_objects}

    seeds = list(_chain_mors_iter(cat, n, allowed=allowed))
    if reverse:
        seeds = seeds[::-1]

    visited = set()
    out = []
    for seed in seeds:
        if seed in visited:
            continue
        objs = (cat.src[seed[0]],) + tuple(cat.dst[f] for f in seed)
        members, stab = _orbit_and_stabilizer(cat, objs, seed, limits)
        rep_mors = min(members)
        if rep_mors != seed:
            rep_members, stab = _orbit_and_stabilizer(cat, objs, rep_mors, limits)
            if rep_members != members:
                raise CategoryError(
                    f"orbits of {seed} and of its least member {rep_mors} differ")
        visited |= members
        mult = 1
        for x in objs:
            mult *= class_size[x]
        out.append(Orbit(rep=Chain(cat, objs, rep_mors), size=len(members) * mult,
                         rep_fiber_size=len(members),
                         ambient_order=_ambient_order(cat, objs), stabilizer=stab))

    out.sort(key=lambda o: (o.rep.objs, o.rep.mors))
    if sum(o.size for o in out) != total:
        raise CategoryError("orbit sizes do not sum to the chain count")
    return out
