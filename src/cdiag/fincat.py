"""Finite categories with explicit, fully validated composition.

A FiniteCategory stores objects and morphisms as opaque string ids; all
engine-internal indexing uses dense integers.  Every morphism carries a
hashable payload (an ordered pair for ordinals, a group element, a function
or matrix for the skeletons, the parent's morphism index for derived
categories, the morphism's own name for CATDEF input), and composites are
computed from payloads on demand and cached.  The finset and vect skeletons
also give a hom-set codec, which reads a whole hom set as one integer array
so that a generator acts on it in one numpy step.  Values are immutable
after construction and every operation here is pure.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import CayleyTable, closure_columns, word_levels, word_rows


class CategoryError(Exception):
    pass


def _radix_codes(stack: np.ndarray, radix: int) -> np.ndarray:
    """Each array of ``stack`` read as one number in base ``radix``, its
    first entry most significant, as int64; -1 for an array with an entry
    outside 0 .. radix - 1."""
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    codes = np.zeros(len(flat), dtype=np.int64)
    for column in flat.T:       # an entry at a time: no int64 copy of the stack
        codes = codes * radix + column.astype(np.int64)
    codes[((flat < 0) | (flat >= radix)).any(axis=1)] = -1
    return codes


def _code_finder(stack: np.ndarray, radix: int):
    """find(arrays): the position in ``stack`` of each of ``arrays``,
    matched by radix code, or -1 for one that is not in it."""
    codes = _radix_codes(stack, radix)
    order = np.argsort(codes)
    ordered = codes[order]

    def find(arrays):
        found = _radix_codes(arrays, radix)
        at = np.minimum(np.searchsorted(ordered, found), len(ordered) - 1)
        return np.where((ordered[at] == found) & (found >= 0), order[at], -1)
    return find


class CatdefError(CategoryError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Core type


class FiniteCategory:
    def __init__(self, objects, morphisms, identity, *, payloads, compose_payload,
                 inverse_payload=None, codec=None, name: str = ""):
        """
        objects: sequence of object ids.
        morphisms: sequence of (morphism id, source id, target id).
        identity: mapping object id -> morphism id.
        payloads: one distinct hashable value per morphism, in morphism order.
        compose_payload: (payload of g, payload of f) -> payload of g after f,
            called only on composable pairs; None when there is no composite.
        inverse_payload: payload -> payload of its inverse, or None when the
            morphism is not invertible.  Without it inverses are searched
            for in the opposite hom set.
        codec: reads the payloads of a hom set as integer arrays, for
            Aut(x) and the generator columns of hom sets and of Aut(x).
            ``codec.values(si, di, payloads)`` stacks the payloads of
            morphisms si -> di into one array, one payload per row, with
            entries in 0 .. ``codec.radix(si, di)`` - 1;
            ``codec.left(g, F)`` and ``codec.right(F, h)`` are the stacks of
            g after each f in F and of each f in F after h, for one stacked
            g of di -> di or h of si -> si; ``codec.left(G, F)`` with a
            stack G of as many rows as F composes row by row;
            ``codec.units(E)``, for the stack E of the endomorphisms of one
            object, is (invertible, inverses): a boolean per row of E, and
            the stack of the inverses of the invertible rows, in order.
            Without it every inverse is searched for and every composite
            computed pair by pair.
        """
        self.name = name
        self.objects = tuple(objects)
        self._oidx = {o: i for i, o in enumerate(self.objects)}
        if len(self._oidx) != len(self.objects):
            raise CategoryError("duplicate object id")

        mors = list(morphisms)
        self.mor_ids = tuple(m[0] for m in mors)
        self._midx = {m: i for i, m in enumerate(self.mor_ids)}
        if len(self._midx) != len(self.mor_ids):
            raise CategoryError("duplicate morphism id")
        for _, s, d in mors:
            if s not in self._oidx or d not in self._oidx:
                raise CategoryError(f"morphism endpoint not an object: {s!r} -> {d!r}")
        self.src = tuple(self._oidx[m[1]] for m in mors)
        self.dst = tuple(self._oidx[m[2]] for m in mors)

        ident = []
        for o in self.objects:
            if o not in identity:
                raise CategoryError(f"no identity for object {o!r}")
            mi = self._midx.get(identity[o])
            if mi is None:
                raise CategoryError(f"identity of {o!r} is not a morphism")
            if self.src[mi] != self._oidx[o] or self.dst[mi] != self._oidx[o]:
                raise CategoryError(f"identity of {o!r} is not an endomorphism")
            ident.append(mi)
        self.identity_idx = tuple(ident)
        self._identity_set = frozenset(ident)

        self.payloads = tuple(payloads)
        if len(self.payloads) != len(self.mor_ids):
            raise CategoryError("one payload per morphism required")
        self._payload_idx = {p: i for i, p in enumerate(self.payloads)}
        if len(self._payload_idx) != len(self.payloads):
            raise CategoryError("duplicate morphism payload")
        self._compose_payload = compose_payload
        self._inverse_payload = inverse_payload
        self._codec = codec
        self._ctab = {}

        self._hom = None
        self._by_src = None
        self._inv = {}
        self._aut = {}
        self._aut_closures = {}
        self._aut_table = {}
        self._hom_columns = {}
        self._hom_stacks = {}

    # -- basic accessors ----------------------------------------------------

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.mor_ids)

    def obj_index(self, obj_id: str) -> int:
        try:
            return self._oidx[obj_id]
        except KeyError:
            raise CategoryError(f"unknown object id {obj_id!r}") from None

    def mor_index(self, mor_id: str) -> int:
        try:
            return self._midx[mor_id]
        except KeyError:
            raise CategoryError(f"unknown morphism id {mor_id!r}") from None

    def source(self, mor_id: str) -> str:
        return self.objects[self.src[self.mor_index(mor_id)]]

    def target(self, mor_id: str) -> str:
        return self.objects[self.dst[self.mor_index(mor_id)]]

    def is_identity_idx(self, mi: int) -> bool:
        return mi in self._identity_set

    def hom_idx(self, si: int, di: int) -> list:
        if self._hom is None:
            hom = {}
            for i in range(len(self.mor_ids)):
                hom.setdefault((self.src[i], self.dst[i]), []).append(i)
            self._hom = hom
        return self._hom.get((si, di), [])

    def morphisms_from_idx(self, si: int) -> list:
        if self._by_src is None:
            by = [[] for _ in self.objects]
            for i in range(len(self.mor_ids)):
                by[self.src[i]].append(i)
            self._by_src = by
        return self._by_src[si]

    # -- composition ----------------------------------------------------------

    def compose_idx(self, gi: int, fi: int) -> int:
        if self.dst[fi] != self.src[gi]:
            raise CategoryError(
                f"pair not composable: {self.mor_ids[gi]} after {self.mor_ids[fi]}")
        key = (gi, fi)
        h = self._ctab.get(key)
        if h is None:
            h = self._payload_idx.get(self._compose_payload(self.payloads[gi], self.payloads[fi]))
            if h is None:
                raise CategoryError(
                    f"missing composite for pair ({self.mor_ids[gi]}, {self.mor_ids[fi]})")
            self._ctab[key] = h
        return h

    def compose(self, g: str, f: str) -> str:
        return self.mor_ids[self.compose_idx(self.mor_index(g), self.mor_index(f))]

    # -- isomorphisms ---------------------------------------------------------

    def inverse_idx(self, mi: int) -> Optional[int]:
        if mi not in self._inv:
            self._inv[mi] = self._find_inverse(mi)
        return self._inv[mi]

    def _find_inverse(self, mi: int) -> Optional[int]:
        """``inverse_idx`` without keeping the answer."""
        if self._inverse_payload is None:
            return next((g for g in self.hom_idx(self.dst[mi], self.src[mi])
                         if self._check_inverse(mi, g)), None)
        p = self._inverse_payload(self.payloads[mi])
        if p is None:
            return None
        inv = self._payload_idx.get(p)
        if inv is None or not self._check_inverse(mi, inv):
            raise CategoryError(f"builder inverse is wrong for {self.mor_ids[mi]}")
        return inv

    def _check_inverse(self, fi: int, gi: int) -> bool:
        return (self.compose_idx(gi, fi) == self.identity_idx[self.src[fi]]
                and self.compose_idx(fi, gi) == self.identity_idx[self.dst[fi]])

    def is_isomorphism(self, mor_id: str) -> bool:
        return self.inverse_idx(self.mor_index(mor_id)) is not None

    def aut_idx(self, oi: int) -> list:
        """All automorphism morphism indices of the object, ascending."""
        return self._units(oi)[0]

    def aut_inverse_ranks(self, oi: int) -> np.ndarray:
        """The rank in ``aut_idx(oi)`` of the inverse of each automorphism,
        as one int64 array in ``aut_idx`` order."""
        return self._units(oi)[1]

    def _units(self, oi: int) -> tuple:
        """(``aut_idx``, ``aut_inverse_ranks``) of x from the inverse of
        every endomorphism, kept as ``inverse_idx`` keeps it, by the codec
        unless all are known.  Computed on the first call and kept."""
        if oi not in self._aut:
            endos = self.hom_idx(oi, oi)
            if self._codec is None or all(m in self._inv for m in endos):
                inverses = [self.inverse_idx(m) for m in endos]
            else:
                inverses = self._codec_inverses(oi, endos)
                self._inv.update(zip(endos, inverses))
            auts = [m for m, g in zip(endos, inverses) if g is not None]
            ranks = np.searchsorted(auts, [g for g in inverses if g is not None])
            self._aut[oi] = auts, ranks
        return self._aut[oi]

    def _codec_inverses(self, oi: int, endos: list) -> list:
        """The inverse of each endomorphism in ``endos`` or None, from one
        ``codec.units`` pass over their stack.  Each inverse is found among
        ``endos`` by its radix code, and f . f^-1 = id = f^-1 . f is checked
        for every unit by a row-by-row codec product of their stacks; so is
        the inverse of f^-1 being f.  Raises CategoryError naming the first
        morphism for which a check fails."""
        codec = self._codec
        E, find = self._hom_stack(oi, oi)
        units, inv = codec.units(E)
        rows = np.flatnonzero(units)
        at = find(inv)
        position = np.full(len(endos), -1)
        position[rows] = at
        ident = endos.index(self.identity_idx[oi])
        bad = ((at < 0) | (position[at] != rows)
               | (find(codec.left(E[rows], E[at])) != ident)
               | (find(codec.left(E[at], E[rows])) != ident))
        if bad.any():
            raise CategoryError(f"codec inverse is wrong for {self.mor_ids[endos[rows[bad][0]]]}")
        inverses = [None] * len(endos)
        for r, p in zip(rows.tolist(), at.tolist()):
            inverses[r] = endos[p]
        return inverses

    def _aut_closure(self, oi: int) -> tuple:
        """(generators, words, columns, tree) of Aut(x) from one greedy
        closure (``groups.closure_columns``) over the ranks in ``aut_idx(oi)``,
        the column of g the ranks of g . a; tree is the words as
        ``groups.word_rows`` reads them.  Computed on the first call and kept."""
        if oi not in self._aut_closures:
            auts = self.aut_idx(oi)
            column = self._column(oi, oi, auts)
            gens, levels, columns = closure_columns(len(auts), lambda g: column(auts[g], True),
                                                    auts.index(self.identity_idx[oi]))
            self._aut_closures[oi] = (
                [auts[g] for g in gens], [w for level in levels for w in level],
                columns, word_levels(levels))
        return self._aut_closures[oi]

    def aut_generators(self, oi: int) -> list:
        """A small generating set of Aut(x), greedy over ``aut_idx(oi)``."""
        return self._aut_closure(oi)[0]

    def aut_words(self, oi: int) -> list:
        """Every automorphism of x as a left word in ``aut_generators(oi)``:
        (element, parent, generator) triples in breadth-first order from the
        identity, (identity, -1, -1), each element that generator after the
        parent, elements and parents as ranks in ``aut_idx(oi)``."""
        return self._aut_closure(oi)[1]

    def _column(self, si: int, di: int, mors: list):
        """column(g, left): the positions among ``mors``, morphisms x -> y,
        of g . f for each f (``left``, g an endomorphism of y) or of f . g
        (else, g one of x), as an int64 array; ``mors`` ascend.  Read
        through the codec when there is one, which acts by one numpy step
        per g on the stack of ``mors`` (``_hom_stack``), else one composite
        per morphism.  A column raises CategoryError for an image outside
        ``mors``."""
        if self._codec is None:
            pos = {f: p for p, f in enumerate(mors)}

            def positions(g, left):
                images = (self.compose_idx(g, f) if left else self.compose_idx(f, g) for f in mors)
                return np.array([pos.get(h, -1) for h in images], dtype=np.int64)
        else:
            codec = self._codec

            def stack(s, d, ms):
                return codec.values(s, d, [self.payloads[m] for m in ms])

            F, find = self._hom_stack(si, di)
            if len(mors) < len(F):
                F = F[np.searchsorted(self.hom_idx(si, di), mors)]
                find = _code_finder(F, codec.radix(si, di))

            def positions(g, left):
                return find(codec.left(stack(di, di, [g])[0], F) if left
                            else codec.right(F, stack(si, si, [g])[0]))

        def column(g, left):
            at = positions(g, left)
            missing = np.flatnonzero(at < 0)
            if len(missing):
                f = mors[missing[0]]
                a, b = (g, f) if left else (f, g)
                raise CategoryError(
                    f"missing composite for pair ({self.mor_ids[a]}, {self.mor_ids[b]})")
            return at

        return column

    def _hom_stack(self, si: int, di: int) -> tuple:
        """(stack, find) of Hom(x, y) through the codec: the payloads of
        ``hom_idx(si, di)`` stacked in that order, and ``_code_finder`` over
        them.  Computed on the first call and kept until ``hom_columns``
        of the pair, its last reader, so that End(x) is stacked once for
        ``aut_idx``, the closure and its own columns."""
        key = (si, di)
        if key not in self._hom_stacks:
            F = self._codec.values(si, di, [self.payloads[m] for m in self.hom_idx(si, di)])
            self._hom_stacks[key] = F, _code_finder(F, self._codec.radix(si, di))
        return self._hom_stacks[key]

    def hom_columns(self, si: int, di: int) -> tuple:
        """Generator columns of Hom(x, y) as arrays of positions in
        ``hom_idx(si, di)``: (left, right), where left[k, p] is the position
        of g . f_p for the k-th generator g of Aut(y) and right[k, p] that
        of f_p . g^-1 for the k-th generator g of Aut(x).  The dtype is the
        smallest that holds a position.  Computed on the first call and
        kept."""
        key = (si, di)
        if key not in self._hom_columns:
            hom = self.hom_idx(si, di)
            column = self._column(si, di, hom)
            invs = [self.inverse_idx(g) for g in self.aut_generators(si)]
            dtype = np.min_scalar_type(max(len(hom) - 1, 0))
            self._hom_columns[key] = tuple(
                np.array([column(g, left) for g in gens], dtype=dtype).reshape(len(gens), len(hom))
                for gens, left in ((self.aut_generators(di), True), (invs, False)))
            self._hom_stacks.pop(key, None)
        return self._hom_columns[key]

    def hom_action_tables(self, si: int, di: int, positions) -> tuple:
        """(left, right) action tables of Aut(y) and Aut(x) on the morphisms
        at ``positions`` in ``hom_idx(si, di)``, not kept: left[a, j] is the
        position of a . f and right[a, j] that of f . a^-1, for f at
        positions[j] and the a-th element of Aut(y) or Aut(x)."""
        left, right = self.hom_columns(si, di)
        positions = np.asarray(positions, dtype=left.dtype)
        return (word_rows(self._aut_closure(di)[3], left, positions),
                word_rows(self._aut_closure(si)[3], right, positions))

    def aut_table(self, oi: int) -> np.ndarray:
        """The read-only Cayley table of Aut(x) in ``aut_idx`` order, built
        along the words from the rank columns of the closure, in the
        smallest integer dtype that holds a rank.  Computed on the first
        call and kept."""
        if oi not in self._aut_table:
            _, _, columns, tree = self._aut_closure(oi)
            table = word_rows(tree, columns, np.arange(columns.shape[1], dtype=columns.dtype))
            table.setflags(write=False)
            self._aut_table[oi] = table
        return self._aut_table[oi]

    # -- axiom checking --------------------------------------------------------

    def check_axioms(self):
        """Verify identity laws and associativity, which composes every
        composable pair, so a missing composite raises too.
        Intended for parsed input and small built categories."""
        nm = len(self.mor_ids)
        for fi in range(nm):
            f = self.mor_ids[fi]
            if self.compose_idx(self.identity_idx[self.dst[fi]], fi) != fi:
                raise CategoryError(f"left identity law fails for {f}")
            if self.compose_idx(fi, self.identity_idx[self.src[fi]]) != fi:
                raise CategoryError(f"right identity law fails for {f}")
        for fi in range(nm):
            for gi in self.morphisms_from_idx(self.dst[fi]):
                gf = self.compose_idx(gi, fi)
                for hi in self.morphisms_from_idx(self.dst[gi]):
                    if self.compose_idx(hi, gf) != self.compose_idx(self.compose_idx(hi, gi), fi):
                        raise CategoryError(
                            "associativity fails for triple "
                            f"({self.mor_ids[hi]}, {self.mor_ids[gi]}, {self.mor_ids[fi]})")
        return self

    # -- derived categories ----------------------------------------------------

    def opposite(self) -> "FiniteCategory":
        """Sources and targets swapped, composition reversed; each payload is
        the morphism's index here."""
        mors = [(m, self.objects[self.dst[i]], self.objects[self.src[i]])
                for i, m in enumerate(self.mor_ids)]
        ident = {o: self.mor_ids[self.identity_idx[i]] for i, o in enumerate(self.objects)}
        return FiniteCategory(self.objects, mors, ident, payloads=range(self.n_morphisms),
                              compose_payload=lambda g, f: self.compose_idx(f, g),
                              inverse_payload=self.inverse_idx,
                              name=f"op({self.name})" if self.name else "op")

    def same_presentation(self, other: "FiniteCategory") -> bool:
        """Structural equality: same ids in the same order, same composition.
        Enumerates all composable pairs, so use on desk-scale categories."""
        if (self.objects != other.objects or self.mor_ids != other.mor_ids
                or self.src != other.src or self.dst != other.dst
                or self.identity_idx != other.identity_idx):
            return False
        for fi in range(len(self.mor_ids)):
            for gi in self.morphisms_from_idx(self.dst[fi]):
                if self.compose_idx(gi, fi) != other.compose_idx(gi, fi):
                    return False
        return True

    def __repr__(self):
        nm = self.name or "category"
        return f"<FiniteCategory {nm}: {self.n_objects} objects, {self.n_morphisms} morphisms>"


# ---------------------------------------------------------------------------
# CATDEF parsing


_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass
class RawCategoryDef:
    """Parsed CATDEF declarations, in file order, prior to validation."""
    objects: list = field(default_factory=list)
    morphisms: list = field(default_factory=list)       # (name, src, dst)
    compositions: list = field(default_factory=list)    # (g, f, h, line)


def _check_name(name: str, line: int, kind: str) -> str:
    if not _NAME_RE.match(name):
        raise CatdefError(line, f"bad {kind} name {name!r}")
    if name.startswith("id_"):
        raise CatdefError(line, f"{kind} name {name!r} uses the reserved prefix id_")
    return name


def parse_catdef(text: str) -> RawCategoryDef:
    """Parse the line-oriented CATDEF format.

    Directives: ``object <name>``, ``mor <name> : <src> -> <dst>``,
    ``compose <g> <f> = <h>`` (g after f).  ``#`` starts a comment; blank
    lines are ignored.  References are checked after the whole file is read,
    so declaration order does not matter.
    """
    out = RawCategoryDef()
    oset, mset = set(), set()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "object":
            if len(toks) != 2:
                raise CatdefError(line_no, "expected: object <name>")
            name = _check_name(toks[1], line_no, "object")
            if name in oset:
                raise CatdefError(line_no, f"duplicate object {name!r}")
            oset.add(name)
            out.objects.append(name)
        elif toks[0] == "mor":
            if len(toks) != 6 or toks[2] != ":" or toks[4] != "->":
                raise CatdefError(line_no, "expected: mor <name> : <src> -> <dst>")
            name = _check_name(toks[1], line_no, "morphism")
            if name in mset:
                raise CatdefError(line_no, f"duplicate morphism {name!r}")
            mset.add(name)
            out.morphisms.append((name, toks[3], toks[5], line_no))
        elif toks[0] == "compose":
            if len(toks) != 5 or toks[3] != "=":
                raise CatdefError(line_no, "expected: compose <g> <f> = <h>")
            out.compositions.append((toks[1], toks[2], toks[4], line_no))
        else:
            raise CatdefError(line_no, f"unrecognized directive {toks[0]!r}")

    def known_mor(name):
        return name in mset or (name.startswith("id_") and name[3:] in oset)

    for name, s, d, line_no in out.morphisms:
        for o in (s, d):
            if o not in oset:
                raise CatdefError(line_no, f"morphism {name!r} references undeclared object {o!r}")
    for g, f, h, line_no in out.compositions:
        for m in (g, f, h):
            if not known_mor(m):
                raise CatdefError(line_no, f"composition references undeclared morphism {m!r}")
    out.morphisms = [(n, s, d) for n, s, d, _ in out.morphisms]
    return out


def validate_category(rdef: RawCategoryDef, name: str = "") -> FiniteCategory:
    """Assemble and fully check a category from parsed declarations.

    Identities are synthesized as ``id_<object>`` and their composites are
    auto-filled; every other composable pair must be declared.
    """
    objects = list(rdef.objects)
    morphisms = [(f"id_{o}", o, o) for o in objects] + list(rdef.morphisms)
    mor_ep = {m: (s, d) for m, s, d in morphisms}
    identity = {o: f"id_{o}" for o in objects}

    table = {}
    for o in objects:
        table[(f"id_{o}", f"id_{o}")] = f"id_{o}"
    for m, s, d in rdef.morphisms:
        table[(f"id_{d}", m)] = m
        table[(m, f"id_{s}")] = m

    for g, f, h, line_no in rdef.compositions:
        sg, dg = mor_ep[g]
        sf, df = mor_ep[f]
        sh, dh = mor_ep[h]
        if df != sg:
            raise CatdefError(line_no, f"compose {g} {f}: target of {f} is {df}, source of {g} is {sg}")
        if (sh, dh) != (sf, dg):
            raise CatdefError(line_no, f"compose {g} {f} = {h}: {h} has the wrong endpoints")
        prev = table.get((g, f))
        if prev is not None and prev != h:
            if g.startswith("id_") or f.startswith("id_"):
                raise CatdefError(line_no, f"identity law violated: {g} after {f} must be {prev}, not {h}")
            raise CatdefError(line_no, f"conflicting composites for ({g}, {f}): {prev} vs {h}")
        table[(g, f)] = h

    for g, (sg, _dg) in mor_ep.items():
        for f, (_sf, df) in mor_ep.items():
            if df == sg and (g, f) not in table:
                raise CategoryError(f"missing composite for composable pair ({g}, {f})")

    cat = FiniteCategory(objects, morphisms, identity, payloads=[m for m, _, _ in morphisms],
                         compose_payload=lambda g, f: table.get((g, f)), name=name)
    cat.check_axioms()
    return cat


def from_catdef(text: str, name: str = "") -> FiniteCategory:
    return validate_category(parse_catdef(text), name=name)


# ---------------------------------------------------------------------------
# Builders


def ordinal(m: int) -> FiniteCategory:
    """The finite ordered set 0 -> 1 -> ... -> m viewed as a category:
    one morphism j -> k exactly when j <= k, with payload (j, k)."""
    if not 0 <= m <= 100:
        raise CategoryError(f"ordinal:<m> needs m <= 100 and m >= 0, got {m}")
    objects = [str(j) for j in range(m + 1)]
    payloads = [(j, j) for j in range(m + 1)]
    payloads += [(j, k) for j in range(m + 1) for k in range(j + 1, m + 1)]
    morphisms = [(f"id_{j}" if j == k else f"a{j}_{k}", str(j), str(k)) for j, k in payloads]
    identity = {str(j): f"id_{j}" for j in range(m + 1)}
    return FiniteCategory(objects, morphisms, identity, payloads=payloads,
                          compose_payload=lambda g, f: (f[0], g[1]),
                          inverse_payload=lambda p: p if p[0] == p[1] else None,
                          name=f"ordinal:{m}")


def walking_arrow() -> FiniteCategory:
    """Two objects x, y and a single non-invertible morphism f: x -> y."""
    return from_catdef("object x\nobject y\nmor f : x -> y\n", name="walking-arrow")


def iso_interval() -> FiniteCategory:
    """Two objects joined by mutually inverse isomorphisms."""
    text = (
        "object 0\nobject 1\n"
        "mor f01 : 0 -> 1\nmor f10 : 1 -> 0\n"
        "compose f10 f01 = id_0\ncompose f01 f10 = id_1\n"
    )
    return from_catdef(text, name="iso-interval")


def one_object_group(table, name: str = "") -> FiniteCategory:
    """A group as a one-object category whose morphisms are the elements,
    each with its element index as payload.

    ``table`` is a CayleyTable or a square list of lists (validated).
    """
    if not isinstance(table, CayleyTable):
        table = CayleyTable(table)
    n = table.n
    morphisms = [("id_*" if i == table.identity else f"g{i}", "*", "*") for i in range(n)]
    return FiniteCategory(["*"], morphisms, {"*": "id_*"}, payloads=range(n),
                          compose_payload=table.mul, inverse_payload=table.inv,
                          name=name or f"group[{n}]")


def truncated_delta(m_max: int) -> FiniteCategory:
    """The full subcategory of the category of finite ordered sets on
    [0], ..., [m_max]; morphisms are the order-preserving maps, encoded as
    weakly increasing value tuples."""
    if not 0 <= m_max <= 9:
        raise CategoryError(f"delta:<M> needs 0 <= M <= 9, got {m_max}")
    objects = [f"d{n}" for n in range(m_max + 1)]
    digit = [str(v) for v in range(m_max + 1)].__getitem__    # the id text of a value
    payloads, morphisms = [], []
    for n in range(m_max + 1):
        for m in range(m_max + 1):
            for t in itertools.combinations_with_replacement(range(m + 1), n + 1):
                payload = (n, m, t)
                if n == m and t == tuple(range(n + 1)):
                    mid = f"id_d{n}"
                else:
                    mid = f"t{n}_{m}_" + "".join(map(digit, t))
                payloads.append(payload)
                morphisms.append((mid, f"d{n}", f"d{m}"))
    identity = {f"d{n}": f"id_d{n}" for n in range(m_max + 1)}

    def comp(gp, fp):
        (_, gm, g), (fn, _, f) = gp, fp
        return (fn, gm, tuple(g[v] for v in f))

    def inv(p):
        n, m, t = p
        return p if (n == m and t == tuple(range(n + 1))) else None

    return FiniteCategory(objects, morphisms, identity,
                          payloads=payloads, compose_payload=comp,
                          inverse_payload=inv, name=f"delta:{m_max}")


# ---------------------------------------------------------------------------
# Maximal subgroupoid and object isomorphism classes


def maximal_subgroupoid(cat: FiniteCategory) -> FiniteCategory:
    """Same objects, only the isomorphisms, composition restricted.  Each
    morphism keeps its payload in ``cat``, and with it the payload functions,
    the hom-set codec and the inverse that ``cat`` found and checked."""
    keep = [i for i in range(cat.n_morphisms) if cat.inverse_idx(i) is not None]
    morphisms = [(cat.mor_ids[i], cat.objects[cat.src[i]], cat.objects[cat.dst[i]])
                 for i in keep]
    identity = {o: cat.mor_ids[cat.identity_idx[i]] for i, o in enumerate(cat.objects)}
    sub = FiniteCategory(cat.objects, morphisms, identity,
                         payloads=[cat.payloads[i] for i in keep],
                         compose_payload=cat._compose_payload,
                         inverse_payload=cat._inverse_payload, codec=cat._codec,
                         name=f"iso({cat.name})" if cat.name else "iso")
    sub._inv = dict(enumerate(np.searchsorted(keep, [cat.inverse_idx(i) for i in keep]).tolist()))
    return sub


@dataclass
class ObjectClass:
    """An isomorphism class of objects."""
    rep: int                       # object index of the representative
    members: list                  # object indices, ascending


def object_iso_classes(cat: FiniteCategory) -> list:
    """Isomorphism classes of objects; deterministic, reps are least indices.

    A pair x < y is tested only when |End x| = |End y| = |Hom(x, y)| =
    |Hom(y, x)|, as for every isomorphic pair, by a search of Hom(x, y) that
    stops at its first isomorphism and keeps no inverse."""
    seen, classes = set(), []
    for x in range(cat.n_objects):
        if x in seen:
            continue
        size = len(cat.hom_idx(x, x))
        members = [x] + [y for y in range(x + 1, cat.n_objects) if y not in seen
                         and size == len(cat.hom_idx(y, y)) == len(cat.hom_idx(x, y))
                         == len(cat.hom_idx(y, x))
                         and any(cat._find_inverse(f) is not None for f in cat.hom_idx(x, y))]
        classes.append(ObjectClass(rep=x, members=members))
        seen.update(members)
    return classes
