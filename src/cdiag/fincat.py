"""Finite categories with explicit, fully validated composition.

A FiniteCategory stores objects and morphisms as opaque string ids; all
engine-internal indexing uses dense integers.  Every morphism carries a
hashable payload (an ordered pair for ordinals, a group element, a function
or matrix for the skeletons, the parent's morphism index for derived
categories, the morphism's own name for CATDEF input), and composites are
computed from payloads on demand and cached.  A category is listed, every
morphism given with its id and payload, or coded (``FiniteCategory.coded``),
as the finset and vect skeletons are: each hom set is an ascending array of
radix codes read through a hom-set codec, which decodes a whole hom set as
one integer array so that a generator acts on it in one numpy step, and
makes ids and payloads only when they are read.  Values are immutable
after construction and every operation here is pure.
"""

from __future__ import annotations

import bisect
import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .groups import CayleyTable, closure_columns, radix_codes, word_levels, word_rows


class CategoryError(Exception):
    pass


def _finder(codes: np.ndarray, full: bool, radix: int):
    """find(stack): the position among the ascending ``codes`` of each
    array of ``stack`` by its radix code, or -1: the code itself when
    ``codes`` are all those below their bound, else by ``searchsorted``."""
    if full:
        return lambda stack: radix_codes(stack, radix)
    if not len(codes):
        return lambda stack: np.full(len(stack), -1)

    def find(stack):
        found = radix_codes(stack, radix)
        at = np.minimum(np.searchsorted(codes, found), len(codes) - 1)
        return np.where(codes[at] == found, at, -1)
    return find


def _units_entry(auts: list, ranks: np.ndarray) -> tuple:
    """The kept (``aut_idx``, ``aut_inverse_ranks``, ``aut_array``) of one
    object, the array read-only."""
    array = np.array(auts, dtype=np.int64)
    array.setflags(write=False)
    return auts, ranks, array


class CatdefError(CategoryError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Core type


class FiniteCategory:
    def __init__(self, objects, morphisms, identity, *, payloads, compose_payload,
                 inverse_payload=None, name: str = ""):
        """A listed category, every morphism given.

        objects: sequence of object ids.
        morphisms: sequence of (morphism id, source id, target id).
        identity: mapping object id -> morphism id.
        payloads: one distinct hashable value per morphism, in morphism order.
        compose_payload: (payload of g, payload of f) -> payload of g after f,
            called only on composable pairs; None when there is no composite.
        inverse_payload: payload -> payload of its inverse, or None when the
            morphism is not invertible.  Without it inverses are searched
            for in the opposite hom set.
        """
        self._setup(objects, compose_payload, inverse_payload, None, name)
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

        self.payloads = tuple(payloads)
        if len(self.payloads) != len(self.mor_ids):
            raise CategoryError("one payload per morphism required")
        self._payload_idx = {p: i for i, p in enumerate(self.payloads)}
        if len(self._payload_idx) != len(self.payloads):
            raise CategoryError("duplicate morphism payload")
        self._codes = None

    @classmethod
    def coded(cls, objects, codes, *, codec, compose_payload, inverse_payload=None,
              name: str = "") -> "FiniteCategory":
        """A category whose hom sets are arrays.  codes[x][y] holds the
        radix codes of the morphisms x -> y, strictly ascending; indices run
        hom set by hom set, x major.  One vectorized pass refuses a code out
        of order or at least ``codec.bound(x, y)``, and the identity is found
        by its code ``codec.identity(x)``.  ``codec.decode(x, y, codes)``
        stacks the arrays coded, one per row, in base ``codec.radix(x, y)``,
        and ``codec.ids`` and ``codec.payloads`` name the rows of such a
        stack; ``codec.left(g, F)`` and ``codec.right(F, h)`` stack g . f and
        f . h for each row f of F (row by row for a stack g), and
        ``codec.units(E)`` is (invertible, inverses) for a stack E of
        End(x).  A hom set is decoded when first read; ids and payloads are
        made when read, ``mor_ids``, ``payloads`` and the dicts behind
        ``mor_index`` and ``compose_idx`` whole on first use."""
        self = cls.__new__(cls)
        self._setup(objects, compose_payload, inverse_payload, codec, name)
        nob = len(self.objects)
        if len(codes) != nob or any(len(row) != nob for row in codes):
            raise CategoryError(f"one code array per hom set required, {nob} x {nob}")
        parts = [c for row in codes for c in row]
        sizes = [len(c) for c in parts]
        bound = [codec.bound(x, y) for x in range(nob) for y in range(nob)]
        self._starts = list(itertools.accumulate(sizes, initial=0))
        flat = (np.concatenate(parts).astype(np.int64, copy=False) if parts
                else np.zeros(0, np.int64))
        down = np.zeros(len(flat), dtype=bool)      # not above the code before it
        np.less_equal(flat[1:], flat[:-1], out=down[1:])
        down[[a for a, b in zip(self._starts, self._starts[1:]) if b > a]] = False
        bad = down | (flat < 0) | (flat >= np.repeat(bound, sizes))
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            x, y = divmod(bisect.bisect_right(self._starts, at) - 1, nob)
            where = f"Hom({self.objects[x]}, {self.objects[y]})"
            if down[at]:
                raise CategoryError(f"codes of {where} do not strictly ascend: "
                                    f"{flat[at - 1]} before {flat[at]}")
            raise CategoryError(f"code {flat[at]} outside {where}, whose codes are below "
                                f"{bound[x * nob + y]}")
        self._codes, self._full = flat, [s == b for s, b in zip(sizes, bound)]
        ident = []
        for x, o in enumerate(self.objects):
            lo, hi = self._starts[x * nob + x], self._starts[x * nob + x + 1]
            code = codec.identity(x)
            at = code if self._full[x * nob + x] else int(np.searchsorted(flat[lo:hi], code))
            if at >= hi - lo or flat[lo + at] != code:
                raise CategoryError(f"no identity for object {o!r}: code {code} is not in "
                                    f"Hom({o}, {o})")
            ident.append(lo + at)
        self.identity_idx = tuple(ident)
        return self

    def _setup(self, objects, compose_payload, inverse_payload, codec, name):
        self.name = name
        self.objects = tuple(objects)
        self._oidx = {o: i for i, o in enumerate(self.objects)}
        if len(self._oidx) != len(self.objects):
            raise CategoryError("duplicate object id")
        self._compose_payload = compose_payload
        self._inverse_payload = inverse_payload
        self._codec = codec
        self._ctab = {}
        self._by_src = None
        self._hom_arrays = {}
        self._inv = {}
        self._aut = {}
        self._aut_closures = {}
        self._hom_columns = {}
        self._hom_stacks = {}

    # -- ids and payloads of a coded category, made when read -----------------
    # A listed category sets these attributes in __init__, which hides them.

    @cached_property
    def src(self) -> tuple:
        """The source object index of each morphism."""
        return tuple(self.endpoints[0].tolist())

    @cached_property
    def dst(self) -> tuple:
        """The target object index of each morphism."""
        return tuple(self.endpoints[1].tolist())

    @cached_property
    def mor_ids(self) -> tuple:
        """The id of each morphism."""
        return self._all_made(self._codec.ids)

    @cached_property
    def payloads(self) -> tuple:
        """The payload of each morphism."""
        return self._all_made(self._codec.payloads)

    @cached_property
    def _midx(self) -> dict:
        return {m: i for i, m in enumerate(self.mor_ids)}

    @cached_property
    def _payload_idx(self) -> dict:
        return {p: i for i, p in enumerate(self.payloads)}

    @cached_property
    def _id_array(self) -> np.ndarray:
        return np.array(self.mor_ids, dtype=object)

    @cached_property
    def endpoints(self) -> tuple:
        """(``src``, ``dst``) as two intp arrays; a coded category makes them
        from its hom-set runs alone."""
        if self._codes is None:
            return np.array(self.src, dtype=np.intp), np.array(self.dst, dtype=np.intp)
        hom = np.repeat(np.arange(self.n_objects ** 2), np.diff(self._starts))
        return np.divmod(hom, self.n_objects)

    def _made(self, indices, make) -> list:
        """``make(x, y, stack)`` read off for each of the morphism indices
        ``indices`` of a coded category, one ``codec.decode`` per hom set
        met."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        homs = np.searchsorted(self._starts, indices, "right") - 1
        out = [None] * len(indices)
        for k in set(homs.tolist()):
            at = np.flatnonzero(homs == k)
            x, y = divmod(k, self.n_objects)
            stack = self._codec.decode(x, y, self._codes[indices[at]])
            for j, value in zip(at.tolist(), make(x, y, stack)):
                out[j] = value
        return out

    def _all_made(self, make) -> tuple:
        """``make(x, y, stack)`` read off for every morphism of a coded
        category, hom set by hom set."""
        out, nob = [], self.n_objects
        for k, (a, b) in enumerate(zip(self._starts, self._starts[1:])):
            if b > a:
                x, y = divmod(k, nob)
                out += make(x, y, self._codec.decode(x, y, self._codes[a:b]))
        return tuple(out)

    # -- basic accessors ----------------------------------------------------

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.mor_ids) if self._codes is None else len(self._codes)

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

    def mor_id(self, mi: int) -> str:
        """The id of one morphism, made alone in a coded category whose ids
        have not all been made."""
        if self._codes is None or "mor_ids" in self.__dict__:
            return self.mor_ids[mi]
        return self._made([mi], self._codec.ids)[0]

    def payload(self, mi: int):
        """The payload of one morphism, made alone in a coded category whose
        payloads have not all been made."""
        if self._codes is None or "payloads" in self.__dict__:
            return self.payloads[mi]
        return self._made([mi], self._codec.payloads)[0]

    def ids_of(self, rows: np.ndarray) -> list:
        """The ids of the morphism indices in the integer array ``rows``, as
        nested lists of its shape."""
        if self._codes is None or "mor_ids" in self.__dict__:
            return self._id_array[rows].tolist()
        ids = np.empty(rows.size, dtype=object)
        ids[:] = self._made(rows, self._codec.ids)
        return ids.reshape(rows.shape).tolist()

    def decoded(self, si: int, di: int, indices: np.ndarray) -> np.ndarray:
        """The stack that ``codec.decode`` makes of the morphism indices
        ``indices`` of Hom(si, di) in a coded category, in one call."""
        return self._codec.decode(si, di, self._codes[indices])

    def source(self, mor_id: str) -> str:
        return self.objects[self.src[self.mor_index(mor_id)]]

    def target(self, mor_id: str) -> str:
        return self.objects[self.dst[self.mor_index(mor_id)]]

    @cached_property
    def _homs(self) -> list:
        """Hom(x, y) at x * n_objects + y, as ``hom_idx`` gives it: a run
        of indices in a coded category; in a listed one, whose morphisms
        are sorted by hom set, stably, in one step."""
        if self._codes is not None:
            return [range(a, b) for a, b in zip(self._starts, self._starts[1:])]
        nob = self.n_objects
        src, dst = self.endpoints
        key = src * nob + dst
        order = key.argsort(kind="stable").tolist()
        ends = np.bincount(key, minlength=nob * nob).cumsum().tolist()
        return [order[a:b] for a, b in zip([0] + ends, ends)]

    def hom_idx(self, si: int, di: int):
        """The morphism indices x -> y, ascending: a range in a coded
        category, a list in a listed one."""
        return self._homs[si * len(self.objects) + di]

    def hom_array(self, si: int, di: int) -> np.ndarray:
        """``hom_idx(si, di)`` as an intp array.  Kept."""
        key = si * len(self.objects) + di
        hom = self._hom_arrays.get(key)
        if hom is None:
            run = self._homs[key]
            hom = self._hom_arrays[key] = (np.array(run, dtype=np.intp) if self._codes is None
                                           else np.arange(run.start, run.stop, dtype=np.intp))
        return hom

    def morphisms_from_idx(self, si: int) -> list:
        if self._by_src is None:
            by = [[] for _ in self.objects]
            for i in range(self.n_morphisms):
                by[self.src[i]].append(i)
            self._by_src = by
        return self._by_src[si]

    # -- composition ----------------------------------------------------------

    def compose_idx(self, gi: int, fi: int) -> int:
        if self.dst[fi] != self.src[gi]:
            raise CategoryError(
                f"pair not composable: {self.mor_id(gi)} after {self.mor_id(fi)}")
        key = (gi, fi)
        h = self._ctab.get(key)
        if h is None:
            h = self._payload_idx.get(self._compose_payload(self.payloads[gi], self.payloads[fi]))
            if h is None:
                raise CategoryError(
                    f"missing composite for pair ({self.mor_id(gi)}, {self.mor_id(fi)})")
            self._ctab[key] = h
        return h

    def compose(self, g: str, f: str) -> str:
        return self.mor_id(self.compose_idx(self.mor_index(g), self.mor_index(f)))

    # -- isomorphisms ---------------------------------------------------------

    def inverse_idx(self, mi: int) -> Optional[int]:
        """The inverse of a morphism, or None; an endomorphism of a coded
        category is answered by the codec pass of ``aut_idx``."""
        if mi not in self._inv:
            x = int(self.endpoints[0][mi]) if self._codec is not None else None
            if x is not None and x == self.endpoints[1][mi]:
                self._units(x)
            else:
                self._inv[mi] = self._find_inverse(mi)
        return self._inv[mi]

    def _find_inverse(self, mi: int) -> Optional[int]:
        """``inverse_idx`` by payloads, one morphism at a time, without
        keeping the answer."""
        if self._inverse_payload is None:
            return next((g for g in self.hom_idx(self.dst[mi], self.src[mi])
                         if self._check_inverse(mi, g)), None)
        p = self._inverse_payload(self.payload(mi))
        if p is None:
            return None
        inv = self._payload_idx.get(p)
        if inv is None or not self._check_inverse(mi, inv):
            raise CategoryError(f"builder inverse is wrong for {self.mor_id(mi)}")
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

    def aut_array(self, oi: int) -> np.ndarray:
        """``aut_idx(oi)`` as one read-only int64 array, the ranks'
        ``searchsorted`` keys."""
        return self._units(oi)[2]

    def _units(self, oi: int) -> tuple:
        """(``aut_idx``, ``aut_inverse_ranks``, ``aut_array``) of x from the
        inverse of every endomorphism, kept as ``inverse_idx`` keeps it: by
        one codec pass in a coded category (``_codec_units``), else one
        morphism at a time.  Computed on the first call and kept."""
        if oi not in self._aut:
            endos = self.hom_idx(oi, oi)
            if self._codec is None:
                inverses = [self.inverse_idx(m) for m in endos]
                auts = [m for m, g in zip(endos, inverses) if g is not None]
                rank = {m: r for r, m in enumerate(auts)}
                ranks = np.array([rank[g] for g in inverses if g is not None], dtype=np.int64)
            else:
                # an End(x) of one morphism holds the identity alone, its own inverse
                rows, at = self._codec_units(oi) if len(endos) > 1 else (np.zeros(1, np.intp),) * 2
                lo = endos.start
                auts, ranks = (lo + rows).tolist(), np.searchsorted(rows, at)
                self._inv.update(dict.fromkeys(endos))
                self._inv.update(zip(auts, (lo + at).tolist()))
            self._aut[oi] = _units_entry(auts, ranks)
        return self._aut[oi]

    def _codec_units(self, oi: int) -> tuple:
        """(rows, at): the positions in End(x) of its units and of their
        inverses, from one ``codec.units`` pass.  Each inverse is found by
        its radix code; (f^-1)^-1 = f and f . f^-1 = id are checked for
        every unit, else CategoryError names the first f.  Since f^-1 is a
        unit too, whose inverse is f, that checks f^-1 . f = id as well."""
        codec = self._codec
        E, find = self._hom_stack(oi, oi)
        units, inv = codec.units(E)
        rows = np.flatnonzero(units)
        at = find(inv)
        position = np.full(len(E) + 1, -1)     # the last slot answers at = -1
        position[rows] = at
        lo = self.hom_idx(oi, oi).start
        one = (codec.left(E[rows], E[at]) == E[self.identity_idx[oi] - lo]).reshape(len(rows), -1)
        bad = (position[at] != rows) | ~one.all(axis=1)
        if bad.any():
            raise CategoryError(f"codec inverse is wrong for {self.mor_id(lo + rows[bad][0])}")
        return rows, at

    def _aut_closure(self, oi: int) -> tuple:
        """(generators, columns, tree) of Aut(x) from one greedy closure
        (``groups.closure_columns``) over the ranks in ``aut_idx(oi)``, the
        column of g the ranks of g . a; tree is the left words as
        ``groups.word_rows`` reads them.  Computed on the first call and kept."""
        if oi not in self._aut_closures:
            auts = self.aut_idx(oi)
            column = self._column(oi, oi, auts)
            gens, levels, columns = closure_columns(len(auts), lambda g: column(auts[g], True),
                                                    auts.index(self.identity_idx[oi]))
            self._aut_closures[oi] = [auts[g] for g in gens], columns, word_levels(levels)
        return self._aut_closures[oi]

    def aut_generators(self, oi: int) -> list:
        """A small generating set of Aut(x), greedy over ``aut_idx(oi)``."""
        return self._aut_closure(oi)[0]

    def _column(self, si: int, di: int, mors: list):
        """column(g, left): the positions among ``mors``, morphisms x -> y,
        of g . f for each f (``left``, g an endomorphism of y) or of f . g
        (else, g one of x), as an int64 array; ``mors`` ascend.  Read
        through the codec in a coded category, which acts by one numpy
        step per g on the stack of ``mors`` (``_hom_stack``), else one
        composite per morphism.  A column raises CategoryError for an image
        outside ``mors``."""
        if self._codec is None:
            pos = {f: p for p, f in enumerate(mors)}

            def positions(g, left):
                images = (self.compose_idx(g, f) if left else self.compose_idx(f, g) for f in mors)
                return np.array([pos.get(h, -1) for h in images], dtype=np.int64)
        else:
            codec, lo = self._codec, self.hom_idx(si, di).start
            F, find = self._hom_stack(si, di)
            if len(mors) < len(F):
                at = np.asarray(mors, dtype=np.int64)
                F, find = F[at - lo], _finder(self._codes[at], False, codec.radix(si, di))

            def positions(g, left):
                x = di if left else si
                [a] = codec.decode(x, x, self._codes[g:g + 1])
                return find(codec.left(a, F) if left else codec.right(F, a))

        def column(g, left):
            at = positions(g, left)
            missing = np.flatnonzero(at < 0)
            if len(missing):
                f = mors[missing[0]]
                a, b = (g, f) if left else (f, g)
                raise CategoryError(
                    f"missing composite for pair ({self.mor_id(a)}, {self.mor_id(b)})")
            return at

        return column

    def _hom_stack(self, si: int, di: int) -> tuple:
        """(stack, find) of Hom(x, y) in a coded category: its codes
        decoded (``codec.decode``), and ``_finder`` over them.  Computed on
        the first call and kept until ``hom_columns`` of the pair, its last
        reader, so that End(x) is decoded once for ``aut_idx``, the closure
        and its own columns."""
        key = (si, di)
        if key not in self._hom_stacks:
            hom = self.hom_idx(si, di)
            codes = self._codes[hom.start:hom.stop]
            self._hom_stacks[key] = (
                self._codec.decode(si, di, codes),
                _finder(codes, self._full[si * len(self.objects) + di], self._codec.radix(si, di)))
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
        return (word_rows(self._aut_closure(di)[2], left, positions),
                word_rows(self._aut_closure(si)[2], right, positions))

    # -- axiom checking --------------------------------------------------------

    def check_axioms(self):
        """Verify identity laws and associativity, which composes every
        composable pair, so a missing composite raises too.
        Intended for parsed input and small built categories."""
        nm = self.n_morphisms
        for fi in range(nm):
            if self.compose_idx(self.identity_idx[self.dst[fi]], fi) != fi:
                raise CategoryError(f"left identity law fails for {self.mor_id(fi)}")
            if self.compose_idx(fi, self.identity_idx[self.src[fi]]) != fi:
                raise CategoryError(f"right identity law fails for {self.mor_id(fi)}")
        for fi in range(nm):
            for gi in self.morphisms_from_idx(self.dst[fi]):
                gf = self.compose_idx(gi, fi)
                for hi in self.morphisms_from_idx(self.dst[gi]):
                    if self.compose_idx(hi, gf) != self.compose_idx(self.compose_idx(hi, gi), fi):
                        raise CategoryError(
                            "associativity fails for triple "
                            f"({self.mor_id(hi)}, {self.mor_id(gi)}, {self.mor_id(fi)})")
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
    the hom-set codec and the inverse that ``cat`` found and checked.  A
    listed ``cat`` is searched one morphism at a time.  A coded one gives a
    coded iso(C), on the codes kept: Aut(x) is ``cat.aut_idx(x)``, one codec
    pass, and Hom(x, y), x != y, is searched only when |End x| = |End y| =
    |Hom(x, y)| = |Hom(y, x)|, as for every iso pair."""
    name = f"iso({cat.name})" if cat.name else "iso"
    if cat._codec is None:
        kept = [m for m in range(cat.n_morphisms) if cat.inverse_idx(m) is not None]
        identity = {o: cat.mor_ids[cat.identity_idx[i]] for i, o in enumerate(cat.objects)}
        sub = FiniteCategory(cat.objects, [(cat.mor_ids[i], cat.objects[cat.src[i]],
                                            cat.objects[cat.dst[i]]) for i in kept],
                             identity, payloads=[cat.payloads[i] for i in kept],
                             compose_payload=cat._compose_payload,
                             inverse_payload=cat._inverse_payload, name=name)
    else:
        nob, homs = cat.n_objects, cat._homs

        def isos(x, y):
            if x == y:
                return cat.aut_idx(x)
            if not (len(homs[x * nob + x]) == len(homs[y * nob + y]) == len(homs[x * nob + y])
                    == len(homs[y * nob + x])):
                return []
            return [f for f in homs[x * nob + y] if cat.inverse_idx(f) is not None]

        keep = [isos(x, y) for x in range(nob) for y in range(nob)]     # x major
        # hom sets are runs of ascending indices, so kept ascends too
        kept = [m for ms in keep for m in ms]
        sub = FiniteCategory.coded(
            cat.objects,
            [[cat._codes[ms] for ms in keep[x * nob:(x + 1) * nob]] for x in range(nob)],
            codec=cat._codec, compose_payload=cat._compose_payload,
            inverse_payload=cat._inverse_payload, name=name)
        for x in range(nob):
            sub._aut[x] = _units_entry(list(sub.hom_idx(x, x)), cat.aut_inverse_ranks(x))
    at = {m: i for i, m in enumerate(kept)}
    sub._inv = {i: at[cat.inverse_idx(m)] for i, m in enumerate(kept)}
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
