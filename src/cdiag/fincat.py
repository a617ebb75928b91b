"""Finite categories with explicit, fully validated composition.

A FiniteCategory stores objects and morphisms as opaque string ids; all
engine-internal indexing uses dense integers.  Composition is either a
materialized table (parsed and small built-in categories) or computed on
demand from hashable morphism payloads (function/matrix skeletons), with
results cached.  Values are immutable after construction and every
operation here is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import CayleyTable, greedy_closure


class CategoryError(Exception):
    pass


class CatdefError(CategoryError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Core type


class FiniteCategory:
    def __init__(self, objects, morphisms, identity, compose_table=None, *,
                 payloads=None, compose_payload=None, inverse_payload=None,
                 name: str = ""):
        """
        objects: sequence of object ids.
        morphisms: sequence of (morphism id, source id, target id).
        identity: mapping object id -> morphism id.
        compose_table: mapping (g id, f id) -> h id, meaning g after f.
            Alternatively pass payloads (one hashable value per morphism,
            in morphism order) with compose_payload/inverse_payload and
            composites are computed on demand.
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

        if compose_table is not None:
            tab = {}
            for (g, f), h in compose_table.items():
                gi, fi, hi = self._midx[g], self._midx[f], self._midx[h]
                if self.dst[fi] != self.src[gi]:
                    raise CategoryError(f"compose {g} {f}: pair is not composable")
                tab[(gi, fi)] = hi
            self._ctab = tab
            self._payloads = None
            self._compose_payload = None
            self._inverse_payload = None
            self._payload_idx = None
        else:
            if payloads is None or compose_payload is None:
                raise CategoryError("need compose_table or payloads+compose_payload")
            self._payloads = tuple(payloads)
            if len(self._payloads) != len(self.mor_ids):
                raise CategoryError("one payload per morphism required")
            self._payload_idx = {p: i for i, p in enumerate(self._payloads)}
            self._compose_payload = compose_payload
            self._inverse_payload = inverse_payload
            self._ctab = {}

        self._hom = None
        self._by_src = None
        self._inv = {}
        self._aut = {}
        self._aut_gens = {}
        self._aut_words = {}
        self._aut_table = {}
        self._hom_columns = {}

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
        if h is not None:
            return h
        if self._compose_payload is None:
            raise CategoryError(
                f"missing composite for pair ({self.mor_ids[gi]}, {self.mor_ids[fi]})")
        hp = self._compose_payload(self._payloads[gi], self._payloads[fi])
        try:
            h = self._payload_idx[hp]
        except KeyError:
            raise CategoryError("composition left the morphism set") from None
        self._ctab[key] = h
        return h

    def compose(self, g: str, f: str) -> str:
        return self.mor_ids[self.compose_idx(self.mor_index(g), self.mor_index(f))]

    # -- isomorphisms ---------------------------------------------------------

    def inverse_idx(self, mi: int) -> Optional[int]:
        if mi in self._inv:
            return self._inv[mi]
        inv = None
        if self._inverse_payload is not None:
            p = self._inverse_payload(self._payloads[mi])
            if p is not None:
                inv = self._payload_idx.get(p)
                if inv is None or not self._check_inverse(mi, inv):
                    raise CategoryError(
                        f"builder inverse is wrong for {self.mor_ids[mi]}")
        else:
            for g in self.hom_idx(self.dst[mi], self.src[mi]):
                if self._check_inverse(mi, g):
                    inv = g
                    break
        self._inv[mi] = inv
        return inv

    def _check_inverse(self, fi: int, gi: int) -> bool:
        return (self.compose_idx(gi, fi) == self.identity_idx[self.src[fi]]
                and self.compose_idx(fi, gi) == self.identity_idx[self.dst[fi]])

    def is_isomorphism(self, mor_id: str) -> bool:
        return self.inverse_idx(self.mor_index(mor_id)) is not None

    def aut_idx(self, oi: int) -> list:
        """All automorphism morphism indices of the object, ascending."""
        if oi not in self._aut:
            self._aut[oi] = [m for m in self.hom_idx(oi, oi)
                             if self.inverse_idx(m) is not None]
        return self._aut[oi]

    def aut_generators(self, oi: int) -> list:
        """A small generating set of Aut(x), greedy over ``aut_idx(oi)``,
        computed on the first call and kept."""
        if oi not in self._aut_gens:
            auts = self.aut_idx(oi)
            self._aut_gens[oi] = greedy_closure(
                auts, self.compose_idx, self.identity_idx[oi], len(auts))[0]
        return self._aut_gens[oi]

    def aut_words(self, oi: int) -> list:
        """Every automorphism of x as a word in ``aut_generators(oi)``:
        (element, parent, generator) triples in breadth-first order from the
        identity, (identity, -1, -1), each element the parent after that
        generator, elements and parents as ranks in ``aut_idx(oi)``.
        Computed on the first call and kept; raises CategoryError unless
        the words reach all of Aut(x)."""
        if oi not in self._aut_words:
            auts, gens = self.aut_idx(oi), self.aut_generators(oi)
            rank = {a: r for r, a in enumerate(auts)}
            queue = [self.identity_idx[oi]]
            words = {queue[0]: (-1, -1)}
            for a in queue:
                for k, g in enumerate(gens):
                    b = self.compose_idx(a, g)
                    if b not in words:
                        words[b] = (rank[a], k)
                        queue.append(b)
            if len(words) != len(auts):
                raise CategoryError(
                    f"the generators of Aut({self.objects[oi]}) reach {len(words)} "
                    f"of its {len(auts)} elements")
            self._aut_words[oi] = [(rank[b], p, k) for b, (p, k) in words.items()]
        return self._aut_words[oi]

    def _word_rows(self, oi: int, columns: np.ndarray) -> np.ndarray:
        """The action table of Aut(x) whose generators act by ``columns``:
        row a holds the images under a, rows in ``aut_idx`` order, built
        along the words as row(a . g) = row(a)[column(g)]."""
        words = self.aut_words(oi)
        rows = np.empty((len(words), columns.shape[1]), dtype=columns.dtype)
        rows[words[0][0]] = np.arange(columns.shape[1])
        for a, p, k in words[1:]:
            rows[a] = rows[p][columns[k]]
        return rows

    def hom_columns(self, si: int, di: int) -> tuple:
        """Generator columns of Hom(x, y) as arrays of positions in
        ``hom_idx(si, di)``: (left, right), where left[k, p] is the position
        of g . f_p for the k-th generator g of Aut(y) and right[k, p] that
        of f_p . g^-1 for the k-th generator g of Aut(x).  The dtype is the
        smallest that holds a position.  Computed on the first call and kept."""
        key = (si, di)
        if key not in self._hom_columns:
            hom = self.hom_idx(si, di)
            pos = {f: p for p, f in enumerate(hom)}
            dtype = np.min_scalar_type(max(len(hom) - 1, 0))
            left = [[pos[self.compose_idx(g, f)] for f in hom]
                    for g in self.aut_generators(di)]
            right = [[pos[self.compose_idx(f, self.inverse_idx(g))] for f in hom]
                     for g in self.aut_generators(si)]
            self._hom_columns[key] = tuple(np.array(c, dtype=dtype).reshape(len(c), len(hom))
                                           for c in (left, right))
        return self._hom_columns[key]

    def hom_action_tables(self, si: int, di: int) -> tuple:
        """(left, right) action tables of Hom(x, y), not kept: left[a, p] is
        the position of a . f_p for the a-th element of Aut(y), right[a, p]
        that of f_p . a^-1 for the a-th element of Aut(x)."""
        left, right = self.hom_columns(si, di)
        return self._word_rows(di, left), self._word_rows(si, right)

    def aut_table(self, oi: int) -> np.ndarray:
        """The read-only Cayley table of Aut(x) in ``aut_idx`` order, built
        along the words from the left action of each generator on Aut(x), in
        the smallest integer dtype that holds a rank.  Computed on the first
        call and kept."""
        if oi not in self._aut_table:
            auts = self.aut_idx(oi)
            rank = {a: r for r, a in enumerate(auts)}
            columns = [[rank[self.compose_idx(g, a)] for a in auts]
                       for g in self.aut_generators(oi)]
            dtype = np.min_scalar_type(len(auts) - 1)
            table = self._word_rows(oi, np.array(columns, dtype=dtype).reshape(-1, len(auts)))
            table.setflags(write=False)
            self._aut_table[oi] = table
        return self._aut_table[oi]

    # -- axiom checking --------------------------------------------------------

    def check_axioms(self):
        """Verify identity laws, associativity, and (for table-backed
        categories) that the table covers exactly the composable pairs.
        Intended for parsed input and small built categories."""
        nm = len(self.mor_ids)
        for fi in range(nm):
            f = self.mor_ids[fi]
            if self.compose_idx(self.identity_idx[self.dst[fi]], fi) != fi:
                raise CategoryError(f"left identity law fails for {f}")
            if self.compose_idx(fi, self.identity_idx[self.src[fi]]) != fi:
                raise CategoryError(f"right identity law fails for {f}")
        if self._payloads is None:
            composable = {(g, f) for f in range(nm) for g in range(nm)
                          if self.dst[f] == self.src[g]}
            extra = set(self._ctab) - composable
            if extra:
                g, f = sorted(extra)[0]
                raise CategoryError(
                    f"composite declared for non-composable pair "
                    f"({self.mor_ids[g]}, {self.mor_ids[f]})")
            missing = composable - set(self._ctab)
            if missing:
                g, f = sorted(missing)[0]
                raise CategoryError(
                    f"missing composite for pair ({self.mor_ids[g]}, {self.mor_ids[f]})")
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
        mors = [(m, self.objects[self.dst[i]], self.objects[self.src[i]])
                for i, m in enumerate(self.mor_ids)]
        ident = {o: self.mor_ids[self.identity_idx[i]] for i, o in enumerate(self.objects)}
        if self._payloads is not None:
            fn = self._compose_payload
            return FiniteCategory(
                self.objects, mors, ident,
                payloads=self._payloads,
                compose_payload=lambda gp, fp: fn(fp, gp),
                inverse_payload=self._inverse_payload,
                name=f"op({self.name})" if self.name else "op")
        table = {(self.mor_ids[f], self.mor_ids[g]): self.mor_ids[h]
                 for (g, f), h in self._ctab.items()}
        return FiniteCategory(self.objects, mors, ident, table,
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

    cat = FiniteCategory(objects, morphisms, identity, table, name=name)
    cat.check_axioms()
    return cat


def from_catdef(text: str, name: str = "") -> FiniteCategory:
    return validate_category(parse_catdef(text), name=name)


# ---------------------------------------------------------------------------
# Builders


def ordinal(m: int) -> FiniteCategory:
    """The finite ordered set 0 -> 1 -> ... -> m viewed as a category:
    one morphism j -> k exactly when j <= k."""
    if m < 0:
        raise CategoryError(f"ordinal:<m> needs m >= 0, got {m}")
    objects = [str(j) for j in range(m + 1)]

    def mid(j, k):
        return f"id_{j}" if j == k else f"a{j}_{k}"

    morphisms = [(f"id_{j}", str(j), str(j)) for j in range(m + 1)]
    morphisms += [(mid(j, k), str(j), str(k))
                  for j in range(m + 1) for k in range(j + 1, m + 1)]
    identity = {str(j): f"id_{j}" for j in range(m + 1)}
    table = {}
    for j in range(m + 1):
        for k in range(j, m + 1):
            for l in range(k, m + 1):
                table[(mid(k, l), mid(j, k))] = mid(j, l)
    return FiniteCategory(objects, morphisms, identity, table, name=f"ordinal:{m}")


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


def one_object_group(table, names=None, name: str = "") -> FiniteCategory:
    """A group as a one-object category whose morphisms are the elements.

    ``table`` is a CayleyTable or a square list of lists (validated).
    """
    if not isinstance(table, CayleyTable):
        table = CayleyTable(table)
    n = table.n
    if names is None:
        names = [f"g{i}" for i in range(n)]
    mor = ["id_*" if i == table.identity else names[i] for i in range(n)]
    morphisms = [(mor[i], "*", "*") for i in range(n)]
    ctab = {(mor[i], mor[j]): mor[table.mul(i, j)] for i in range(n) for j in range(n)}
    return FiniteCategory(["*"], morphisms, {"*": "id_*"}, ctab,
                          name=name or f"group[{n}]")


def truncated_delta(m_max: int) -> FiniteCategory:
    """The full subcategory of the category of finite ordered sets on
    [0], ..., [m_max]; morphisms are the order-preserving maps, encoded as
    weakly increasing value tuples."""
    if not 0 <= m_max <= 9:
        raise CategoryError(f"delta:<M> needs 0 <= M <= 9, got {m_max}")
    objects = [f"d{n}" for n in range(m_max + 1)]
    payloads, morphisms = [], []
    for n in range(m_max + 1):
        for m in range(m_max + 1):
            for t in _monotone_tuples(n, m):
                payload = (n, m, t)
                if n == m and t == tuple(range(n + 1)):
                    mid = f"id_d{n}"
                else:
                    mid = f"t{n}_{m}_" + "".join(str(v) for v in t)
                payloads.append(payload)
                morphisms.append((mid, f"d{n}", f"d{m}"))
    identity = {f"d{n}": f"id_d{n}" for n in range(m_max + 1)}

    def comp(gp, fp):
        (gn, gm, g), (fn, fm, f) = gp, fp
        assert fm == gn
        return (fn, gm, tuple(g[v] for v in f))

    def inv(p):
        n, m, t = p
        return p if (n == m and t == tuple(range(n + 1))) else None

    return FiniteCategory(objects, morphisms, identity,
                          payloads=payloads, compose_payload=comp,
                          inverse_payload=inv, name=f"delta:{m_max}")


def _monotone_tuples(n: int, m: int):
    """Weakly increasing (n+1)-tuples with values in 0..m, lexicographic."""
    def rec(prefix, lo, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for v in range(lo, m + 1):
            yield from rec(prefix + [v], v, remaining - 1)
    yield from rec([], 0, n + 1)


# ---------------------------------------------------------------------------
# Maximal subgroupoid and object isomorphism classes


def opposite(cat: FiniteCategory) -> FiniteCategory:
    """Sources and targets swapped, composition reversed."""
    return cat.opposite()


def maximal_subgroupoid(cat: FiniteCategory) -> FiniteCategory:
    """Same objects, only the isomorphisms, composition restricted."""
    keep = [i for i in range(cat.n_morphisms) if cat.inverse_idx(i) is not None]
    morphisms = [(cat.mor_ids[i], cat.objects[cat.src[i]], cat.objects[cat.dst[i]])
                 for i in keep]
    identity = {o: cat.mor_ids[cat.identity_idx[i]] for i, o in enumerate(cat.objects)}
    nm = f"iso({cat.name})" if cat.name else "iso"
    if cat._payloads is not None:
        return FiniteCategory(cat.objects, morphisms, identity,
                              payloads=[cat._payloads[i] for i in keep],
                              compose_payload=cat._compose_payload,
                              inverse_payload=cat._inverse_payload, name=nm)
    keepset = set(keep)
    table = {}
    for f in keep:
        for g in keepset & set(cat.morphisms_from_idx(cat.dst[f])):
            h = cat.compose_idx(g, f)
            assert h in keepset, "isomorphisms are closed under composition"
            table[(cat.mor_ids[g], cat.mor_ids[f])] = cat.mor_ids[h]
    return FiniteCategory(cat.objects, morphisms, identity, table, name=nm)


@dataclass
class ObjectClass:
    """An isomorphism class of objects with transports from the representative."""
    rep: int                       # object index of the representative
    members: list                  # object indices, ascending
    transport: dict                # object index -> morphism index of an iso rep -> member


def object_iso_classes(cat: FiniteCategory) -> list:
    """Isomorphism classes of objects; deterministic, reps are least indices."""
    seen = {}
    classes = []
    for start in range(cat.n_objects):
        if start in seen:
            continue
        transport = {start: cat.identity_idx[start]}
        frontier = [start]
        while frontier:
            new = []
            for x in frontier:
                for f in cat.morphisms_from_idx(x):
                    if cat.inverse_idx(f) is None:
                        continue
                    y = cat.dst[f]
                    if y not in transport:
                        transport[y] = cat.compose_idx(f, transport[x])
                        new.append(y)
            frontier = new
        members = sorted(transport)
        cls = ObjectClass(rep=start, members=members, transport=transport)
        classes.append(cls)
        for y in members:
            seen[y] = cls
    return classes


# ---------------------------------------------------------------------------
# Equivalence invariants


@dataclass
class EquivalenceReport:
    """Skeletal invariants of two categories: number of isomorphism classes
    of objects and the multiset of automorphism-group orders.  Equality is
    necessary for equivalence of the categories; it is not claimed to be
    sufficient in general."""

    class_counts: tuple
    aut_order_multisets: tuple
    class_count_match: bool
    aut_orders_match: bool
    policy: str
    note: str = ("necessary invariants only; equality does not prove "
                 "equivalence of the categories in general")

    @property
    def invariants_match(self) -> bool:
        return self.class_count_match and self.aut_orders_match


def check_equivalence_invariants(a: FiniteCategory, b: FiniteCategory) -> EquivalenceReport:
    def profile(cat):
        classes = object_iso_classes(cat)
        orders = tuple(sorted(len(cat.aut_idx(c.rep)) for c in classes))
        return len(classes), orders

    (na, oa), (nb, ob) = profile(a), profile(b)
    return EquivalenceReport(
        class_counts=(na, nb),
        aut_order_multisets=(oa, ob),
        class_count_match=na == nb,
        aut_orders_match=oa == ob,
        policy="class-count + aut-order multiset",
    )
