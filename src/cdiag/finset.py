"""The category of finite sets: skeleton, fiber profiles, wreath closed forms.

A function between finite sets is classified up to simultaneous relabeling
of source and target by its fiber profile (k_0, ..., k_n), where k_i counts
target points with exactly i preimages.  The stabilizer of a function with
that profile is the product of wreath products S_i wr S_{k_i}, so level 1
of the classifying diagram decomposes into one component per solution of

    k_1 + 2 k_2 + ... + n k_n = n        k_0 + k_1 + ... + k_n = m.

``level1_closed_form`` is the one source of the level-1 groups that
``finset`` prints, in all three variants, and ``oracle_diff_finset`` checks
each printed group against the generic chain engine by an explicit map:
each listed stabilizer element goes to its fibre-wise wreath coordinates
in the printed group (``_fibre_map``), and the map must be an isomorphism
(``StabilizerGroup.map_failure``).  No isomorphism is searched for, as
one is for the rank forms of finvect.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import chains as chains_mod
from .classifying import ClosedForm, Component, DiffReport, diff_closed_forms
from .fincat import CategoryError, FiniteCategory
from .groups import (GroupExpr, GroupMemo, Product, Symmetric, Trivial, Wreath, _permutations,
                     _strides, materialize, radix_codes)
from .limits import DEFAULT_LIMITS, Limits

DEFAULT_MAX_CARD = 6


# ---------------------------------------------------------------------------
# Fiber profiles


@dataclass(frozen=True)
class FiberProfile:
    """k[i] = number of target elements with exactly i preimages."""

    n: int
    m: int
    k: tuple

    def __post_init__(self):
        if (len(self.k) != self.n + 1 or any(v < 0 for v in self.k)
                or sum(i * v for i, v in enumerate(self.k)) != self.n
                or sum(self.k) != self.m):
            raise CategoryError(f"k={self.k} is not a fiber profile of a function "
                                f"from {self.n} to {self.m} points")

    def tree_display(self) -> str:
        """Height-2 rooted tree notation, one grove per nonzero k_i."""
        parts = [f"Γ_{{{i},{v}}}" for i, v in enumerate(self.k) if v > 0]
        return " ∪ ".join(parts) if parts else "·"

    def group_expr(self, variant: str = "all") -> GroupExpr:
        """The level-1 group that ``variant`` prints for this profile: the
        product of the S_i wr S_{k_i}, for inj and surj with S_0 wr S_k and
        S_1 wr S_k read as S_k and factors of order 1 left out."""
        if variant == "all":
            return _product_of([Wreath(Symmetric(i), v) for i, v in enumerate(self.k) if v > 0])
        factors = [Symmetric(v) if i <= 1 else Wreath(Symmetric(i), v)
                   for i, v in enumerate(self.k) if v > 0]
        return _product_of([f for f in factors if f.order() > 1])

    def group_order(self) -> int:
        out = 1
        for i, v in enumerate(self.k):
            out *= factorial(i) ** v * factorial(v)
        return out


def _product_of(factors: list) -> GroupExpr:
    """The direct product of ``factors``: Trivial for none, the factor
    itself for one."""
    if not factors:
        return Trivial()
    return factors[0] if len(factors) == 1 else Product(factors)


def profile_of(values, m: int) -> FiberProfile:
    """Profile of the function sending source index j to ``values[j]``."""
    n = len(values)
    fibers = [0] * m
    for v in values:
        fibers[v] += 1
    k = [0] * (n + 1)
    k[0] = m - len([c for c in fibers if c > 0])
    for c in fibers:
        if c > 0:
            k[c] += 1
    return FiberProfile(n=n, m=m, k=tuple(k))


def _check_variant(variant: str) -> None:
    if variant not in ("all", "inj", "surj"):
        raise CategoryError(f"variant must be all, inj or surj, got {variant!r}")


def enumerate_profiles(n: int, m: int, variant: str = "all") -> list:
    """All nonnegative solutions of the two profile equations, lexicographic.

    variant "inj" keeps those with k_i = 0 for i >= 2; "surj" those with
    k_0 = 0.
    """
    _check_variant(variant)
    out = []

    def rec(i, ks, rem_m, rem_n):
        if i == n + 1:
            if rem_m == 0 and rem_n == 0:
                out.append(tuple(ks))
            return
        for k in range(rem_m + 1):
            if i * k > rem_n:
                break
            rec(i + 1, ks + [k], rem_m - k, rem_n - i * k)

    rec(0, [], m, n)
    keep = {"all": lambda k: True, "inj": lambda k: not any(k[2:]),
            "surj": lambda k: k[0] == 0}[variant]
    return [FiberProfile(n=n, m=m, k=k) for k in out if keep(k)]


# ---------------------------------------------------------------------------
# Skeleton construction


def finset_skeleton(max_card: int, variant: str = "all") -> FiniteCategory:
    """Skeleton on the sets {0, ..., c-1} for c = 0..max_card; morphisms are
    all functions, encoded as target-index tuples.  Functions out of the
    empty set exist (exactly one per target); functions into it from a
    nonempty set do not.  The skeleton is coded (``FiniteCategory.coded``):
    a function n -> m is the base-m number of its value tuple."""
    _check_variant(variant)
    if not 0 <= max_card <= DEFAULT_MAX_CARD:
        raise CategoryError(f"max_card {max_card} outside 0..{DEFAULT_MAX_CARD}")
    codec = _FunctionCodec()
    cards = range(max_card + 1)

    def comp(gp, fp):
        (_, gm, g), (fn, _, f) = gp, fp
        return (fn, gm, tuple(g[v] for v in f))

    def inv(p):
        n, m, values = p
        if n != m or len(set(values)) != n:
            return None
        out = [0] * n
        for i, v in enumerate(values):
            out[v] = i
        return (n, n, tuple(out))

    name = f"finset:{max_card}" + ("" if variant == "all" else f":{variant}")
    return FiniteCategory.coded([str(c) for c in cards],
                                [[_function_codes(codec, n, m, variant) for m in cards]
                                 for n in cards],
                                codec=codec, compose_payload=comp, inverse_payload=inv, name=name)


def _function_codes(codec: "_FunctionCodec", n: int, m: int, variant: str) -> np.ndarray:
    """The codes of the functions n -> m that ``variant`` keeps, ascending:
    all m^n of them, the injections from the n-permutations of m in their
    lexicographic order, or the codes whose value tuples hit all m values."""
    if variant == "inj":
        perms = np.array(list(itertools.permutations(range(m), n)), dtype=np.int64)
        return radix_codes(perms.reshape(len(perms), n), m)
    codes = np.arange(m ** n)
    if variant == "all":
        return codes
    hit = np.zeros((len(codes), m), dtype=bool)
    hit[np.arange(len(codes))[:, None], codec.decode(n, m, codes)] = True
    return codes[hit.all(axis=1)]


class _FunctionCodec:
    """The hom-set codec of the skeleton (``FiniteCategory.coded``): a
    function n -> m is its value tuple, a row of n entries below m, coded
    in base m, so g after F is the gather g[F] (row by row for a stack g)
    and F after h is F[:, h]."""

    def __init__(self):
        self._place = {}        # (n, m) -> the place values of a code of n -> m

    def bound(self, n, m):
        return m ** n

    def radix(self, n, m):
        return m

    def identity(self, n):
        return sum(j * n ** (n - 1 - j) for j in range(n))

    def decode(self, n, m, codes):
        if (n, m) not in self._place:
            self._place[n, m] = _strides([m] * n)
        return (np.asarray(codes)[:, None] // self._place[n, m] % max(m, 1)).astype(np.uint8)

    def ids(self, n, m, stack):
        one = list(range(n)) if n == m else None
        return [f"id_{n}" if row == one else f"f{n}_{m}_" + "".join(map(str, row))
                for row in stack.tolist()]

    def payloads(self, n, m, stack):
        return [(n, m, tuple(row)) for row in stack.tolist()]

    def left(self, g, F):
        return g[F] if g.ndim == 1 else g[np.arange(len(g))[:, None], F]

    def right(self, F, h):
        return F[:, h]

    def units(self, E):
        """(invertible, inverses) of the stack E of endomorphisms of one
        set: the rows that are permutations, and their inverses by argsort."""
        perm = (np.sort(E, axis=1) == np.arange(E.shape[1])).all(axis=1)
        return perm, np.argsort(E[perm], axis=1).astype(E.dtype)


# ---------------------------------------------------------------------------
# Closed forms


def closed_form_level0(max_card: int) -> list:
    """One component S_c per cardinality c."""
    out = []
    for c in range(max_card + 1):
        expr = Symmetric(c)
        out.append(Component(
            level=0, cell=(str(c),), representative=(str(c),),
            orbit_size=1, group_order=expr.order(),
            group_expr="1" if c <= 1 else expr.text(),
            policy="closed-form"))
    return out


def level1_closed_form(n: int, m: int, variant: str) -> list:
    """One component per fiber profile of ``variant``, represented by the
    profile's tree and its k, with the group it prints
    (``FiberProfile.group_expr``).  An injection n -> m has the one
    profile (m - n, n) when n <= m and none otherwise."""
    profiles = enumerate_profiles(n, m, variant)
    if variant == "inj" and len(profiles) != (n <= m):
        raise chains_mod.SelfCheckFailed(
            f"{len(profiles)} injective profiles from {n} to {m}, not {int(n <= m)}")
    out = []
    for p in profiles:
        expr, order, total = p.group_expr(variant), p.group_order(), factorial(n) * factorial(m)
        if expr.order() != order or total % order:
            raise chains_mod.SelfCheckFailed(
                f"profile {p.k}: group order {order} is not the order {expr.order()} "
                f"of {expr.text()} or does not divide {n}! * {m}! = {total}")
        out.append(Component(
            level=1, cell=(str(n), str(m)),
            representative=(f"{p.tree_display()} k={','.join(map(str, p.k))}",),
            orbit_size=total // order,
            group_order=order,
            group_expr=expr.text(),
            policy="closed-form",
            extra={"profile": p.k, "tree": p.tree_display()}))
    return out


def function_count_identity(n: int, m: int) -> bool:
    """Exact integer identity: summing |S_n x S_m| / |profile group| over
    all profiles recovers the number of functions m^n."""
    total = factorial(n) * factorial(m)
    acc = 0
    for p in enumerate_profiles(n, m):
        order = p.group_order()
        if total % order:
            return False
        acc += total // order
    return acc == m ** n


# ---------------------------------------------------------------------------
# Oracle diff: closed form vs the generic chain engine


def oracle_diff_finset(max_card: int, variant: str = "all",
                       limits: Limits = DEFAULT_LIMITS) -> DiffReport:
    """Compare the closed form that ``finset`` prints with brute-force
    orbits and stabilizers of the (restricted) skeleton at level 1, through
    ``classifying.diff_closed_forms``: each orbit is keyed by the fiber
    profile of its representative, and each profile's form is the printed
    group (``FiberProfile.group_expr``), its order and its explicit map
    (``_fibre_map``), all under one ``GroupMemo``.
    """
    skel = finset_skeleton(max_card, variant)
    report = DiffReport(subject=f"finset max={max_card} variant={variant}")

    def profiles(block):
        # object c of the skeleton is the set {0, ..., c-1}, at index c
        n, m = block.objs
        values = skel.decoded(n, m, block.reps[:, 0]).astype(np.intp)
        rows = np.arange(len(values))[:, None]
        fibers = np.bincount((rows * m + values).ravel(), minlength=len(values) * m)
        k = np.bincount((rows * (n + 1) + fibers.reshape(len(values), m)).ravel(),
                        minlength=len(values) * (n + 1))
        return list(map(tuple, k.reshape(len(values), n + 1).tolist()))

    memo = GroupMemo(limits.iso_limit)

    def form(p):
        expr = p.group_expr(variant)
        return ClosedForm(f"profile {p.k}", expr.order(), text=expr.text(),
                          table=functools.partial(materialize, expr),
                          iso=functools.partial(_fibre_map, skel, _factor_sizes(p.k, expr), memo))

    forms = {(n, m): {p.k: form(p) for p in enumerate_profiles(n, m, variant)}
             for n in range(max_card + 1) for m in range(max_card + 1)}
    diff_closed_forms(report, chains_mod.level_blocks(skel, 1, limits), profiles, forms,
                      limits, memo)
    return report


def _factor_sizes(k: tuple, expr: GroupExpr):
    """(i, k_i) for the fibre size i whose values each factor of the
    printed group ``expr`` permutes, in factor order, or None when the
    factors are not the fibre sizes' groups in turn.  The fibre sizes i
    with k_i > 0 are walked ascending: S_i wr S_{k_i} is that of i, and
    S_{k_i} that of i < 2; a lone value of a fibre size below 2, whose
    group is trivial, may print no factor."""
    factors = (list(expr.factors) if isinstance(expr, Product)
               else [] if isinstance(expr, Trivial) else [expr])
    sizes = []
    for i, v in enumerate(k):
        if v == 0:
            continue
        f = factors[len(sizes)] if len(sizes) < len(factors) else None
        if (isinstance(f, Wreath) and isinstance(f.base, Symmetric) and (f.base.n, f.k) == (i, v)
                or isinstance(f, Symmetric) and i < 2 and f.n == v):
            sizes.append((i, v))
        elif v > 1 or i > 1:
            return None
    return sizes if len(sizes) == len(factors) else None


def _fibre_map(skel: FiniteCategory, sizes, memo: GroupMemo, stab, ranks: np.ndarray):
    """The explicit map of the level-1 stabilizer ``stab`` of ``skel``,
    listed as the rows of Aut ranks ``ranks``, onto the table of its
    printed group, whose factors permute the k_i values of the fibre sizes
    i of ``sizes`` (``_factor_sizes``), or None when ``sizes`` is None.

    A listed (a, b), a permutation of the source and one of the target,
    fixes the function f exactly when b f = f a; one that does not maps to
    -1.  Otherwise b permutes the values of each fibre size i, by sigma on
    their positions (ascending), and a sends the fibre of the p-th value
    onto that of the sigma(p)-th.  The base coordinate of the j-th value is
    a restricted to a fibre as an element of S_i, indexed by its target:
    the position in fibre j (members ascending) of the image of the s-th
    member of fibre sigma^-1(j), for each s.  So (f, sigma)(g, tau) =
    (h, sigma tau) with h_j = f_j g_{sigma^-1(j)}, as ``_wreath_table``
    multiplies.  A factor's coordinate is coded as ``_wreath_table``
    numbers base^v x| S_v, the base coordinates in lexicographic mixed
    radix over S_i and then sigma, each permutation ranked as
    ``_symmetric_table`` orders its group; the factors' codes combine in
    mixed radix, the first most significant, as ``_direct_product_table``
    numbers a product."""
    if sizes is None:
        return None
    n, m = stab.objs
    values = skel.decoded(n, m, np.array(stab.mors))[0].tolist()
    a, b = (memo.once(("permutations", skel, x),
                      lambda x=x: skel.decoded(x, x, skel.aut_array(x)))[ranks[:, i]]
            for i, x in enumerate(stab.objs))
    fixes = (np.array(values, dtype=np.intp)[a] == b[:, values]).all(axis=1)
    if not fixes.all():
        a[~fixes], b[~fixes] = np.arange(n), np.arange(m)
    # the values by fibre size, then ascending, and the members of their
    # fibres in that order, each fibre ascending
    fibres = [[] for _ in range(m)]
    for x, w in enumerate(values):
        fibres[w].append(x)
    by_size = sorted(range(m), key=lambda w: len(fibres[w]))
    first, at, place, members = {}, [0] * m, [0] * n, []
    for j, w in enumerate(by_size):
        # a fibre size's first value among by_size and first member among members
        at[w] = j - first.setdefault(len(fibres[w]), (j, len(members)))[0]
        for s, x in enumerate(fibres[w]):
            place[x] = s
        members += fibres[w]
    moved = np.array(at, dtype=np.intp)[b[:, by_size]]             # sigma of every fibre size
    images = np.array(place, dtype=np.intp)[a[:, members]]         # base rows, by source
    codes = np.zeros(len(ranks), dtype=np.int64)
    for i, v in sizes:
        j, x = first[i]
        sigma = moved[:, j:j + v]
        digit = _permutation_ranks(sigma, memo)
        if i > 1:
            base = _by_target(images[:, x:x + i * v].reshape(len(ranks), v, i), sigma)
            digit += (_permutation_ranks(base.reshape(-1, i), memo).reshape(len(ranks), v)
                      @ _strides([factorial(i)] * v) * factorial(v))
        codes = codes * (factorial(i) ** v * factorial(v)) + digit
    return np.where(fixes, codes, -1)


def _by_target(base: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The base coordinates base[r, p] of the fibre of the p-th value,
    row by row, indexed instead by their target fibre sigma[r, p]."""
    return base[np.arange(len(base))[:, None], np.argsort(sigma, axis=1)]


def _permutation_ranks(rows: np.ndarray, memo: GroupMemo) -> np.ndarray:
    """The position of each row, a permutation of its length s, among the
    permutations of s in lexicographic order, the order of
    ``_symmetric_table``: one lookup of its base-s code in an array of all
    s^s codes, built once per command."""
    def lookup():
        place = _strides([s] * s)
        out = np.full(s ** s, -1, dtype=np.int64)
        out[_permutations(s) @ place] = np.arange(factorial(s))
        return place, out

    s = rows.shape[1]
    place, ranks = memo.once(("permutation ranks", s), lookup)
    return ranks[rows @ place]
