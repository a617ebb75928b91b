"""The category of finite sets: skeleton, fiber profiles, wreath closed forms.

A function between finite sets is classified up to simultaneous relabeling
of source and target by its fiber profile (k_0, ..., k_n), where k_i counts
target points with exactly i preimages.  The stabilizer of a function with
that profile is the product of wreath products S_i wr S_{k_i}, so level 1
of the classifying diagram decomposes into one component per solution of

    k_1 + 2 k_2 + ... + n k_n = n        k_0 + k_1 + ... + k_n = m.

Everything here is cross-checked against the generic chain engine by
``oracle_diff_finset``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from . import chains as chains_mod
from .classifying import Component
from .fincat import CategoryError, FiniteCategory
from .groups import (GroupExpr, GroupMemo, Product, Symmetric, Trivial, Wreath,
                     materialize)
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

    def group_expr(self) -> GroupExpr:
        return _product_of([Wreath(Symmetric(i), v) for i, v in enumerate(self.k) if v > 0])

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
    nonempty set do not."""
    _check_variant(variant)
    if not 0 <= max_card <= DEFAULT_MAX_CARD:
        raise CategoryError(f"max_card {max_card} outside 0..{DEFAULT_MAX_CARD}")
    objects = [str(c) for c in range(max_card + 1)]
    digit = objects.__getitem__         # the id text of a value, read from a table
    payloads, morphisms = [], []
    for n in range(max_card + 1):
        for m in range(max_card + 1):
            for values in _functions(n, m):
                if variant == "inj" and len(set(values)) != n:
                    continue
                if variant == "surj" and len(set(values)) != m:
                    continue
                payload = (n, m, values)
                if n == m and values == tuple(range(n)):
                    mid = f"id_{n}"
                else:
                    mid = f"f{n}_{m}_" + "".join(map(digit, values))
                payloads.append(payload)
                morphisms.append((mid, str(n), str(m)))
    identity = {str(n): f"id_{n}" for n in range(max_card + 1)}

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
    return FiniteCategory(objects, morphisms, identity,
                          payloads=payloads, compose_payload=comp,
                          inverse_payload=inv, codec=_FunctionCodec(), name=name)


class _FunctionCodec:
    """The hom-set codec of the skeleton (``FiniteCategory``): a function
    n -> m is its value tuple, a row of n entries below m, so g after F is
    the gather g[F] and F after h is F[:, h]."""

    def values(self, n, m, payloads):
        return np.array([p[2] for p in payloads], dtype=np.uint8).reshape(len(payloads), n)

    def radix(self, n, m):
        return m

    def left(self, g, F):
        return g[F]

    def right(self, F, h):
        return F[:, h]


def _functions(n: int, m: int):
    """All functions {0..n-1} -> {0..m-1} as value tuples (one empty
    function when n = 0; none when n > 0 = m)."""
    if n == 0:
        yield ()
        return
    if m == 0:
        return
    yield from itertools.product(range(m), repeat=n)


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
            policy="closed-form",
            extra={"cardinality": c}))
    return out


def _profile_component(p: FiberProfile, expr: GroupExpr) -> Component:
    order, total = p.group_order(), factorial(p.n) * factorial(p.m)
    if expr.order() != order or total % order:
        raise chains_mod.SelfCheckFailed(
            f"profile {p.k}: group order {order} is not the order {expr.order()} "
            f"of {expr.text()} or does not divide {p.n}! * {p.m}! = {total}")
    return Component(
        level=1, cell=(str(p.n), str(p.m)),
        representative=("k=" + ",".join(str(v) for v in p.k),),
        orbit_size=total // order,
        group_order=order,
        group_expr=expr.text(),
        policy="closed-form",
        extra={"profile": p.k, "tree": p.tree_display()})


def closed_form_level1(n: int, m: int) -> list:
    """One component per fiber profile, with its wreath-product group."""
    return [_profile_component(p, p.group_expr()) for p in enumerate_profiles(n, m)]


def injective_level1(n: int, m: int) -> list:
    """Components of the injective restriction: empty unless n <= m, else a
    single component.  The stabilizer of an injection permutes the n source
    points and, independently, the m - n missed targets, so the group is
    S_{m-n} x S_n (the profile wreath product, with trivial factors
    simplified away)."""
    if n > m:
        return []
    profiles = enumerate_profiles(n, m, "inj")
    if len(profiles) != 1:
        raise chains_mod.SelfCheckFailed(
            f"{len(profiles)} injective profiles from {n} to {m}, not one")
    p = profiles[0]
    expr = _product_of([f for f in (Symmetric(m - n), Symmetric(n)) if f.order() > 1])
    return [_profile_component(p, expr)]


def surjective_level1(n: int, m: int) -> list:
    """Components of the surjective restriction: profiles with k_0 = 0
    (hence nonempty only for n >= m), group S_{k_1} x prod_{i>=2} S_i wr S_{k_i}."""
    out = []
    for p in enumerate_profiles(n, m, "surj"):
        factors = []
        if p.n >= 1 and p.k[1] > 1:
            factors.append(Symmetric(p.k[1]))
        for i in range(2, p.n + 1):
            if p.k[i] > 0:
                factors.append(Wreath(Symmetric(i), p.k[i]))
        out.append(_profile_component(p, _product_of(factors)))
    return out


def level1_closed_form(n: int, m: int, variant: str) -> list:
    if variant == "inj":
        return injective_level1(n, m)
    if variant == "surj":
        return surjective_level1(n, m)
    return closed_form_level1(n, m)


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
        state = "0 mismatches" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return f"{self.subject}: {self.checked} components checked, {state}"


def oracle_diff_finset(max_card: int, variant: str = "all",
                       limits: Limits = DEFAULT_LIMITS) -> DiffReport:
    """Compare the wreath-product closed form with brute-force orbits and
    stabilizers of the (restricted) skeleton at level 1.

    Each orbit is keyed by the profile of its representative; the check is
    exact equality of profile multisets per (n, m) cell, equality of every
    stabilizer order with the wreath order, and group isomorphism whenever
    the order fits iso_limit.
    """
    skel = finset_skeleton(max_card, variant)
    report = DiffReport(subject=f"finset max={max_card} variant={variant}")
    memo = GroupMemo(limits.iso_limit)

    by_cell = {}
    for b in chains_mod.level_blocks(skel, 1, limits):
        for k, f in enumerate(b.reps[:, 0].tolist()):
            n, m, values = skel.payloads[f]
            by_cell.setdefault((n, m), []).append((profile_of(values, m), b, k))

    for n in range(max_card + 1):
        for m in range(max_card + 1):
            expected = {p.k: p for p in enumerate_profiles(n, m, variant)}
            got = by_cell.get((n, m), [])
            if len(got) != len(expected):
                report.add(f"cell ({n},{m}): {len(got)} orbits vs "
                           f"{len(expected)} closed-form profiles")
                continue
            seen = set()
            for p, b, k in got:
                report.checked += 1
                if p.k not in expected:
                    report.add(f"cell ({n},{m}): unexpected profile {p.k}")
                    continue
                if p.k in seen:
                    report.add(f"cell ({n},{m}): profile {p.k} hit twice")
                    continue
                seen.add(p.k)
                want_order = p.group_order()
                if b.orders[k] != want_order:
                    report.add(
                        f"cell ({n},{m}) profile {p.k}: stabilizer order "
                        f"{b.orders[k]} != wreath order {want_order}")
                    continue
                if want_order > limits.iso_limit:
                    report.policies[p.k] = "order-only"
                    continue
                report.policies[p.k] = "isomorphism"
                if want_order > 1:      # groups of order 1 are isomorphic
                    stab_table = b.stabilizer(k).to_cayley_table(limits.table_limit, memo)
                    wreath_table = materialize(p.group_expr(), limits.table_limit, memo)
                    if memo.isomorphic(stab_table, wreath_table) is not True:
                        report.add(
                            f"cell ({n},{m}) profile {p.k}: stabilizer is not "
                            f"isomorphic to {p.group_expr().text()}")
    return report
