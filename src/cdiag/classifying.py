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
from typing import Optional

from . import chains as chains_mod
from .chains import Chain, Orbit, StabilizerGroup, chain_count, orbits
from .fincat import CategoryError, FiniteCategory
from .groups import CayleyTable, are_isomorphic, match_named
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

    @property
    def key(self) -> str:
        return f"L{self.level}:" + ",".join(self.representative)

    def group_display(self) -> str:
        if self.group_expr is not None:
            return self.group_expr
        return f"order={self.group_order}"


@dataclass
class Decomposition:
    category: str
    level: int
    total_chains: int
    components: list

    def orders(self) -> list:
        return sorted(c.group_order for c in self.components)

    def __len__(self):
        return len(self.components)


def _match_component_group(stab: StabilizerGroup, limits: Limits):
    """(group_expr, policy) for a stabilizer: named expression by isomorphism
    when the order fits iso_limit, otherwise order-only reporting."""
    if stab.order == 1:
        return "1", "isomorphism"
    if stab.order <= limits.iso_limit:
        table = stab.to_cayley_table(limits.table_limit)
        label = match_named(table, limits.iso_limit)
        return label, "isomorphism"
    return None, "order-only"


def level_decomposition(cat: FiniteCategory, n: int,
                        limits: Limits = DEFAULT_LIMITS) -> Decomposition:
    """Level n as components (representative, class size, stabilizer)."""
    orbs = orbits(cat, n, limits)
    comps = []
    for o in orbs:
        expr, policy = _match_component_group(o.stabilizer, limits)
        rep = o.rep.morphism_ids if n >= 1 else (o.rep.object_ids[0],)
        comps.append(Component(
            level=n,
            cell=o.rep.object_ids,
            representative=rep,
            orbit_size=o.size,
            group_order=o.stabilizer.order,
            group_expr=expr,
            policy=policy,
            stabilizer=o.stabilizer,
            orbit=o,
        ))
    total = chain_count(cat, n)
    if sum(c.orbit_size for c in comps) != total:
        raise CategoryError("component sizes do not sum to the chain count")
    return Decomposition(category=cat.name, level=n, total_chains=total,
                         components=comps)


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
    the enumerated tuples are composable and strictly ascending, so
    distinct, and there are as many as the fiber product's size, counted
    independently over hom-set sizes.  A failure here signals an engine
    bug, not a property of the category."""
    if n < 2:
        raise CategoryError(f"Segal maps start at level 2, got level {n}")
    fiber = chains_mod._limited_chain_count(cat, n, limits)
    src, dst = cat.src, cat.dst
    count, ok, prev = 0, True, ()
    for mors in chains_mod._chain_mors_iter(cat, n):
        ok = ok and (len(mors) == n and prev < mors
                     and all(dst[f] == src[g] for f, g in zip(mors, mors[1:])))
        count, prev = count + 1, mors
    return SegalReport(level=n, chain_count=count,
                       fiber_product_count=fiber, bijection_ok=ok)


# ---------------------------------------------------------------------------
# Completeness via the walking isomorphism


def invertible_square_groupoid(cat: FiniteCategory) -> FiniteCategory:
    """The groupoid whose objects are the mutually inverse pairs (f, g) of
    ``cat`` (one per isomorphism f) and whose morphisms are pairs of
    isomorphisms making both squares commute."""
    isos = [f for f in range(cat.n_morphisms) if cat.inverse_idx(f) is not None]
    obj_ids = [cat.mor_ids[f] for f in isos]
    pos = {f: k for k, f in enumerate(isos)}

    iso_by_pair = {}
    for f in isos:
        iso_by_pair.setdefault((cat.src[f], cat.dst[f]), []).append(f)

    payloads, morphisms = [], []
    identity = {}
    for k, f in enumerate(isos):
        for k2, f2 in enumerate(isos):
            alphas = iso_by_pair.get((cat.src[f], cat.src[f2]), [])
            for a in alphas:
                # beta is forced: beta = f2 . a . f^{-1}; both squares then commute
                b = cat.compose_idx(f2, cat.compose_idx(a, cat.inverse_idx(f)))
                assert cat.compose_idx(b, f) == cat.compose_idx(f2, a)
                payload = (k, k2, a)
                mid = f"sq{len(payloads)}"
                if k == k2 and a == cat.identity_idx[cat.src[f]]:
                    mid = f"id_{obj_ids[k]}"
                    identity[obj_ids[k]] = mid
                payloads.append(payload)
                morphisms.append((mid, obj_ids[k], obj_ids[k2]))

    def comp(gp, fp):
        (kb, kc, a2), (ka, kb2, a1) = gp, fp
        assert kb2 == kb
        return (ka, kc, cat.compose_idx(a2, a1))

    def inv(p):
        k, k2, a = p
        return (k2, k, cat.inverse_idx(a))

    return FiniteCategory(obj_ids, morphisms, identity,
                          payloads=payloads, compose_payload=comp,
                          inverse_payload=inv,
                          name=f"iso-squares({cat.name})" if cat.name else "iso-squares")


@dataclass
class CompletenessReport:
    class_counts: tuple          # (iso(C), iso-squares)
    aut_order_multisets: tuple
    verdict: bool
    policy: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict


def completeness_check(cat: FiniteCategory,
                       limits: Limits = DEFAULT_LIMITS) -> CompletenessReport:
    """Compare the class/automorphism invariants of the maximal subgroupoid
    of ``cat`` with those of the groupoid of invertible squares; equality is
    the checkable shadow of completeness of the classifying diagram."""
    side_a = chains_mod.iso_classes_of_objects(cat, limits)
    gpd = invertible_square_groupoid(cat)
    side_b = chains_mod.iso_classes_of_objects(gpd, limits)

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
        buckets_a.setdefault(o.stabilizer.order, []).append(o)
    for o in side_b:
        buckets_b.setdefault(o.stabilizer.order, []).append(o)
    verdict = True
    for order_key in sorted(buckets_a):
        if order_key > limits.iso_limit:
            detail.append(f"order {order_key}: order-only (above iso_limit)")
            continue
        policy = "aut-order multiset + group isomorphism"
        ta, tb = ([CayleyTable(o.rep.cat.aut_table(o.rep.objs[0]),
                               label=f"Aut({o.rep.object_ids[0]})") for o in b[order_key]]
                  for b in (buckets_a, buckets_b))
        if not _match_tables(ta, tb, limits.iso_limit):
            verdict = False
            detail.append(f"order {order_key}: no isomorphism matching")
    return CompletenessReport(counts, (multi_a, multi_b), verdict, policy,
                              detail="; ".join(detail))


def _match_tables(ta: list, tb: list, iso_limit: int) -> bool:
    """Perfect matching between two small lists of groups under isomorphism."""
    if len(ta) != len(tb):
        return False
    if not ta:
        return True
    used = [False] * len(tb)

    def rec(i):
        if i == len(ta):
            return True
        for j in range(len(tb)):
            if not used[j] and are_isomorphic(ta[i], tb[j], iso_limit):
                used[j] = True
                if rec(i + 1):
                    return True
                used[j] = False
        return False

    return rec(0)


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
# Truncated nerve of a groupoid


@dataclass
class TruncatedSimplicialSet:
    levels: list            # levels[n]: list of simplex keys (mors tuples / object indices)
    faces: dict             # (n, i) -> list mapping level-n index -> level-(n-1) index
    degeneracies: dict      # (n, j) -> list mapping level-n index -> level-(n+1) index

    @property
    def level_sizes(self) -> list:
        return [len(l) for l in self.levels]

    def check_simplicial_identities(self) -> bool:
        L = len(self.levels) - 1
        for n in range(2, L + 1):
            size = len(self.levels[n])
            for j in range(n + 1):
                for i in range(j):
                    di, dj = self.faces[(n, i)], self.faces[(n, j)]
                    di_low = self.faces[(n - 1, i)]
                    dj1_low = self.faces[(n - 1, j - 1)]
                    for s in range(size):
                        if di_low[dj[s]] != dj1_low[di[s]]:
                            return False
        for n in range(0, L):
            size = len(self.levels[n])
            for j in range(n + 1):
                sj = self.degeneracies[(n, j)]
                for i in range(n + 2):
                    d_up = self.faces[(n + 1, i)]
                    for s in range(size):
                        v = d_up[sj[s]]
                        if i == j or i == j + 1:
                            ok = v == s
                        elif i < j:
                            ok = v == self.degeneracies[(n - 1, j - 1)][self.faces[(n, i)][s]]
                        else:
                            ok = v == self.degeneracies[(n - 1, j)][self.faces[(n, i - 1)][s]]
                        if not ok:
                            return False
        for n in range(0, L - 1):
            size = len(self.levels[n])
            for j in range(n + 1):
                for i in range(j + 1):
                    si_up = self.degeneracies[(n + 1, i)]
                    sj_ = self.degeneracies[(n, j)]
                    sj1_up = self.degeneracies[(n + 1, j + 1)]
                    si_ = self.degeneracies[(n, i)]
                    for s in range(size):
                        if si_up[sj_[s]] != sj1_up[si_[s]]:
                            return False
        return True


#: Highest nerve level ``nerve_truncation`` builds by default.
MAX_NERVE_TRUNCATION = 4


def nerve_truncation(gpd: FiniteCategory, truncation: int,
                     limits: Limits = DEFAULT_LIMITS) -> TruncatedSimplicialSet:
    """Levels 0..truncation of the nerve of a groupoid, with explicit face
    and degeneracy maps, simplicial identities verified by the caller via
    ``check_simplicial_identities``."""
    if not 0 <= truncation <= MAX_NERVE_TRUNCATION:
        raise CategoryError(
            f"truncation must be between 0 and {MAX_NERVE_TRUNCATION}, got {truncation}")
    for f in range(gpd.n_morphisms):
        if gpd.inverse_idx(f) is None:
            raise CategoryError(
                f"nerve truncation expects a groupoid; {gpd.mor_ids[f]} is not invertible")

    levels = [list(range(gpd.n_objects))]
    index_of = [dict((x, i) for i, x in enumerate(levels[0]))]
    for n in range(1, truncation + 1):
        simplices = list(chains_mod._chain_mors_iter(gpd, n))
        levels.append(simplices)
        index_of.append({s: i for i, s in enumerate(simplices)})

    def src_of(mors):
        return gpd.src[mors[0]]

    def vertex(mors, k):
        return src_of(mors) if k == 0 else gpd.dst[mors[k - 1]]

    faces, degen = {}, {}
    for n in range(1, truncation + 1):
        for i in range(n + 1):
            col = []
            for mors in levels[n]:
                if n == 1:
                    t = gpd.dst[mors[0]] if i == 0 else gpd.src[mors[0]]
                    col.append(index_of[0][t])
                    continue
                if i == 0:
                    out = mors[1:]
                elif i == n:
                    out = mors[:-1]
                else:
                    out = mors[:i - 1] + (gpd.compose_idx(mors[i], mors[i - 1]),) + mors[i + 1:]
                col.append(index_of[n - 1][out])
            faces[(n, i)] = col
    for n in range(0, truncation):
        for j in range(n + 1):
            col = []
            for s in levels[n]:
                mors = () if n == 0 else s
                x = s if n == 0 else vertex(mors, j)
                ins = gpd.identity_idx[x]
                out = mors[:j] + (ins,) + mors[j:]
                col.append(index_of[n + 1][out])
            degen[(n, j)] = col
    return TruncatedSimplicialSet(levels=levels, faces=faces, degeneracies=degen)


# ---------------------------------------------------------------------------
# Face and degeneracy component maps between levels 0 and 1


@dataclass
class FaceDegeneracyReport:
    level1_rows: list      # (level-1 component key, d1 -> level-0 key, d0 -> level-0 key)
    s0_rows: list          # (level-0 key, image level-1 key, image stabilizer order)
    ok: bool


def component_of_chain(cat: FiniteCategory, decomp: Decomposition,
                       chain: Chain) -> Component:
    """The component of ``decomp`` containing the given chain."""
    if decomp.level == 0:
        target = None
        from .fincat import object_iso_classes
        for cls in object_iso_classes(cat):
            if chain.objs[0] in cls.members:
                target = (cat.objects[cls.rep],)
                break
        for c in decomp.components:
            if c.representative == target:
                return c
        raise CategoryError("object not covered by the decomposition")
    rep_ids = chains_mod.least_member(cat, chain).morphism_ids
    for c in decomp.components:
        if c.representative == rep_ids:
            return c
    raise CategoryError("chain not covered by the decomposition "
                        "(is it on a representative object tuple?)")


def face_degeneracy_report(cat: FiniteCategory,
                           limits: Limits = DEFAULT_LIMITS) -> FaceDegeneracyReport:
    """How the two face maps and the degeneracy connect the components of
    levels 1 and 0."""
    d0 = level_decomposition(cat, 0, limits)
    d1 = level_decomposition(cat, 1, limits)
    by_rep_obj = {c.representative[0]: c for c in d0.components}

    rows1 = []
    for c in d1.components:
        src_comp = by_rep_obj[c.cell[0]]
        dst_comp = by_rep_obj[c.cell[1]]
        rows1.append((c.key, src_comp.key, dst_comp.key))
    faces = {key: (d1_key, d0_key) for key, d1_key, d0_key in rows1}

    rows_s0 = []
    ok = True
    for c0 in d0.components:
        x = cat.obj_index(c0.representative[0])
        image = component_of_chain(cat, d1, Chain(cat, (x, x), (cat.identity_idx[x],)))
        # d_1 s_0 = d_0 s_0 = id on level-0 components
        ok = ok and faces[image.key] == (c0.key, c0.key)
        rows_s0.append((c0.key, image.key, image.group_order))
    return FaceDegeneracyReport(level1_rows=rows1, s0_rows=rows_s0, ok=ok)
