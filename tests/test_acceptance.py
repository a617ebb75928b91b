"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import itertools
import random

from conftest import ladder_act

from cdiag import classifying as cl, fincat, finset, finvect, modp
from cdiag.chains import enumerate_chains, orbits
from cdiag.cli import ACCEPTANCE_SUITE, builtin_category


def verdict(criterion, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {state}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_ordinals():
    ok = True
    for m in range(6):
        cat = fincat.ordinal(m)
        d0 = cl.level_decomposition(cat, 0)
        d1 = cl.level_decomposition(cat, 1)
        ok = ok and len(d0) == m + 1
        ok = ok and len(d1) == (m + 1) * (m + 2) // 2
        ok = ok and all(c.group_order == 1 for c in d0.components)
        ok = ok and all(c.group_order == 1 for c in d1.components)
    verdict("criterion 1 (ordinal levels)", ok,
            "levels 0/1 of [m] for m in 0..5, all stabilizers trivial")


def test_criterion_2_groupoid_constancy(s2_category, s3_category, c4_category):
    ok = True
    for cat, size in ((s2_category, 2), (s3_category, 6), (c4_category, 4)):
        for n in range(4):
            d = cl.level_decomposition(cat, n)
            ok = ok and len(d) == 1 and d.components[0].group_order == size
    verdict("criterion 2 (groupoid constancy)", ok,
            "S2, S3, C4: one component of order |G| at levels 0..3")


def test_criterion_3_motivating_example():
    arrow = cl.level_decomposition(fincat.walking_arrow(), 0)
    point = cl.level_decomposition(fincat.ordinal(0), 0)
    ok = len(arrow) == 2 and len(point) == 1
    verdict("criterion 3 (walking arrow vs point)", ok,
            f"{len(arrow)} components vs {len(point)}")


def test_criterion_4_segal_bijection():
    ok = True
    details = []
    for spec in ACCEPTANCE_SUITE:
        cat = builtin_category(spec)
        for n in (2, 3):
            r = cl.segal_check(cat, n)
            ok = ok and r.ok
            if not r.ok:
                details.append(f"{spec} n={n}")
    verdict("criterion 4 (Segal bijection)", ok,
            "chain count = fiber-product count with splitting bijection, "
            f"n in {{2,3}} on {len(ACCEPTANCE_SUITE)} builtins"
            + ("; failed: " + ", ".join(details) if details else ""))


def test_criterion_5_completeness():
    ok = True
    for spec in ACCEPTANCE_SUITE:
        cat = builtin_category(spec)
        rep = cl.completeness_check(cat)
        ok = ok and rep.verdict
        ok = ok and "group isomorphism" in rep.policy
    verdict("criterion 5 (completeness)", ok,
            "levels 0 and 1 of iso(C) match on every builtin, "
            "isomorphism-confirmed below the limit")


def test_criterion_6_discreteness():
    def monotone_count(n, m):
        cnt = 0
        for t in itertools.product(range(m + 1), repeat=n + 1):
            if all(t[i] <= t[i + 1] for i in range(n)):
                cnt += 1
        return cnt

    oracle = sum(monotone_count(n, m) for n in range(3) for m in range(3))
    rep = cl.is_discrete_classifying(fincat.truncated_delta(2), 2)
    s2 = cl.is_discrete_classifying(
        fincat.one_object_group([[0, 1], [1, 0]]), 2)
    ok = (rep.discrete and rep.ok and rep.levels[1][1] == oracle
          and not s2.discrete and s2.ok)
    verdict("criterion 6 (discreteness)", ok,
            f"delta<=2 discrete with level-1 component count {rep.levels[1][1]} "
            f"= brute-force monotone-map count {oracle}; S2 fails the check")


def test_criterion_7_finset_theorem():
    ok = True
    details = []
    for variant in ("all", "inj", "surj"):
        rep = finset.oracle_diff_finset(5, variant)
        ok = ok and rep.ok
        details.append(f"{variant}: {rep.checked} components")
        if not rep.ok:
            details.append("; ".join(rep.mismatches[:3]))
    counting = all(finset.function_count_identity(n, m)
                   for n in range(6) for m in range(6))
    ok = ok and counting
    verdict("criterion 7 (finite-set wreath decomposition)", ok,
            "closed form vs brute force at max card 5, zero mismatches "
            f"({', '.join(details)}); counting identity holds for n,m <= 5")


def test_criterion_8_finvect_corollary():
    ok = True
    details = []
    for q in (2, 3, 5):
        rep = finvect.oracle_diff_vect(2, q)
        ok = ok and rep.ok
        if not rep.ok:
            details.append(f"q={q}: " + "; ".join(rep.mismatches[:3]))
    # the five explicit cases, with the column/diag orders produced by the
    # direct pair scan before being compared against the formulas
    for q in (2, 3, 5):
        bound = 250_000 if q == 5 else finvect.SCAN_BOUND
        col = finvect.direct_scan_stabilizer_order(((1,), (0,)), 1, 2, q, bound)
        diag = finvect.direct_scan_stabilizer_order(((1, 0), (0, 0)), 2, 2, q, bound)
        cases = {c.case: c.order for c in finvect.paper_stabilizers_dim_le2(q)}
        ok = ok and col == (q - 1) ** 2 * q == cases["column [1;0]"]
        ok = ok and diag == (q - 1) ** 3 * q * q == cases["diag(1,0) 2x2"]
        ok = ok and cases["unit 1x1"] == q - 1
        ok = ok and cases["full-rank 2x2"] == finvect.glnq_order(2, q)
        ok = ok and cases["rank-0 2x2"] == finvect.glnq_order(2, q) ** 2
        details.append(f"q={q}: scan column={col}, diag={diag}")
    verdict("criterion 8 (vector-space rank decomposition)", ok,
            "oracle diff clean for q in {2,3,5}; " + "; ".join(details))


def test_criterion_9_simplicial_identities(s2_category, s3_category):
    ok = True
    for cat, sizes in ((s2_category, [1, 2, 4, 8]), (s3_category, [1, 6, 36, 216])):
        t = cl.nerve_truncation(cat, 3)
        ok = ok and t.level_sizes == sizes and t.check_simplicial_identities()
    verdict("criterion 9 (simplicial identities)", ok,
            "S2 and S3 nerves at truncation 3")


# ---------------------------------------------------------------------------
# Criterion 10: randomized property suites, 1000 cases each


CASES = 1000


def _chain_pool():
    specs = ["group:S3", "group:S2", "group:C4", "iso-interval",
             "finset:2", "ordinal:2", "vect:1:2"]
    return [builtin_category(s) for s in specs]


def test_criterion_10a_chain_action_axioms():
    rng = random.Random(2024)
    pool = _chain_pool()
    chains_by = {}
    for cat in pool:
        chains_by[cat.name] = (enumerate_chains(cat, 1)
                               + enumerate_chains(cat, 2))
    failures = 0
    for _ in range(CASES):
        cat = rng.choice(pool)
        c = rng.choice(chains_by[cat.name])
        auts = [cat.aut_idx(x) for x in c.objs]
        beta = [rng.choice(a) for a in auts]
        gamma = [rng.choice(a) for a in auts]
        ident = [cat.identity_idx[x] for x in c.objs]
        if ladder_act(cat, ident, c.mors) != c.mors:
            failures += 1
            continue
        bg = [cat.compose_idx(b, g) for b, g in zip(beta, gamma)]
        if ladder_act(cat, beta, ladder_act(cat, gamma, c.mors)) != ladder_act(cat, bg, c.mors):
            failures += 1
    verdict("criterion 10a (chain action axioms)", failures == 0,
            f"{CASES} randomized identity/compatibility cases, {failures} failures")


def test_criterion_10b_matrix_action_axioms():
    rng = random.Random(4096)
    gl_cache = {}

    def gl(n, q):
        if (n, q) not in gl_cache:
            gl_cache[(n, q)] = modp.general_linear(n, q)
        return gl_cache[(n, q)]

    failures = 0
    for _ in range(CASES):
        q = rng.choice((2, 3, 5))
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        A = finvect.MatrixFq(q, rng.choice(list(modp.all_matrices(m, n, q))))
        P1, P2 = rng.choice(gl(n, q)), rng.choice(gl(n, q))
        Q1, Q2 = rng.choice(gl(m, q)), rng.choice(gl(m, q))
        ident = finvect.matrix_action(modp.identity(n), modp.identity(m), A)
        lhs = finvect.matrix_action(
            modp.mul(P1, P2, q), modp.mul(Q1, Q2, q), A)
        rhs = finvect.matrix_action(
            P1, Q1, finvect.matrix_action(P2, Q2, A))
        if ident.rows != A.rows or lhs.rows != rhs.rows:
            failures += 1
        if finvect.matrix_action(P1, Q1, A).rank() != A.rank():
            failures += 1
    verdict("criterion 10b (matrix action axioms)", failures == 0,
            f"{CASES} randomized identity/compatibility/rank cases, {failures} failures")


def _orbit_pool():
    out = []
    for spec, n in [("group:S3", 1), ("group:S3", 2), ("group:C4", 2),
                    ("finset:3", 1), ("vect:2:2", 1), ("vect:1:3", 1),
                    ("ordinal:3", 1), ("ordinal:2", 2), ("iso-interval", 1),
                    ("delta:2", 1)]:
        cat = builtin_category(spec)
        out.append((spec, n, orbits(cat, n), orbits(cat, n, reverse=True)))
    return out


def test_criterion_10c_orbit_stabilizer_identity():
    rng = random.Random(77)
    pool = _orbit_pool()
    failures = 0
    for _ in range(CASES):
        _, _, orbs, _ = rng.choice(pool)
        o = rng.choice(orbs)
        if not o.check_orbit_stabilizer():
            failures += 1
    all_orbits_hold = all(o.check_orbit_stabilizer()
                          for _, _, orbs, _ in pool for o in orbs)
    verdict("criterion 10c (orbit-stabilizer identity)",
            failures == 0 and all_orbits_hold,
            f"{CASES} randomized draws plus every computed orbit, {failures} failures")


def test_criterion_10d_enumeration_order_independence():
    rng = random.Random(303)
    pool = _orbit_pool()
    for _, _, fwd, rev in pool:
        assert [o.rep.mors for o in fwd] == [o.rep.mors for o in rev]
    failures = 0
    for _ in range(CASES):
        _, _, fwd, rev = rng.choice(pool)
        i = rng.randrange(len(fwd))
        a, b = fwd[i], rev[i]
        if (a.rep.mors != b.rep.mors or a.size != b.size
                or a.stabilizer.order != b.stabilizer.order):
            failures += 1
    verdict("criterion 10d (enumeration-order independence)", failures == 0,
            f"{CASES} randomized representative comparisons, {failures} failures")
