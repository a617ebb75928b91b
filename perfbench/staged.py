"""The traced replay: each command as staged calls into the public
functions of the layers ``fincat``, ``chains``, ``groups`` and
``classifying``, with a span around every call.

Spans and counts live only here; nothing under ``src/`` is patched or read
through a private name.  Each replay follows the code path of its command
(``level_decomposition``, ``oracle_diff_finset``, ``segal_check``,
``completeness_check``) and checks its results against the pinned facts of
that command.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from cdiag import chains, classifying, cli, finset, groups
from cdiag.limits import DEFAULT_LIMITS

import workloads

LIMITS = DEFAULT_LIMITS

# (automorphism, morphism) pairs the composition probe times.
PROBE_PAIRS = 2048


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def count(self, name, k=1):
        self.counts[name] += k

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)


def _build(t: Tracer, argv):
    with t.span("fincat.build"):
        cat = workloads.build_category(workloads.category_key(argv))
    t.count("fincat.morphisms", cat.n_morphisms)
    return cat


def _orbits(t: Tracer, cat, level):
    with t.span("chains.orbits"):
        orbs = chains.orbits(cat, level, LIMITS)
    t.count("chains.components", len(orbs))
    for o in orbs:
        t.count(f"chains.{o.stabilizer.policy}_stabilizers")
    return orbs


def _table(t: Tracer, make):
    with t.span("groups.table"):
        table = make()
    t.count("groups.table_cells", table.n * table.n)
    return table


def _decompose(t: Tracer, argv, pin) -> list:
    """``level_decomposition`` and its group naming, layer by layer."""
    cat = _build(t, argv)
    level = workloads.level_of(argv)
    orbs = _orbits(t, cat, level)
    labels = Counter()
    for o in orbs:
        stab = o.stabilizer
        if stab.order == 1:
            labels["1"] += 1
            continue
        if stab.order > LIMITS.iso_limit:
            labels["?"] += 1
            continue
        table = _table(t, lambda: stab.to_cayley_table(LIMITS.table_limit))
        with t.span("groups.name"):
            label = groups.match_named(table, LIMITS.iso_limit)
        t.count("groups.named" if label else "groups.unnamed")
        labels[label or "?"] += 1
    with t.span("chains.enumerate"):
        total = chains.chain_count(cat, level)
    t.count("chains.chains", total)
    errors = []
    if not all(o.check_orbit_stabilizer() for o in orbs):
        errors.append("orbit-stabilizer identity fails")
    if sum(o.size for o in orbs) != total or total != pin["chains"]:
        errors.append(f"orbit sizes do not sum to the pinned {pin['chains']} chains")
    if dict(labels) != pin["groups"]:
        errors.append(f"group labels {dict(labels)} != pinned {pin['groups']}")
    return errors


def _function_values(mor_id: str, n: int) -> tuple:
    """Values of a finset skeleton morphism, read from its public id
    (``id_<n>`` or ``f<n>_<m>_<digits>``)."""
    if mor_id.startswith("id_"):
        return tuple(range(n))
    return tuple(int(c) for c in mor_id.split("_")[2])


def _oracle(t: Tracer, argv, pin) -> list:
    """``oracle_diff_finset``: brute-force orbits against wreath products."""
    opts = workloads.options(argv)
    max_card, variant = int(opts["--finset-max"]), opts["--variant"]
    skel = _build(t, argv)
    by_cell = defaultdict(list)
    for o in _orbits(t, skel, 1):
        n, m = (int(skel.objects[x]) for x in o.rep.objs)
        values = _function_values(skel.mor_ids[o.rep.mors[0]], n)
        by_cell[n, m].append((finset.profile_of(values, m), o))
    errors, checked = [], 0
    for n in range(max_card + 1):
        for m in range(max_card + 1):
            expected = {p.k: p for p in finset.enumerate_profiles(n, m, variant)}
            got = by_cell.get((n, m), [])
            if len(got) != len(expected) or {p.k for p, _ in got} != set(expected):
                errors.append(f"cell ({n},{m}): profiles differ from the closed form")
                continue
            for p, o in got:
                checked += 1
                want = expected[p.k]
                if o.stabilizer.order != want.group_order():
                    errors.append(f"cell ({n},{m}) profile {p.k}: stabilizer order")
                    continue
                if want.group_order() > LIMITS.iso_limit:
                    continue
                stab = _table(t, lambda: o.stabilizer.to_cayley_table(LIMITS.table_limit))
                wreath = _table(t, lambda: groups.materialize(want.group_expr(),
                                                              LIMITS.table_limit))
                with t.span("groups.iso"):
                    verdict = groups.are_isomorphic(stab, wreath, LIMITS.iso_limit)
                t.count("groups.iso_tests")
                if verdict is not True:
                    errors.append(f"cell ({n},{m}) profile {p.k}: not isomorphic")
    if checked != pin["checked"]:
        errors.append(f"{checked} components checked, pinned {pin['checked']}")
    return errors


def _segal(t: Tracer, argv, pin) -> list:
    """``segal_check``.  It enumerates the chains itself; the replay
    enumerates them once more beforehand so that enumeration shows as its
    own span."""
    cat = _build(t, argv)
    level = workloads.level_of(argv)
    with t.span("chains.enumerate"):
        found = chains.enumerate_chains(cat, level, LIMITS)
    t.count("chains.chains", len(found))
    with t.span("classifying.segal"):
        rep = classifying.segal_check(cat, level, LIMITS)
    if not rep.ok or rep.chain_count != pin["chains"] or len(found) != pin["chains"]:
        return [f"segal: {rep.chain_count} chains, pinned {pin['chains']}, ok={rep.ok}"]
    return []


def _complete(t: Tracer, argv, pin) -> list:
    cat = _build(t, argv)
    with t.span("classifying.complete"):
        rep = classifying.completeness_check(cat, LIMITS)
    return [] if rep.verdict else ["completeness verdict is false"]


REPLAYS = {"decompose": _decompose, "oracle-diff": _oracle,
           "segal": _segal, "complete": _complete}


def replay(t: Tracer, argv, pin) -> list:
    """Run one command as staged calls; returns the failures found."""
    with t.span("cli." + argv[0]):
        return REPLAYS[argv[0]](t, argv, pin)


def compose_probe(t: Tracer, spec: str, rng: random.Random) -> None:
    """``compose_idx`` over PROBE_PAIRS distinct seeded (automorphism,
    morphism) pairs of a freshly built category: once cold, then again warm."""
    cat = cli.builtin_category(spec)
    auts = [cat.aut_idx(x) for x in range(cat.n_objects)]
    total = sum(len(auts[cat.dst[f]]) for f in range(cat.n_morphisms))
    if total < 2 * PROBE_PAIRS:
        raise ValueError(f"{spec} has only {total} composable pairs")
    pairs = set()
    while len(pairs) < PROBE_PAIRS:
        f = rng.randrange(cat.n_morphisms)
        pairs.add((rng.choice(auts[cat.dst[f]]), f))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    for phase in ("fincat.compose_cold", "fincat.compose_warm"):
        with t.span(phase):
            for a, f in pairs:
                cat.compose_idx(a, f)
    t.count("fincat.compose_pairs", PROBE_PAIRS)
