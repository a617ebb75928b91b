import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

from cdiag import finvect, groups, modp
from cdiag.cli import run
from cdiag.fincat import CategoryError
from cdiag.finvect import (direct_scan_stabilizer_order, glnq_order, oracle_diff_vect,
                           orbits_by_rank, paper_stabilizers_dim_le2, vect_level0,
                           vect_skeleton)
from cdiag.groups import ClosureLimitExceeded, GroupError, are_isomorphic

from conftest import MatrixFq, matrix_action, table_from_elements


def det2(a, q):
    return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % q


# ---------------------------------------------------------------------------
# Orders


def test_gl_order_brute_force_2x2():
    for q in (2, 3, 5):
        oracle = sum(1 for m in modp.all_matrices(2, 2, q) if det2(m, q))
        assert glnq_order(2, q) == oracle
    assert glnq_order(2, 2) == 6
    assert glnq_order(2, 3) == 48


def test_gl_order_dim1_and_0():
    for q in (2, 3, 5, 7):
        assert glnq_order(1, q) == q - 1
        assert glnq_order(0, q) == 1


def test_gl_order_rejects_nonprime():
    with pytest.raises(GroupError):
        glnq_order(2, 4)


# ---------------------------------------------------------------------------
# The matrix action


def test_action_identity():
    A = MatrixFq(3, ((1, 2), (0, 1)))
    assert matrix_action(modp.identity(2), modp.identity(2), A).rows == A.rows


def test_action_swap_example_over_f2():
    A = MatrixFq(2, ((1,), (0,)))
    out = matrix_action(((1,),), ((0, 1), (1, 0)), A)
    assert out.rows == ((0,), (1,))


def test_action_preserves_rank_random():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        A = MatrixFq(q, rng.choice(list(modp.all_matrices(m, n, q))))
        P = rng.choice(modp.general_linear(n, q))
        Q = rng.choice(modp.general_linear(m, q))
        assert matrix_action(P, Q, A).rank() == A.rank()


def test_action_rejects_singular():
    A = MatrixFq(2, ((1, 0), (0, 0)))
    with pytest.raises(CategoryError):
        matrix_action(((1, 0), (0, 0)), modp.identity(2), A)


# ---------------------------------------------------------------------------
# Rank orbits


def test_cell_2_2_2():
    cell = orbits_by_rank(2, 2, 2)
    assert [(c.rank, c.class_size, c.stabilizer_order) for c in cell.classes] \
        == [(0, 1, 36), (1, 9, 4), (2, 6, 6)]
    assert all(c.scan_order == c.stabilizer_order for c in cell.classes)


def test_cell_1_2_2():
    cell = orbits_by_rank(1, 2, 2)
    assert [(c.rank, c.class_size, c.stabilizer_order) for c in cell.classes] \
        == [(0, 1, 6), (1, 3, 2)]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_cell_1_1_q(q):
    cell = orbits_by_rank(1, 1, q)
    assert [(c.rank, c.stabilizer_order) for c in cell.classes] \
        == [(0, (q - 1) ** 2), (1, q - 1)]


def test_cell_sizes_sum_to_qnm():
    for q in (2, 3):
        for n in range(3):
            for m in range(3):
                cell = orbits_by_rank(n, m, q)
                assert cell.check_counts()


def test_enumeration_bound():
    with pytest.raises(CategoryError):
        orbits_by_rank(3, 3, 5)         # 5^9 matrices


def _spoil_gl1_order(monkeypatch):
    order = finvect.glnq_order
    monkeypatch.setattr(finvect, "glnq_order", lambda n, q: order(n, q) + (n == 1))


def _spoil_scan(monkeypatch):
    scan = finvect.direct_scan_stabilizer_order
    monkeypatch.setattr(finvect, "direct_scan_stabilizer_order",
                        lambda *a, **k: scan(*a, **k) + 1)


def _spoil_generators(monkeypatch):
    # no generators: the breadth-first orbit is the canonical matrix alone
    monkeypatch.setattr(modp, "gl_generators", lambda n, q: [])


def _spoil_representative(monkeypatch):
    monkeypatch.setattr(finvect, "canonical_rank_rep",
                        lambda r, m, n: tuple((0,) * n for _ in range(m)))


@pytest.mark.parametrize("spoil,argv", [
    (_spoil_gl1_order, ["--max-dim", "1", "--q", "3"]),
    (_spoil_scan, ["--max-dim", "1", "--q", "2"]),
    (_spoil_generators, ["--max-dim", "2", "--q", "2"]),
    (_spoil_representative, ["--max-dim", "1", "--q", "2"]),
])
def test_rank_class_self_checks_exit_1(spoil, argv, monkeypatch, capsys):
    spoil(monkeypatch)
    assert run(["finvect"] + argv) == 1
    assert "self-check failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The dimension <= 2 catalogue


def test_paper_cases_q2():
    d = {c.case: c.order for c in paper_stabilizers_dim_le2(2)}
    assert d["column [1;0]"] == 2
    assert d["diag(1,0) 2x2"] == 4
    assert d["unit 1x1"] == 1
    assert d["full-rank 2x2"] == 6
    assert d["rank-0 2x2"] == 36


@pytest.mark.parametrize("q,bound", [(2, 100_000), (3, 100_000), (5, 250_000)])
def test_paper_case_orders_produced_by_direct_scan(q, bound):
    col = direct_scan_stabilizer_order(((1,), (0,)), 1, 2, q, bound)
    diag = direct_scan_stabilizer_order(((1, 0), (0, 0)), 2, 2, q, bound)
    assert col == (q - 1) ** 2 * q
    assert diag == (q - 1) ** 3 * q * q
    cases = {c.case: c.order for c in paper_stabilizers_dim_le2(q)}
    assert cases["column [1;0]"] == col
    assert cases["diag(1,0) 2x2"] == diag


def test_direct_scan_refuses_above_limit():
    assert direct_scan_stabilizer_order(((1, 0), (0, 0)), 2, 2, 5, 100_000) is None


def test_column_case_group_structure():
    # q = 2: honest direct product of units and the additive group
    case2 = next(c for c in paper_stabilizers_dim_le2(2) if "column" in c.case)
    assert case2.expr_text == "U(2) x U(2) x A(2)"
    # q = 3: the twist survives; the group is nonabelian of order 12
    case3 = next(c for c in paper_stabilizers_dim_le2(3) if "column" in c.case)
    t = case3.table(20000)
    assert t.n == 12 and not t.is_abelian()
    from cdiag.groups import Symmetric, cyclic_table, materialize, product_table
    s3xc2 = product_table([materialize(Symmetric(3)), cyclic_table(2)])
    assert are_isomorphic(t, s3xc2) is True


def test_catalogue_lists_elements_only_when_tabled(monkeypatch):
    def refuse(q):
        raise AssertionError("listed the elements of a case above table_limit")

    monkeypatch.setattr(finvect, "_column_elements", refuse)
    monkeypatch.setattr(finvect, "_diag_elements", refuse)
    cases = {c.case: c for c in paper_stabilizers_dim_le2(101)}
    diag = cases["diag(1,0) 2x2"]
    assert diag.order == 100 ** 3 * 101 ** 2
    with pytest.raises(ClosureLimitExceeded, match="exceeds table_limit 20000"):
        diag.table(20000)
    with pytest.raises(ClosureLimitExceeded, match="exceeds table_limit 20000"):
        cases["column [1;0]"].table(20000)


def test_full_rank_case_is_gl2():
    case = next(c for c in paper_stabilizers_dim_le2(3) if "full-rank" in c.case)
    from cdiag.groups import GeneralLinear, materialize
    assert are_isomorphic(case.table(20000), materialize(GeneralLinear(2, 3))) is True


# ---------------------------------------------------------------------------
# Level 0 and skeleton


def test_vect_level0():
    assert [c.group_order for c in vect_level0(2, 2)] == [1, 1, 6]
    assert [c.group_order for c in vect_level0(2, 3)] == [1, 2, 48]
    assert [c.group_order for c in vect_level0(0, 5)] == [1]


def test_skeleton_counts_and_axioms():
    sk = vect_skeleton(2, 2)
    assert sk.n_morphisms == sum(2 ** (n * m) for n in range(3) for m in range(3))
    sk.check_axioms()


def test_skeleton_ids_are_distinct_for_two_digit_entries():
    # without a separator the entries (1, 10) and (11, 0) give one id
    sk = vect_skeleton(2, 11)
    assert len(set(sk.mor_ids)) == sk.n_morphisms == 14899
    assert "m2_2_1000" in vect_skeleton(2, 3).mor_ids


def reference_vect_skeleton(max_dim, q):
    """(mor_ids, src, dst, payloads, identity_idx) of the skeleton, one
    matrix at a time: every m x n matrix over F_q with its entries, row by
    row, in lexicographic order, its id formatted on its own."""
    ids, src, dst, payloads, identity_idx = [], [], [], [], [None] * (max_dim + 1)
    sep = "_" if q > 10 else ""
    for n in range(max_dim + 1):
        for m in range(max_dim + 1):
            for flat in itertools.product(range(q), repeat=m * n):
                rows = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(m))
                if n == m and all(v == (i // n == i % n) for i, v in enumerate(flat)):
                    identity_idx[n] = len(ids)
                    ids.append(f"id_{n}")
                else:
                    ids.append(f"m{n}_{m}_" + sep.join(str(v) for v in flat))
                src.append(n)
                dst.append(m)
                payloads.append((n, m, rows))
    return tuple(ids), tuple(src), tuple(dst), tuple(payloads), tuple(identity_idx)


# q = 11 and 13 need the separator between entries
@pytest.mark.parametrize("max_dim, q", [(d, q) for q in (2, 3, 5, 11, 13) for d in range(3)]
                         + [(3, 2)])
def test_vect_skeleton_equals_the_per_matrix_reference(max_dim, q):
    sk = vect_skeleton(max_dim, q)
    assert sk.objects == tuple(str(d) for d in range(max_dim + 1))
    assert (sk.mor_ids, sk.src, sk.dst, sk.payloads, sk.identity_idx) == \
        reference_vect_skeleton(max_dim, q)
    # one morphism at a time, as a report names it, before any is listed
    fresh = vect_skeleton(max_dim, q)
    picks = range(0, fresh.n_morphisms, max(1, fresh.n_morphisms // 50))
    assert [(fresh.mor_id(i), fresh.payload(i)) for i in picks] == \
        [(sk.mor_ids[i], sk.payloads[i]) for i in picks]


def test_skeleton_unique_zero_dim_maps():
    sk = vect_skeleton(2, 3)
    for d in range(3):
        assert len(sk.hom_idx(sk.obj_index("0"), sk.obj_index(str(d)))) == 1
        assert len(sk.hom_idx(sk.obj_index(str(d)), sk.obj_index("0"))) == 1


@pytest.mark.parametrize("q", [2, 17, 257])
def test_matrix_codec_products_equal_modp(q):
    # all-(q - 1) factors give the largest sums before the reduction mod q
    codec = finvect._MatrixCodec(3, q)
    rng = random.Random(q)

    def rand(m, n):
        return tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(m))

    top = ((q - 1,) * 3,) * 3
    fs = [rand(3, 3) for _ in range(20)] + [top]
    F = np.array(fs, dtype=codec.dtype)
    for g in (rand(3, 3), top):
        G = np.array(g, dtype=codec.dtype)
        assert codec.left(G, F).tolist() == [[list(r) for r in modp.mul(g, f, q)] for f in fs]
        assert codec.right(F, G).tolist() == [[list(r) for r in modp.mul(f, g, q)] for f in fs]


@pytest.mark.parametrize("q", [2, 17, 257, 65537])
def test_matrix_codec_units_equal_modp(q):
    # one q for each width of the elimination's working dtype, with
    # singular matrices among the random ones
    codec = finvect._MatrixCodec(3, q)
    rng = random.Random(q)
    fs = [tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3)) for _ in range(200)]
    fs += [((1, 2, 3), (2, 4, 6), (0, 0, 1)), ((q - 1,) * 3,) * 3, ((0,) * 3,) * 3]
    units, inverses = codec.units(np.array(fs, dtype=codec.dtype))
    want = [modp.inverse(f, q) for f in fs]
    assert units.tolist() == [w is not None for w in want]
    assert inverses.tolist() == [[list(r) for r in w] for w in want if w is not None]


# ---------------------------------------------------------------------------
# Oracle diff


@pytest.mark.parametrize("q", [2, 3])
def test_oracle_diff_small_q(q):
    rep = oracle_diff_vect(2, q)
    assert rep.ok, rep.mismatches
    assert rep.checked == 14


@pytest.mark.parametrize("q", [2, 3])
def test_oracle_keys_are_the_ranks_of_the_representatives(q, monkeypatch):
    # one rank per component, read from one decode of its block
    seen = []
    compare = finvect.diff_closed_forms

    def spy(report, blocks, keys, *rest):
        seen.extend((b, keys(b)) for b in blocks)
        return compare(report, blocks, keys, *rest)

    monkeypatch.setattr(finvect, "diff_closed_forms", spy)
    assert oracle_diff_vect(2, q).ok
    skel = vect_skeleton(2, q)
    assert len(seen) == 9 and any(len(set(keys)) > 1 for _, keys in seen)
    for block, keys in seen:
        assert keys == [modp.rank(skel.payload(f)[2], q) for f in block.reps[:, 0]]


def test_oracle_diff_component_count_q2():
    rep = oracle_diff_vect(2, 2)
    assert rep.checked == sum(min(n, m) + 1 for n in range(3) for m in range(3))


def test_transpose_symmetry_direct():
    from cdiag import chains
    sk = vect_skeleton(2, 3)
    orbs = chains.orbits(sk, 1)
    def cell(n, m):
        return sorted((o.size, o.stabilizer.order) for o in orbs
                      if o.rep.objs == (n, m))
    assert cell(1, 2) == cell(2, 1)
    assert cell(0, 2) == cell(2, 0)


def test_oracle_diff_maxdim1_q3_cell_orders():
    from cdiag import chains
    sk = vect_skeleton(1, 3)
    orbs = [o for o in chains.orbits(sk, 1) if o.rep.objs == (1, 1)]
    assert sorted(o.stabilizer.order for o in orbs) == [2, 4]


def test_rank_class_named_expressions():
    cell = orbits_by_rank(2, 2, 2)
    assert [c.expr_text for c in cell.classes] == \
        ["GL(2,2) x GL(2,2)",
         "U(2) x U(2) x U(2) x A(2) x A(2)",
         "GL(2,2)"]
    cell = orbits_by_rank(1, 2, 3)
    assert cell.classes[1].expr_text == "{([a],[[a,x],[0,z]])}"
    cell = orbits_by_rank(1, 1, 5)
    assert [c.expr_text for c in cell.classes] == ["U(5) x U(5)", "U(5)"]
    cell = orbits_by_rank(0, 2, 3)
    assert cell.classes[0].expr_text == "GL(2,3)"


@pytest.mark.parametrize("q,tested", [(2, 9), (3, 12), (5, 9)])
def test_oracle_tests_every_named_rank_class_within_iso_limit(q, tested, monkeypatch):
    pairs = []
    isomorphic = groups.GroupMemo.isomorphic

    def spy(memo, a, b):
        pairs.append((a.n, b.n))
        return isomorphic(memo, a, b)

    monkeypatch.setattr(groups.GroupMemo, "isomorphic", spy)
    rep = oracle_diff_vect(2, q)
    assert rep.ok, rep.mismatches
    named = [(n, m, c) for n in range(3) for m in range(3)
             for c in orbits_by_rank(n, m, q).classes if 1 < c.stabilizer_order <= 512]
    assert len(pairs) == len(named) == tested
    assert all(a == b for a, b in pairs)


def test_oracle_checks_a_printed_rank_name_outside_the_catalogue(monkeypatch, capsys):
    # S4 x U(5) has the order 96 of U(3) x GL(2,3) but no element of order 8
    printed = finvect.rank_case

    def swapped(n, m, r, q):
        case = printed(n, m, r, q)
        if (n, m, r) == (1, 2, 0):
            expr = groups.Product([groups.Symmetric(4), groups.FieldUnits(5)])
            case = dataclasses.replace(case, expr=expr, expr_text=expr.text())
        return case

    monkeypatch.setattr(finvect, "rank_case", swapped)
    assert orbits_by_rank(1, 2, 3).classes[0].expr_text == "S4 x U(5)"
    rep = oracle_diff_vect(2, 3)
    want = "cell (1,2) rank 0: stabilizer is not isomorphic to S4 x U(5)"
    assert rep.mismatches == [want]
    # the check line of both commands names the failing cell, in text and JSON
    for argv in (["finvect", "--max-dim", "2", "--q", "3", "--oracle"],
                 ["oracle-diff", "--vect-dim", "2", "--q", "3"]):
        assert run(argv) == 1
        assert f"1 MISMATCHES: {want})" in capsys.readouterr().out
        assert run(argv + ["--format", "json"]) == 1
        [check] = json.loads(capsys.readouterr().out)["checks"]
        assert check["status"] == "fail" and check["details"].endswith(f"1 MISMATCHES: {want}")


def test_finvect_oracle_enumerates_each_cell_once(monkeypatch, capsys):
    calls = []
    enumerate_cell = finvect.orbits_by_rank

    def spy(n, m, q):
        calls.append((n, m, q))
        return enumerate_cell(n, m, q)

    monkeypatch.setattr(finvect, "orbits_by_rank", spy)
    assert run(["finvect", "--max-dim", "2", "--q", "3", "--oracle"]) == 0
    capsys.readouterr()
    assert sorted(calls) == [(n, m, 3) for n in range(3) for m in range(3)]


def _reference_case_table(case):
    """The listed case's table with one pair of ``modp.mul`` per product."""
    q = case.q

    def mul(e1, e2):
        (c1, d1), (c2, d2) = e1, e2
        return (modp.mul(c1, c2, q), modp.mul(d1, d2, q))

    return table_from_elements(case._elements(q), mul, label=case.case)


def _gl_lookup_case_table(case):
    """The listed case's table by ``table_from_elements``, each product one
    lookup per coordinate in the tables of GL_n and GL_m, whose elements
    are ranked in ``modp.general_linear`` order."""
    q, pairs = case.q, case._elements(case.q)
    ranks, tables = [], []
    for side in range(2):
        n = len(pairs[0][side])
        ranks.append({m: r for r, m in enumerate(modp.general_linear(n, q))})
        tables.append(groups.materialize(groups.GeneralLinear(n, q)).table.tolist())
    els = [tuple(rank[m] for rank, m in zip(ranks, pair)) for pair in pairs]
    (c, d) = tables
    return table_from_elements(els, lambda a, b: (c[a[0]][b[0]], d[a[1]][b[1]]))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_listed_case_tables_equal_the_per_product_reference(q):
    # the column [1;0] case at every q and diag(1,0) up to q = 5; diag(1,0)
    # at q = 5 (order 1600) looks its products up in the GL tables, since
    # modp.mul takes about 40 s over its 2,560,000 products
    cases = [finvect.rank_case(1, 2, 1, q)] + ([finvect.rank_case(2, 2, 1, q)] if q <= 5 else [])
    for case in cases:
        reference = _gl_lookup_case_table if case.order > 1000 else _reference_case_table
        got, ref = case.table(20000), reference(case)
        assert (got.table.dtype, got.table.shape) == (ref.table.dtype, ref.table.shape)
        assert got.table.tobytes() == ref.table.tobytes(), (q, case.case)
        assert got.n == case.order


@pytest.mark.parametrize("drop", [0, -1])
@pytest.mark.parametrize("listing", ["_column_elements", "_diag_elements"])
def test_a_listed_case_missing_an_element_is_not_a_group(listing, drop, monkeypatch):
    listed = getattr(finvect, listing)

    def dropped(q):
        els = listed(q)
        del els[drop]
        return els

    monkeypatch.setattr(finvect, listing, dropped)
    case = finvect.rank_case(*((1, 2) if listing == "_column_elements" else (2, 2)), 1, 3)
    with pytest.raises(GroupError, match="not closed"):
        case.table(20000)
