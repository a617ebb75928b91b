import random

import pytest

from cdiag import modp
from cdiag.fincat import CategoryError
from cdiag.finvect import (MatrixFq, direct_scan_stabilizer_order, glnq_order,
                           matrix_action, oracle_diff_vect, orbits_by_rank,
                           paper_stabilizers_dim_le2, vect_level0,
                           vect_skeleton)
from cdiag.groups import GroupError, are_isomorphic


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
    assert all(c.orbit_verified for c in cell.classes)
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


# ---------------------------------------------------------------------------
# The dimension <= 2 catalogue


def test_paper_cases_q2():
    d = {c.case: c.order for c in paper_stabilizers_dim_le2(2)}
    assert d["column [1;0]"] == 2
    assert d["diag(1,0) 2x2"] == 4
    assert d["unit 1x1"] == 1
    assert d["full-rank 2x2"] == 6
    assert d["rank-0 2x2"] == 36


@pytest.mark.parametrize("q,scan_limit", [(2, 100_000), (3, 100_000), (5, 250_000)])
def test_paper_case_orders_produced_by_direct_scan(q, scan_limit):
    col = direct_scan_stabilizer_order(((1,), (0,)), 1, 2, q, scan_limit)
    diag = direct_scan_stabilizer_order(((1, 0), (0, 0)), 2, 2, q, scan_limit)
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


def test_skeleton_unique_zero_dim_maps():
    sk = vect_skeleton(2, 3)
    for d in range(3):
        assert len(sk.hom_idx(sk.obj_index("0"), sk.obj_index(str(d)))) == 1
        assert len(sk.hom_idx(sk.obj_index(str(d)), sk.obj_index("0"))) == 1


# ---------------------------------------------------------------------------
# Oracle diff


@pytest.mark.parametrize("q", [2, 3])
def test_oracle_diff_small_q(q):
    rep = oracle_diff_vect(2, q)
    assert rep.ok, rep.mismatches
    assert rep.checked == 14


def test_oracle_diff_component_count_q2():
    rep = oracle_diff_vect(2, 2)
    assert rep.checked == sum(min(n, m) + 1 for n in range(3) for m in range(3))


def test_transpose_symmetry_direct():
    from cdiag import chains
    sk = vect_skeleton(2, 3)
    orbs = chains.orbits(sk, 1)
    def cell(n, m):
        return sorted((o.size, o.stabilizer.order) for o in orbs
                      if o.rep.object_ids == (str(n), str(m)))
    assert cell(1, 2) == cell(2, 1)
    assert cell(0, 2) == cell(2, 0)


def test_oracle_diff_maxdim1_q3_cell_orders():
    from cdiag import chains
    sk = vect_skeleton(1, 3)
    orbs = [o for o in chains.orbits(sk, 1) if o.rep.object_ids == ("1", "1")]
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
