import pytest

from cdiag import fincat, groups

# S3 multiplication table over elements indexed by the lexicographic
# permutations of {0,1,2}; row i, column j holds i*j.
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1],
    [4, 5, 1, 0, 3, 2],
    [5, 4, 3, 2, 1, 0],
]


@pytest.fixture(scope="session")
def s3_category():
    return fincat.one_object_group(S3_TABLE, name="S3")


@pytest.fixture(scope="session")
def s2_category():
    return fincat.one_object_group([[0, 1], [1, 0]], name="S2")


@pytest.fixture(scope="session")
def c4_category():
    return fincat.one_object_group(groups.cyclic_table(4), name="C4")


def ladder_act(cat, alpha, mors) -> tuple:
    """The reference ladder action on index tuples: the automorphism tuple
    ``alpha`` = (alpha_0, ..., alpha_n) sends the morphisms ``mors`` =
    (f_1, ..., f_n) to (alpha_1 f_1 alpha_0^-1, ..., alpha_n f_n
    alpha_{n-1}^-1), one ``compose_idx`` at a time."""
    return tuple(cat.compose_idx(alpha[i + 1], cat.compose_idx(f, cat.inverse_idx(alpha[i])))
                 for i, f in enumerate(mors))
