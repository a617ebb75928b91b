"""Small dense matrix arithmetic over a prime field F_p.

Matrices are tuples of row tuples with entries in [0, p).  A morphism
F^n -> F^m is an m x n matrix, so composition is plain matrix product.
Everything here is exact integer arithmetic; numpy is deliberately not
used so that matrices stay hashable.
"""

from __future__ import annotations

import itertools


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mul(a: tuple, b: tuple, p: int) -> tuple:
    """Product a*b mod p; a is r x k, b is k x c."""
    k, cols = len(b), len(b[0]) if b else 0
    if any(len(row) != k for row in a) or any(len(row) != cols for row in b):
        raise ValueError("matrix shapes do not match for a product")
    return tuple(
        tuple(sum(row[t] * b[t][j] for t in range(k)) % p for j in range(cols))
        for row in a
    )


def rank(a: tuple, p: int) -> int:
    rows = [list(r) for r in a]
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(rows[i][j] - f * rows[r][j]) % p for j in range(ncols)]
        r += 1
    return r


def inverse(a: tuple, p: int):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    if n == 0:
        return ()
    aug = [list(a[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if aug[i][c] % p), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(aug[i][j] - f * aug[r][j]) % p for j in range(2 * n)]
        r += 1
    return tuple(tuple(row[n:]) for row in aug)


def all_matrices(rows: int, cols: int, p: int):
    """All rows x cols matrices over F_p, lexicographic by flattened entries."""
    if rows == 0:
        yield ()
        return
    if cols == 0:
        yield tuple(() for _ in range(rows))
        return
    for flat in itertools.product(range(p), repeat=rows * cols):
        yield tuple(zip(*[iter(flat)] * cols))      # consecutive runs of cols entries


def general_linear(n: int, p: int) -> list:
    """All invertible n x n matrices over F_p, in enumeration order."""
    return [a for a in all_matrices(n, n, p) if rank(a, p) == n]


def primitive_root(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    for g in range(2, p):
        seen, x = set(), 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def gl_generators(n: int, p: int) -> list:
    """A small generating set of GL_n(F_p): transvections plus one scaling."""
    if n == 0:
        return []
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            m[i][j] = 1
            gens.append(tuple(tuple(r) for r in m))
    r = primitive_root(p)
    if r != 1:
        m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        m[0][0] = r
        gens.append(tuple(tuple(row) for row in m))
    return gens
