"""Shared oracles and helpers.

The oracles here are deliberately dumb: direct index loops and full
enumeration, independent of the library's vectorized paths.
"""

import itertools

import numpy as np
import pytest

from gbswitch import DimSpec, SignTensor, evaluate, make_assignment, make_tensor


def loop_form_value(tensor: SignTensor, vectors) -> float:
    """m-fold sum by explicit index loops (no numpy contraction)."""
    m, n = tensor.dims.m, tensor.dims.n
    flat = tensor.entries
    total = 0.0
    for index in itertools.product(range(n), repeat=m):
        pos = 0
        for i in index:
            pos = pos * n + i
        term = float(flat[pos])
        for k, i in enumerate(index):
            term *= float(vectors[k][i])
        total += term
    return total


def brute_force_max(tensor: SignTensor) -> int:
    """Exact maximum by enumerating all 2**(m*n) sign assignments."""
    m, n = tensor.dims.m, tensor.dims.n
    best = None
    for bits in itertools.product((-1, 1), repeat=m * n):
        vecs = np.array(bits, dtype=np.int8).reshape(m, n)
        v = evaluate(tensor, make_assignment(tensor.dims, vecs))
        best = v if best is None else max(best, v)
    return best


def lex_first_exact(tensor: SignTensor):
    """(value, vectors) of the first maximum in lexicographic enumeration order.

    Walks every assignment of axes 0..m-2 with axis 0's first coordinate
    pinned to +1, -1 before +1 in each coordinate; closes the last axis with
    sign(c), sign(0) = +1, computing c by explicit index loops; keeps the
    first maximum seen.
    """
    m, n = tensor.dims.m, tensor.dims.n
    flat = tensor.entries
    best_value, best_vectors = -1, None
    for bits in itertools.product((-1, 1), repeat=n * (m - 1) - 1):
        partial = [((1,) + bits)[a * n:(a + 1) * n] for a in range(m - 1)]
        c = [0] * n
        for index in itertools.product(range(n), repeat=m):
            pos = 0
            for i in index:
                pos = pos * n + i
            term = int(flat[pos])
            for k in range(m - 1):
                term *= partial[k][index[k]]
            c[index[-1]] += term
        value = sum(abs(ci) for ci in c)
        if value > best_value:
            best_value = value
            best_vectors = [list(v) for v in partial] + [[-1 if ci < 0 else 1 for ci in c]]
    return best_value, best_vectors


def lex_values(tensor: SignTensor):
    """All values sum|c| in lex_first_exact's order, by full-matrix contraction.

    Returns (values, rows), where rows(i) gives the pinned partial vectors
    (one flat row) of enumeration index i.
    """
    m, n = tensor.dims.m, tensor.dims.n
    nbits = n * (m - 1) - 1

    def rows(idx):
        bits = ((np.atleast_1d(idx)[:, None] >> np.arange(nbits)[::-1]) & 1) * 2 - 1
        return np.hstack([np.ones((bits.shape[0], 1), dtype=np.int64), bits])

    values = []
    for start in range(0, 1 << nbits, 1 << 12):
        block = rows(np.arange(start, min(start + (1 << 12), 1 << nbits)))
        c = np.einsum("bi,i...->b...", block[:, :n], tensor.view().astype(np.int64))
        for a in range(1, m - 1):
            c = np.einsum("bi,bi...->b...", block[:, a * n:(a + 1) * n], c)
        values.append(np.abs(c).sum(axis=1))
    return np.concatenate(values), rows


def board_from_code(n: int, code: int) -> SignTensor:
    """The code-th 2-axis sign board, bit j of code driving flat entry j."""
    entries = [1 if (code >> j) & 1 else -1 for j in range(n * n)]
    return make_tensor(DimSpec(2, n), entries)


def all_boards(n: int):
    for code in range(1 << (n * n)):
        yield board_from_code(n, code)


def all_sign_vectors(n: int) -> np.ndarray:
    """All 2**n sign vectors of length n, one per row."""
    idx = np.arange(1 << n)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.int64) * 2 - 1


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
