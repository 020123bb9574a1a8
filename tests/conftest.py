"""Shared oracles and helpers.

The oracles here are deliberately dumb: direct index loops and full
enumeration, independent of the library's vectorized paths. The loop
oracles (ascent_runs, greedy_loop, local_search_loop, contraction_loop,
dual_coords_vector) are the heuristic solvers' one-start, one-restart and
one-vector loops: the stacked solvers must match them bit for bit.
sign_draws_loop is ``rng.sign_draws`` by one numpy-seeded PCG64 per seed.
lex_first_batch_m2 is ``exact_max_batch`` at m = 2 by brute force.
walsh_values is the exact value at n = 2 by a Walsh-Hadamard transform.
The oracle_* exponent formulas are the bounds and lp formulas written in p,
with an explicit p = inf branch each; the library writes them once in 1/p.
"""

import itertools
import math
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from gbswitch import (
    AscentResult,
    AscentTrace,
    DimSpec,
    LpPoint,
    SignTensor,
    dual_update,
    evaluate,
    evaluate_real,
    generator,
    majority_fix,
    make_assignment,
    make_tensor,
    partial_contraction,
)
from gbswitch.bounds import (
    INF,
    Exponent,
    InvalidExponent,
    RegionKind,
    RegionVerdict,
    _check_degree,
    as_exponent,
    km_constant,
)
from gbswitch.rng import sign_vector


def sign_draws_loop(seeds, count: int, n: int) -> np.ndarray:
    """(B, count, n) int8: ``count`` sign_vector calls on np.random.Generator(np.random.PCG64(seed)) per seed."""
    out = np.empty((len(seeds), count, n), dtype=np.int8)
    for b, seed in enumerate(np.asarray(seeds, dtype=np.uint64).tolist()):
        rng = np.random.Generator(np.random.PCG64(seed))
        for k in range(count):
            out[b, k] = sign_vector(rng, n)
    return out


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


def lex_first_batch_m2(boards) -> tuple[np.ndarray, np.ndarray]:
    """(values, witnesses) of a (B, n*n) stack of m = 2 boards by brute force, all boards at once.

    Scores every x with x[0] = +1 (itertools order, -1 before +1) against
    every board in int64, keeps each board's first maximum and closes the
    last axis with y = sign(c), sign(0) = +1.
    """
    boards = np.asarray(boards, dtype=np.int64)
    n = math.isqrt(boards.shape[1])
    xs = np.array([(1, *tail) for tail in itertools.product((-1, 1), repeat=n - 1)], dtype=np.int64)
    c = np.einsum("xi,bij->bxj", xs, boards.reshape(-1, n, n))  # (B, 2**(n-1), n)
    scores = np.abs(c).sum(axis=2)
    first = scores.argmax(axis=1)
    rows = np.arange(len(boards))
    y = np.where(c[rows, first] < 0, -1, 1)
    return scores[rows, first], np.stack((xs[first], y), axis=1).astype(np.int8)


def walsh_values(boards) -> np.ndarray:
    """Exact values (B,) of a (B, 2**m) stack of n = 2 boards: the largest |Walsh-Hadamard coefficient|.

    At n = 2 every switch vector is x_a = s_a (1, t_a), so the form is
    +/- sum_i f(i) (-1)^<b, i> with b_a = [t_a = -1]: one coefficient per b.
    """
    w = np.array(boards, dtype=np.int64)
    count, size = w.shape
    h = 1
    while h < size:  # one butterfly per index bit h: (u, v) -> (u + v, u - v)
        w = w.reshape(count, -1, 2, h)
        w = np.stack((w[:, :, 0] + w[:, :, 1], w[:, :, 0] - w[:, :, 1]), axis=2)
        h *= 2
    return np.abs(w.reshape(count, size)).max(axis=1)


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


def ascent_runs(tensor: SignTensor, p, *, starts=8, sweeps_max=1000, tol=1e-10, seed=0):
    """Each start of alternating_max run on its own, in start order (AscentResult per start).

    The per-start loop: one partial_contraction and one dual_update per
    axis per sweep, a start stopping at its own convergence sweep.
    """
    pf = math.inf if p == math.inf else float(p)
    m, n = tensor.dims.m, tensor.dims.n
    runs = []
    for s in range(starts):
        rng = generator(seed, s)
        scale = 1.0 if math.isinf(pf) else n ** (-1.0 / pf)
        vecs = [sign_vector(rng, n).astype(np.float64) * scale for _ in range(m)]
        prev = evaluate_real(tensor, vecs)
        values = []
        converged = False
        value = prev
        for _ in range(sweeps_max):
            for k in range(m):
                c = partial_contraction(tensor, k, [vecs[j] for j in range(m) if j != k])
                point, value = dual_update(c, p)
                vecs[k] = point.coords
            values.append(value)
            if value - prev <= tol * max(abs(value), abs(prev), 1e-12):
                converged = True
                break
            prev = value
        trace = AscentTrace(values=tuple(values), converged=converged, sweeps=len(values))
        runs.append(AscentResult(value=value, points=tuple(LpPoint(pf, v) for v in vecs), trace=trace))
    return runs


def best_run(runs):
    """The earliest of the runs with the largest value."""
    best = None
    for run in runs:
        if best is None or run.value > best.value:
            best = run
    return best


def alternating_max_loop(tensor: SignTensor, p, *, starts=8, sweeps_max=1000, tol=1e-10, seed=0):
    """alternating_max by the per-start loop."""
    return best_run(ascent_runs(tensor, p, starts=starts, sweeps_max=sweeps_max, tol=tol, seed=seed))


def greedy_loop(tensor: SignTensor, restarts: int, seed: int):
    """(value, (m, n) int8 witness, index of the first best restart) of random_restart_greedy.

    One majority_fix per restart, the earliest restart keeping a tie.
    """
    m, n = tensor.dims.m, tensor.dims.n
    best_value, best_vectors, best_r = -1, None, None
    for r in range(restarts):
        rng = generator(seed, r)
        partial = [sign_vector(rng, n) for _ in range(m - 1)]
        last, value = majority_fix(tensor, partial)
        if value > best_value:
            best_value, best_vectors, best_r = value, partial + [last], r
    return best_value, np.array(best_vectors, dtype=np.int8).reshape(m, n), best_r


def local_search_loop(tensor: SignTensor, start, max_sweeps: int = 10_000):
    """(value, (m, n) int8 witness, evaluations) of local_search, one partial_contraction per axis and sweep."""
    m, n = tensor.dims.m, tensor.dims.n
    vectors = np.array(start.vectors, dtype=np.int64)
    value = evaluate(tensor, start)
    evaluations = 1
    for _ in range(max_sweeps):
        best_gain = 0
        best_pos = None
        for a in range(m):
            others = [vectors[j] for j in range(m) if j != a]
            c = partial_contraction(tensor, a, others)
            gains = -2 * vectors[a] * c
            evaluations += n
            j = int(gains.argmax())
            if int(gains[j]) > best_gain:
                best_gain = int(gains[j])
                best_pos = (a, j)
        if best_pos is None:
            break
        vectors[best_pos[0], best_pos[1]] *= -1
        value += best_gain
    return value, vectors.astype(np.int8), evaluations


def contraction_loop(tensor: SignTensor, axis: int, vectors):
    """partial_contraction by one matmul per vector on the axis-moved, re-cast board."""
    vecs = [np.asarray(v) for v in vectors]
    dtype = np.int64 if all(np.issubdtype(v.dtype, np.integer) for v in vecs) else np.float64
    cur = np.moveaxis(tensor.view(), axis, 0).astype(dtype)
    for v in reversed(vecs):
        cur = cur @ v.astype(dtype)
    return cur


def dual_coords_vector(c: np.ndarray, pf: float):
    """(coords, value) of dual_update for one float64 vector, by the one-vector formulas."""

    def norm(v, p):
        a = np.abs(v)
        if not a.any():
            return 0.0
        if math.isinf(p):
            return float(a.max())
        top = float(a.max())
        return top * float(((a / top) ** p).sum() ** (1.0 / p))

    n = c.size
    if not c.any():
        basis = np.zeros(n)
        basis[0] = 1.0
        return basis, 0.0
    if math.isinf(pf):
        return np.where(c < 0, -1.0, 1.0), float(np.abs(c).sum())
    if pf == 1.0:
        j = int(np.abs(c).argmax())
        x = np.zeros(n)
        x[j] = 1.0 if c[j] >= 0 else -1.0
        return x, float(abs(c[j]))
    q = pf / (pf - 1.0)
    value = norm(c, q)
    x = np.where(c < 0, -1.0, 1.0) * (np.abs(c) / value) ** (q - 1.0)
    size = norm(x, pf)
    if size > 0:
        x = x / size
    return x, value


# --- exponent formulas in p, with their p = inf branches ----------------------


def _unimodular_threshold(m: int) -> Fraction:
    return Fraction(2 * m, m + 1)


def oracle_hl_exponent(m: int, p: Exponent) -> Fraction:
    _check_degree(m, 2)
    pc = as_exponent(p)
    if pc == INF:
        return Fraction(2 * m, m + 1)
    if pc <= m:
        raise InvalidExponent(f"hl_exponent requires p > m, got p={pc}, m={m}")
    if pc <= 2 * m:
        return pc / (pc - m)
    return 2 * m * pc / (m * pc + pc - 2 * m)


def oracle_ksz_exponent(m: int, p: Exponent) -> Fraction:
    _check_degree(m, 1)
    pc = as_exponent(p)
    if pc == INF:
        return Fraction(m + 1, 2)
    if pc < 1:
        raise InvalidExponent(f"ksz_exponent requires p >= 1, got {pc}")
    first = Fraction(1, 2) + m * (Fraction(1, 2) - 1 / pc)
    second = 1 - 1 / pc
    return max(first, second)


def oracle_unimodular_sharp_exponent(m: int, p: Exponent) -> RegionVerdict:
    _check_degree(m, 2)
    pc = as_exponent(p)
    if pc == INF:
        return RegionVerdict(RegionKind.ADMISSIBLE, sharp_exponent=Fraction(2 * m, m + 1))
    if pc <= 1:
        raise InvalidExponent(f"unimodular_sharp_exponent requires p > 1, got {pc}")
    if pc >= 2:
        sharp = 2 * m * pc / (m * pc + pc - 2 * m)
        return RegionVerdict(RegionKind.ADMISSIBLE, sharp_exponent=sharp)
    lower = m * pc / (pc - 1)
    if pc > _unimodular_threshold(m):
        upper = 2 * m * pc / (m * pc + pc - 2 * m)
        return RegionVerdict(RegionKind.UNKNOWN, interval=(lower, upper))
    return RegionVerdict(RegionKind.UNKNOWN, interval=(lower, INF))


def oracle_blowup_exponent(m: int, p: Exponent, r: Exponent) -> Fraction:
    _check_degree(m, 1)
    rc = as_exponent(r, name="r")
    pc = as_exponent(p)
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"blow-up exponent requires finite r > 0, got {rc}")
    if pc != INF and pc <= _unimodular_threshold(m):
        raise InvalidExponent(f"blow-up exponent requires p > 2m/(m+1) = {_unimodular_threshold(m)}, got {pc}")
    if pc == INF:
        value = (2 * m - (m + 1) * rc) / (2 * rc)
    else:
        value = (2 * m * rc + 2 * m * pc - m * pc * rc - pc * rc) / (2 * pc * rc)
    return max(value, Fraction(0))


def oracle_blowup_lower_exponent(m: int, p: Exponent, r: Exponent) -> Fraction:
    _check_degree(m, 1)
    rc = as_exponent(r, name="r")
    pc = as_exponent(p)
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"blow-up exponent requires finite r > 0, got {rc}")
    if pc != INF and pc <= _unimodular_threshold(m):
        raise InvalidExponent(f"blow-up exponent requires p > 2m/(m+1) = {_unimodular_threshold(m)}, got {pc}")
    if pc == INF:
        value = Fraction(m, 1) / rc - 1
    else:
        value = (m * pc + rc - pc * rc) / (pc * rc)
    return max(value, Fraction(0))


def oracle_conjecture_exponent(m: int, p: Exponent, r: Optional[Exponent] = None):
    _check_degree(m, 2)
    pc = as_exponent(p)
    if r is None:
        if pc == INF:
            return Fraction(2 * m, m + 1)
        if pc < 1:
            raise InvalidExponent(f"conjectured exponent requires p >= 1, got {pc}")
        if pc >= 2:
            return 2 * m * pc / (m * pc + pc - 2 * m)
        if pc == 1:
            return INF
        return m * pc / (pc - 1)
    rc = as_exponent(r, name="r")
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"r must be finite and > 0, got {rc}")
    if pc == INF or pc >= 2:
        if pc == INF:
            return max((2 * m - (m + 1) * rc) / (2 * rc), Fraction(0))
        return max((2 * m * rc + 2 * m * pc - m * pc * rc - pc * rc) / (2 * pc * rc), Fraction(0))
    if pc <= 1:
        raise InvalidExponent(f"conjectured blow-up requires p > 1, got {pc}")
    return max((m * pc + rc - pc * rc) / (pc * rc), Fraction(0))


def oracle_g_lower_bound_formula(m: int, n: int, p) -> float:
    _check_degree(m, 1)
    pc = as_exponent(p)
    threshold = Fraction(2 * m, m + 1)
    if pc == INF:
        expo = Fraction(m + 1, 2)
    else:
        if pc <= threshold:
            raise InvalidExponent(f"lower bound requires p > 2m/(m+1) = {threshold}, got {pc}")
        expo = (m * pc + pc - 2 * m) / (2 * pc)
    return float(n) ** float(expo) / km_constant(m)


def oracle_weak_l1_norm(n: int, p) -> float:
    pc = as_exponent(p)
    if pc == INF:
        return 1.0
    if pc <= 1:
        raise InvalidExponent(f"weak_l1_norm requires p > 1, got {pc}")
    return float(n) ** float(1 / pc)
