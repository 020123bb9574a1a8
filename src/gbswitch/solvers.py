"""Switching-game solvers over +/-1 assignments.

The exact solver enumerates sign assignments of axes 0..m-2 with the first
coordinate of axis 0 pinned to +1 (a global sign flip of one axis never
changes the achievable value, so half the vertex set is redundant) and
closes the last axis analytically: for partial sums c, the optimal last
vector is sign(c) with value sum|c|. It meets in the middle (Horowitz and
Sahni): each prefix (signs of axes 0..m-3) contracts the board to an n x n
matrix M, and axis m-2 splits into halves whose partial sums
H = S_hi @ M_hi and L = S_lo @ M_lo are tabulated once, so c = H[hi] + L[lo]
costs about n operations per assignment. Boards are the leading axis: a
block is 2**max(0, _CHUNK_BITS + 1 - n(m-1)) boards x prefixes x high
halves x every low half, within max(2**_CHUNK_BITS * n, n**(m-1)) elements.
Index order (prefix, high, low), most significant bit first, is
lexicographic witness order (-1 before +1); a board moves to a later
block's first argmax only if strictly greater, so ties keep the smallest.

Sign convention everywhere: sign(0) = +1. The achieved value is unaffected
(a zero partial sum contributes nothing), but witnesses stay reproducible.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, LengthMismatch, NonUnimodularEntry
from .rng import mix, sign_draws
from .tensor import (
    DimSpec,
    SignTensor,
    SwitchAssignment,
    evaluate,
    make_assignment,
    partial_contraction,
    _contract,
    _stack_rows,
    _validate_signs,
)

#: Refuse exact enumeration beyond 2**30 assignments unless overridden.
EXACT_BUDGET_BITS = 30

#: The exact kernel scores about 2**_CHUNK_BITS assignments per block.
_CHUNK_BITS = 14


class Method(enum.Enum):
    EXACT = "exact"
    LOCAL_SEARCH = "local-search"
    RANDOM_RESTART = "random-restart"


@dataclass(frozen=True)
class SolveResult:
    """Achieved value with its witness; the witness re-evaluates to the value."""

    value: int
    witness: SwitchAssignment
    method: Method
    evaluations: int


def _checked_result(tensor: SignTensor, value: int, vectors, method: Method, evaluations: int) -> SolveResult:
    witness = make_assignment(tensor.dims, vectors)
    achieved = evaluate(tensor, witness)
    if achieved != value:
        raise AssertionError(f"witness re-evaluation mismatch: {achieved} != {value}")
    return SolveResult(value=value, witness=witness, method=method, evaluations=evaluations)


def _sign_of(c: np.ndarray) -> np.ndarray:
    return np.where(c < 0, -1, 1).astype(np.int8)


def sign_rows(nbits: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 of the 2**nbits sign vectors (int8) in lexicographic order.

    Row k spells k in binary, most significant bit first, 0 as -1 and 1 as +1.
    Tables of at most 2**_CHUNK_BITS rows are cached read-only.
    """
    if nbits <= _CHUNK_BITS:
        return _sign_table(nbits)[start:stop]
    return _signs_at(np.arange(start, 1 << nbits if stop is None else stop, dtype=np.int64), nbits)


def _signs_at(idx: np.ndarray, nbits: int) -> np.ndarray:
    """The sign rows (int8) of the lexicographic indices ``idx``, as in ``sign_rows``."""
    return ((idx[:, None] >> np.arange(nbits - 1, -1, -1)) & 1).astype(np.int8) * 2 - 1


@functools.lru_cache(maxsize=_CHUNK_BITS + 1)
def _sign_table(nbits: int) -> np.ndarray:
    table = _signs_at(np.arange(1 << nbits), nbits)
    table.setflags(write=False)
    return table


def _prefix_matrices(view: np.ndarray, m: int, n: int, pbits: int, start: int, count_bits: int) -> np.ndarray:
    """The (B, P, n, n) contractions of B flat boards by the 2**count_bits prefixes from ``start``.

    Axes left fixed by the varying last ``count_bits`` prefix bits contract
    once; each later axis meets every partial result with its sign rows.
    """
    fixed = np.concatenate((np.ones(1, dtype=np.int8), sign_rows(pbits, start, start + 1)[0]))
    cur = view.reshape(len(view), n, -1)
    for a in range(m - 2):
        vary = min(n, max(0, count_bits - n * (m - 3 - a)))  # varying bits on axis a
        rows = np.repeat(fixed[None, a * n:(a + 1) * n], 1 << vary, axis=0)
        rows[:, n - vary:] = sign_rows(vary)
        cur = (rows @ cur).reshape(len(view), -1, n, cur.shape[-1] // n)
    return cur.reshape(len(view), -1, n, n)


def _exact_kernel(m: int, n: int, boards: np.ndarray, allow_large: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) int64 and first-maximum witnesses (B, m, n) int8 of a (B, n**m) stack."""
    nbits = n * (m - 1) - 1
    if nbits > EXACT_BUDGET_BITS and not allow_large:
        raise BudgetExceeded(f"2**{nbits} assignments exceed the 2**{EXACT_BUDGET_BITS} budget; "
                             "pass allow_large=True to force")
    if m == 1:
        return np.full(len(boards), n, dtype=np.int64), _sign_of(boards).reshape(-1, 1, n)
    dtype = np.int32 if n ** m < 2 ** 31 else np.int64
    kbits = n - 1 if m == 2 else n  # free bits of axis m-2; the rest are prefix bits
    pbits, lbits = nbits - kbits, min(kbits // 2, _CHUNK_BITS)
    hbits = kbits - lbits
    pblock, hblock = max(0, min(pbits, _CHUNK_BITS - kbits)), min(hbits, max(0, _CHUNK_BITS - lbits))
    bblock, s_lo = 1 << max(0, _CHUNK_BITS - nbits), sign_rows(lbits)
    best, index = np.full(len(boards), -1, dtype=np.int64), np.zeros(len(boards), dtype=np.int64)
    witnesses = np.empty((len(boards), m, n), dtype=np.int8)
    for b0 in range(0, len(boards), bblock):
        view = boards[b0:b0 + bblock].astype(dtype)
        for p0 in range(0, 1 << pbits, 1 << pblock):
            mats = _prefix_matrices(view, m, n, pbits, p0, pblock)
            base = mats[:, :, :n - kbits].sum(axis=2, keepdims=True, dtype=dtype)  # pinned row 0 at m = 2
            free = mats[:, :, n - kbits:]
            lo = np.swapaxes(free[:, :, hbits:], 2, 3) @ s_lo.T  # (B, P, n, 2**lbits), contiguous
            for h0 in range(0, 1 << hbits, 1 << hblock):
                s_hi = sign_rows(hbits, h0, h0 + (1 << hblock))
                hi = s_hi @ free[:, :, :hbits] + base
                sums = hi[..., None] + lo[:, :, None]
                values = np.abs(sums, out=sums).sum(axis=3, dtype=dtype).reshape(len(view), -1)
                k = values.argmax(axis=1)
                if len(view) > 1:  # boards that share a block have no other block
                    best[b0:b0 + bblock], index[b0:b0 + bblock] = values.max(axis=1), k
                elif values.flat[k[0]] > best[b0]:  # strictly: earlier blocks keep ties
                    # k counts (prefix, high, low) from (p0, h0, 0): a block has one prefix or every high half
                    best[b0], index[b0] = values.flat[k[0]], k[0] + ((p0 << kbits) | (h0 << lbits))
        partial = _signs_at(index[b0:b0 + bblock] | 1 << nbits, nbits + 1).reshape(-1, m - 1, n)  # top bit: x0[0] = 1
        c = view
        for a in range(m - 1):
            c = partial[:, a, None] @ c.reshape(len(c), n, -1)
        witnesses[b0:b0 + bblock] = np.concatenate((partial, _sign_of(c).reshape(-1, 1, n)), axis=1)
    return best, witnesses


def exact_max(tensor: SignTensor, *, allow_large: bool = False) -> SolveResult:
    """Exact maximum of the switching form over all +/-1 assignments.

    Runs the split kernel (see the module docstring) on a one-board stack;
    refuses instances with n(m-1)-1 > EXACT_BUDGET_BITS unless
    ``allow_large`` is set. Sums are int32 when n**m < 2**31, else int64;
    both are exact, as every |c_i| <= n**(m-1) and every sum|c| <= n**m.
    """
    m, n = tensor.dims.m, tensor.dims.n
    values, witnesses = _exact_kernel(m, n, tensor.entries[None], allow_large)
    return _checked_result(tensor, int(values[0]), witnesses[0], Method.EXACT, 1 << max(0, n * (m - 1) - 1))


def exact_max_batch(m: int, n: int, entries) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) int64 and witnesses (B, m, n) int8 of a (B, n**m) +/-1 stack.

    Row i matches ``exact_max`` on the board with flat entries ``entries[i]``,
    witness bytes included. Input errors are raised before any kernel array
    exists; every witness is re-evaluated in int64 (AssertionError if not).
    """
    boards = np.asarray(entries)
    if boards.ndim != 2 or boards.shape[1] != DimSpec(m, n).size:
        raise LengthMismatch(f"expected rows of n**m = {n ** m} entries, got shape {boards.shape}")
    if not len(boards):
        raise ValueError("exact_max_batch needs at least one board")
    _validate_signs(boards)
    values, witnesses = _exact_kernel(m, n, boards)
    step = 1 << max(0, _CHUNK_BITS + 1 - n * (m - 1))
    for b0 in range(0, len(boards), step):
        cur = boards[b0:b0 + step].astype(np.int64)
        for a in range(m):
            cur = witnesses[b0:b0 + step, a, None].astype(np.int64) @ cur.reshape(len(cur), n, -1)
        if (cur.reshape(-1) != values[b0:b0 + step]).any() or (np.abs(witnesses[b0:b0 + step]) != 1).any():
            raise AssertionError(f"witness re-evaluation mismatch in boards {b0}..{b0 + len(cur) - 1}")
    return values, witnesses


def majority_fix(tensor: SignTensor, partial) -> tuple[np.ndarray, int]:
    """Optimal last-axis vector for fixed +/-1 vectors on axes 0..m-2.

    Returns (sign(c), sum|c|) for the partial sums c; no other +/-1 choice
    of the last axis can do better.
    """
    vecs = [np.asarray(v) for v in partial]
    for v in vecs:
        if not np.isin(v, (-1, 1)).all():
            raise NonUnimodularEntry("majority_fix requires +/-1 partial vectors")
    c = partial_contraction(tensor, tensor.dims.m - 1, vecs)
    return _sign_of(c), int(np.abs(c).sum())


def random_restart_greedy(tensor: SignTensor, restarts: int, seed: int) -> SolveResult:
    """Best of ``restarts`` random partial assignments closed by majority_fix.

    Restart r draws its m-1 sign vectors from the stream of
    ``generator(seed, r)``; the result is a deterministic function of
    (tensor, restarts, seed), and ties keep the earliest restart. Restarts
    run in stacks of ``tensor._stack_rows`` rows: one ``rng.sign_draws``
    call seeds and draws a stack, which is contracted in int64; a later
    stack wins only if strictly greater.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    m, n = tensor.dims.m, tensor.dims.n
    moved = np.moveaxis(tensor.view().astype(np.int64), m - 1, 0)
    block = _stack_rows(m, n)
    best_value = -1
    best_vectors = None
    for r0 in range(0, restarts, block):
        seeds = mix(seed, np.arange(r0, min(restarts, r0 + block), dtype=np.uint64))
        partial = sign_draws(seeds, m - 1, n).astype(np.int64)
        c = _contract(moved, partial)
        values = np.abs(c).sum(axis=1)
        k = int(values.argmax())
        if values[k] > best_value:
            best_value = int(values[k])
            best_vectors = np.concatenate((partial[k], _sign_of(c[k])[None]))
    return _checked_result(tensor, best_value, best_vectors, Method.RANDOM_RESTART, restarts)


def local_search(tensor: SignTensor, start: SwitchAssignment, max_sweeps: int = 10_000) -> SolveResult:
    """Best-improvement hill climbing over single switch flips.

    Each sweep scores every (axis, index) flip and applies the largest
    strictly improving one, ties broken by lowest (axis, index); stops when
    no flip improves or after ``max_sweeps`` flips. The value sequence is
    strictly increasing, so termination is guaranteed.
    """
    m, n = tensor.dims.m, tensor.dims.n
    typed = tensor.view().astype(np.int64)
    moved = [np.moveaxis(typed, a, 0) for a in range(m)]
    others = [[j for j in range(m) if j != a] for a in range(m)]
    vectors = np.array(start.vectors, dtype=np.int64)
    value = evaluate(tensor, start)
    evaluations = 1
    for _ in range(max_sweeps):
        best_gain = 0
        best_pos = None
        for a in range(m):
            c = _contract(moved[a], vectors[None, others[a]])[0]
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
    return _checked_result(tensor, value, vectors.astype(np.int8), Method.LOCAL_SEARCH, evaluations)


# The eight 2x2 boards whose exact value is 2**(-1/2) * n**(3/2) = 2: the
# sign patterns with entry product -1 (row-major).
_EXTREMAL_FLAT = (
    (1, 1, 1, -1), (-1, -1, -1, 1),
    (1, 1, -1, 1), (-1, -1, 1, -1),
    (1, -1, 1, 1), (-1, 1, -1, -1),
    (-1, 1, 1, 1), (1, -1, -1, -1),
)


def classify_extremal(tensor: SignTensor) -> bool:
    """True iff the board is 2x2 and attains the minimal exact value 2.

    Exactly eight boards qualify (each equal to one listed pattern or its
    negative); no board of any other size attains 2**(-1/2) * n**(3/2).
    """
    if tensor.dims.m != 2 or tensor.dims.n != 2:
        return False
    return tuple(int(e) for e in tensor.entries) in _EXTREMAL_FLAT
