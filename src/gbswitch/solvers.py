"""Switching-game solvers over +/-1 assignments.

The exact solver enumerates sign assignments of axes 0..m-2 with the first
coordinate of axis 0 pinned to +1 (a global sign flip of one axis never
changes the achievable value, so half the vertex set is redundant) and
closes the last axis analytically: for partial sums c, the optimal last
vector is sign(c) with value sum|c|. It meets in the middle (Horowitz and
Sahni): each prefix (signs of axes 0..m-3) contracts the board to an n x n
matrix M, and axis m-2 splits into halves whose partial sums H = S_hi @ M_hi
and L = S_lo @ M_lo are tabulated once by doubling trees, so c = H[hi] + L[lo]
costs about n operations per assignment. A block (boards x prefixes x high
halves x every low half, within max(2**_STACK_BITS * n, n**(m-1)) elements)
is laid out (n, high, low, prefix, board): the last axis outermost, so sum|c|
adds whole rows, and prefixes next to boards, so every pass runs over long
rows. Its values are read in index order (prefix, high, low), most
significant bit first, which is lexicographic witness order (-1 before +1);
a board moves to a later block's first argmax only if strictly greater, so
ties keep the smallest.

Integer widths come from the board's own bound, not from a fixed type.
Before the abs, every operation is an integer add or matmul whose true
result (a partial contraction, a partial sum of one, or twice one row of
one) has magnitude at most n**(m-1), so the board view, the prefix
matrices, the sign-sum tables and c live in the narrowest signed type that
holds +n**(m-1): int8 up to 127, int16 up to 32767, else int32
(``min_scalar_type(-n**(m-1))`` would be off by one: -128 fits int8, +128
does not). After it, sum|c| <= n**m is summed in the narrowest such type of
at least int16. The witness decode sums in int32 and
``exact_max_batch`` re-checks every witness in int64, so neither check
shares the narrowed arithmetic.

Sign convention everywhere: sign(0) = +1. The achieved value is unaffected
(a zero partial sum contributes nothing), but witnesses stay reproducible.
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, LengthMismatch
from .rng import mix, sign_draws
from .tensor import (
    DimSpec,
    SignTensor,
    SwitchAssignment,
    evaluate,
    make_assignment,
    partial_contraction,
    _STACK_BITS,
    _stack_rows,
    _validate_signs,
)

#: Refuse exact enumeration beyond 2**30 assignments unless overridden.
EXACT_BUDGET_BITS = 30


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


def sign_rows(nbits: int) -> np.ndarray:
    """The 2**nbits sign vectors (int8) in lexicographic order.

    Row k spells k in binary, most significant bit first, 0 as -1 and 1 as +1.
    """
    return _signs_at(np.arange(1 << nbits, dtype=np.int64), nbits)


def normal_form_boards(m: int, n: int) -> np.ndarray:
    """The int8 (2**F, n**m) stack of switching normal forms, F = n**m - m(n-1) - 1.

    A normal form is +1 on the m axis lines through the origin (entries with
    at most one nonzero index); its F free entries take the rows of
    ``sign_rows(F)`` in order. Switching x acts trivially only when every
    x^(a) is constant with product +1, so each class has 2**(m(n-1)+1)
    boards and holds exactly one normal form, which has the class's value.
    """
    return _normal_forms(m, n, 0, 1 << DimSpec(m, n).size - m * (n - 1) - 1)


def _normal_forms(m: int, n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of ``normal_form_boards(m, n)``: the free entries of form k are ``_signs_at(k, F)``."""
    free = (np.indices((n,) * m).reshape(m, -1) != 0).sum(axis=0) > 1
    rows = _signs_at(np.arange(start, stop, dtype=np.int64), int(free.sum()))
    boards = np.ones((len(rows), n ** m), dtype=np.int8)
    boards[:, free] = rows
    return boards


def _signs_at(idx, nbits: int) -> np.ndarray:
    """The sign rows (int8) of the lexicographic indices ``idx`` (an int gives one row), as in ``sign_rows``."""
    words = np.asarray(idx, dtype=">u8")
    bits = np.unpackbits(words.reshape(-1, 1).view(np.uint8), axis=1)[:, 64 - nbits:]
    return (bits.view(np.int8) * 2 - 1).reshape(*words.shape, nbits)


def _sign_sums(base: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(2**k, *base.shape): base + s @ rows for the k = len(rows) sign vectors s, lexicographic."""
    out = np.empty((1 << len(rows), *base.shape), dtype=base.dtype)
    out[0] = base - rows.sum(axis=0, dtype=base.dtype)  # a doubling tree from every sign -1: bit 2**i,
    for i, row in enumerate(2 * rows[::-1]):  # row k-1-i, fills entries 2**i.. from 0.. by adding 2 * row
        np.add(out[:1 << i], row, out=out[1 << i:2 << i])
    return out


def _prefix_matrices(view: np.ndarray, m: int, n: int, pbits: int, start: int, count_bits: int,
                     memo: list) -> np.ndarray:
    """The (n, n, P, B) contractions of an (n**m, B) board-minor stack by the 2**count_bits prefixes from ``start``.

    Axes left fixed by the varying last ``count_bits`` prefix bits contract
    once per sign setting (``memo[a]`` keeps the latest contraction through
    fixed axis a). Each later axis meets every partial result with its sign
    rows, and its sign index becomes the outermost prefix digit, so every
    pass runs over whole (prefix, board) rows; one transpose at the end puts
    the digits in lexicographic order.
    """
    word = start | 1 << pbits  # top bit: x0[0] = 1
    fixed = _signs_at(word, pbits + 1)
    cur, digits = view, []  # cur: (n**(m-a), digits of the varying axes before a, last outermost, B)
    for a in range(m - 2):
        vary = min(n, max(0, count_bits - n * (m - 3 - a)))  # varying bits on axis a
        if not vary:
            key = word >> pbits + 1 - (a + 1) * n  # the signs of axes 0..a
            if memo[a][0] == key:
                cur = memo[a][1]
                continue
        rows = cur.reshape(n, -1)
        sums = _sign_sums(fixed[a * n:(a + 1) * n - vary] @ rows[:n - vary], rows[n - vary:])
        cur = sums.reshape(1 << vary, n ** (m - 1 - a), -1).swapaxes(0, 1).reshape(n ** (m - 1 - a), -1)
        if vary:
            digits.append(1 << vary)
        else:
            memo[a] = key, cur
    order = (0, 1, *range(len(digits) + 1, 1, -1), len(digits) + 2)
    return cur.reshape(n, n, *digits[::-1], view.shape[1]).transpose(order).reshape(n, n, -1, view.shape[1])


def _exact_kernel(m: int, n: int, boards: np.ndarray, allow_large: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) int64 and first-maximum witnesses (B, m, n) int8 of a (B, n**m) stack, in board-minor blocks."""
    nbits = n * (m - 1) - 1
    if nbits > EXACT_BUDGET_BITS and not allow_large:
        raise BudgetExceeded(f"2**{nbits} assignments exceed the 2**{EXACT_BUDGET_BITS} budget of exact enumeration")
    if m == 1:
        return np.full(len(boards), n, dtype=np.int64), _sign_of(boards).reshape(-1, 1, n)
    if n ** m >= 2 ** 31:  # such a board has >= 2**56 assignments (m = 20, n = 3): no int64 run could end
        raise BudgetExceeded(f"n**m = {n}**{m} is 2**31 or more, beyond the exact kernel's int32 sums")
    # the widths of the module docstring: -1 - bound fits a signed type iff +bound does
    part = np.min_scalar_type(-1 - n ** (m - 1))
    total = np.promote_types(np.min_scalar_type(-1 - n ** m), np.int16)
    kbits = n - 1 if m == 2 else n  # free bits of axis m-2; the rest are prefix bits
    pbits, lbits = nbits - kbits, min(kbits // 2, _STACK_BITS)
    hbits = kbits - lbits
    pblock, hblock = max(0, min(pbits, _STACK_BITS - kbits)), min(hbits, max(0, _STACK_BITS - lbits))
    bblock = 1 << max(0, _STACK_BITS - nbits)
    best, index = np.full(len(boards), -1, dtype=np.int64), np.zeros(len(boards), dtype=np.int64)
    witnesses = np.empty((len(boards), m, n), dtype=np.int8)
    for b0 in range(0, len(boards), bblock):
        # (n**m, B), board-minor: every sum until the abs is a partial contraction within +-n**(m-1), in ``part``
        view = boards[b0:b0 + bblock].T.astype(part, order="C")
        width, memo = view.shape[1], [(-1, None)] * (m - 2)
        for p0 in range(0, 1 << pbits, 1 << pblock):
            rows = _prefix_matrices(view, m, n, pbits, p0, pblock, memo)  # (n, n, P, B): axis m-2 first
            zero = np.zeros_like(rows[0])
            lo = np.ascontiguousarray(_sign_sums(zero, rows[n - lbits:]).swapaxes(0, 1))  # (n, 2**lbits, P, B)
            mid = np.ascontiguousarray(_sign_sums(zero, rows[n - lbits - hblock:n - lbits]).swapaxes(0, 1))
            for h0 in range(0, 1 << hbits, 1 << hblock):
                # the high bits this block fixes, after the pinned row 0 (top bit) at m = 2
                head = _signs_at(h0 >> hblock | (m == 2) << (hbits - hblock), hbits - hblock + (m == 2))
                hi = mid + (head @ rows[:len(head)].reshape(len(head), zero.size)).reshape(zero.shape)[:, None]
                sums = hi[:, :, None] + lo[:, None]  # (n, 2**hblock, 2**lbits, P, B); sum|c| <= n**m fits ``total``
                values = np.abs(sums, out=sums).sum(axis=0, dtype=total).transpose(2, 0, 1, 3).reshape(-1, width)
                k = values.argmax(axis=0)
                if width > 1:  # boards that share a block have no other block
                    best[b0:b0 + bblock], index[b0:b0 + bblock] = values.max(axis=0), k
                elif values[k[0], 0] > best[b0]:  # strictly: earlier blocks keep ties
                    # k counts (prefix, high, low) from (p0, h0, 0): a block has one prefix or every high half
                    best[b0], index[b0] = values[k[0], 0], k[0] + ((p0 << kbits) | (h0 << lbits))
        partial = _signs_at(index[b0:b0 + bblock] | 1 << nbits, nbits + 1)  # top bit: x0[0] = 1
        c, cols = view, partial.T.astype(np.int32, order="C")
        for a in range(m - 1):
            c = (c.reshape(n, -1, width) * cols[a * n:(a + 1) * n, None]).sum(axis=0, dtype=np.int32)
        witnesses[b0:b0 + bblock] = np.concatenate((partial.reshape(-1, m - 1, n), _sign_of(c.T)[:, None]), axis=1)
    return best, witnesses


def exact_max(tensor: SignTensor, *, allow_large: bool = False) -> SolveResult:
    """Exact maximum of the switching form over all +/-1 assignments.

    Runs the split kernel (see the module docstring) on a one-board stack;
    refuses instances with n(m-1)-1 > EXACT_BUDGET_BITS unless
    ``allow_large`` is set. Partial sums use the narrowest signed type that
    holds +n**(m-1), which bounds every |c_i|, and sum|c| the narrowest of
    at least int16 that holds +n**m (see the module docstring); boards with
    n**m >= 2**31 are refused.
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
    step = 1 << max(0, _STACK_BITS + 1 - n * (m - 1))
    for b0 in range(0, len(boards), step):
        cur = boards[b0:b0 + step].T.astype(np.int64, order="C")  # (n**m, B), as in the kernel
        cols = witnesses[b0:b0 + step].transpose(1, 2, 0).astype(np.int64, order="C")
        for a in range(m):
            cur = (cur.reshape(n, -1, cur.shape[-1]) * cols[a, :, None]).sum(axis=0)
        if (cur.reshape(-1) != values[b0:b0 + step]).any() or (np.abs(witnesses[b0:b0 + step]) != 1).any():
            raise AssertionError(f"witness re-evaluation mismatch in boards {b0}..{b0 + cur.size - 1}")
    return values, witnesses


def value_census(m: int, n: int) -> dict[int, int]:
    """The number of +/-1 boards with n**m entries at each exact value, in ascending value order.

    Normal forms are scored in blocks of 2**_STACK_BITS, each count weighted by the class size 2**(m(n-1)+1).
    """
    free = DimSpec(m, n).size - m * (n - 1) - 1
    bits = free + n * (m - 1) - 1  # 2**free forms of 2**(n(m-1)-1) assignments: one solve's budget for all
    if bits > EXACT_BUDGET_BITS:
        raise BudgetExceeded(f"value_census({m}, {n}): 2**{bits} assignments exceed the 2**{EXACT_BUDGET_BITS} budget")
    hist = collections.Counter()
    for k0 in range(0, 1 << free, 1 << _STACK_BITS):
        boards = _normal_forms(m, n, k0, min(k0 + (1 << _STACK_BITS), 1 << free))
        values, counts = np.unique(exact_max_batch(m, n, boards)[0], return_counts=True)
        hist.update(dict(zip(values.tolist(), counts.tolist())))
    return {value: hist[value] << m * (n - 1) + 1 for value in sorted(hist)}


def majority_fix(tensor: SignTensor, partial) -> tuple[np.ndarray, int]:
    """Optimal last-axis vector for fixed +/-1 vectors on axes 0..m-2.

    Returns (sign(c), sum|c|) for the partial sums c; no other +/-1 choice
    of the last axis can do better.
    """
    vecs = [np.asarray(v) for v in partial]
    for v in vecs:
        _validate_signs(v)
    c = partial_contraction(tensor, tensor.dims.m - 1, vecs)
    return _sign_of(c), int(np.abs(c).sum())


def random_restart_greedy(tensor: SignTensor, restarts: int, seed: int) -> SolveResult:
    """Best of ``restarts`` random partial assignments closed by majority_fix.

    Restart r draws its m-1 sign vectors from the stream of
    ``generator(seed, r)``; the result is a deterministic function of
    (tensor, restarts, seed), and ties keep the earliest restart. Restarts
    run in stacks of ``tensor._stack_rows`` rows: one ``rng.sign_draws``
    call seeds and draws a stack, and each restart contracts the float64
    board with one BLAS gemv per axis, axis 0 first; a later stack wins
    only if strictly greater.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    m, n = tensor.dims.m, tensor.dims.n
    # Exact: every partial sum of a +/-1 board against +/-1 vectors is an
    # integer of magnitude <= n**m <= tensor.MAX_ENTRIES = 2**40 < 2**53, so
    # each float64 add and multiply is exact in any order, with or without FMA.
    board = tensor.view().astype(np.float64)
    block = _stack_rows(m, n)
    best_value = -1
    best_vectors = None
    for r0 in range(0, restarts, block):
        seeds = mix(seed, np.arange(r0, min(restarts, r0 + block), dtype=np.uint64))
        partial = sign_draws(seeds, m - 1, n)
        vecs, cur = partial.astype(np.float64), board.reshape(1, -1)
        for a in range(m - 1):  # a (1, n) @ (n, n**(m-1-a)) gemv per restart, not one gemm that BLAS threads
            cur = vecs[:, a, None] @ cur.reshape(len(cur), n, -1)
        c = cur.reshape(-1, n)  # one row at m = 1, where every restart is the board itself
        values = np.abs(c).sum(axis=1)
        k = int(values.argmax())
        if values[k] > best_value:
            best_value = int(values[k])
            best_vectors = np.concatenate((partial[k], _sign_of(c[k])[None]))
    return _checked_result(tensor, best_value, best_vectors, Method.RANDOM_RESTART, restarts)


def _contract_except(arr: np.ndarray, vecs: np.ndarray, axis: int) -> np.ndarray:
    """The (n,) contraction of each axis b != ``axis`` of an (n,)*k array with vecs[b]."""
    for v in vecs[:axis:-1]:
        arr = arr @ v
    for v in vecs[:axis]:
        arr = v @ arr.reshape(len(v), -1)
    return arr


def local_search(tensor: SignTensor, start: SwitchAssignment, max_sweeps: int = 10_000) -> SolveResult:
    """Best-improvement hill climbing over single switch flips.

    Each sweep scores every (axis, index) flip and applies the largest
    strictly improving one, ties broken by lowest (axis, index); stops when
    no flip improves or after ``max_sweeps`` flips. The value sequence is
    strictly increasing, so termination is guaranteed. Every axis's int64
    contraction c_a is kept current: flipping x_a[j] moves each other c_b
    by 2 x_a[j] (the new sign) times slice j of axis a contracted with the
    remaining vectors, O(m n**(m-1)) work per flip.
    """
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    value = evaluate(tensor, start)  # checks the start's dims before any contraction
    evaluations = 1
    m, n = tensor.dims.m, tensor.dims.n
    board = tensor.view().astype(np.int64)
    others = [[b for b in range(m) if b != a] for a in range(m)]
    vectors = np.array(start.vectors, dtype=np.int64)
    c = np.array([_contract_except(board, vectors, a) for a in range(m)])
    for _ in range(max_sweeps):
        gains = -2 * vectors * c
        evaluations += m * n
        a, j = divmod(int(gains.argmax()), n)  # the first maximum: lowest (axis, index)
        if gains[a, j] <= 0:
            break
        value += int(gains[a, j])
        vectors[a, j] *= -1
        piece, rest = np.take(board, j, axis=a), vectors[others[a]]  # axes others[a]
        for i, b in enumerate(others[a]):
            c[b] += 2 * vectors[a, j] * _contract_except(piece, rest, i)
    return _checked_result(tensor, value, vectors.astype(np.int8), Method.LOCAL_SEARCH, evaluations)


def classify_extremal(tensor: SignTensor) -> bool:
    """True iff the board is 2x2 and attains the minimal exact value 2.

    Exactly eight boards qualify: the 2x2 sign patterns with entry product
    -1. No board of any other size attains 2**(-1/2) * n**(3/2).
    """
    return (tensor.dims.m, tensor.dims.n) == (2, 2) and math.prod(tensor.entries.tolist()) == -1
