"""Switching-game solvers over +/-1 assignments.

The exact solver enumerates sign assignments of axes 0..m-2 and closes the
last axis analytically: for partial sums c, the optimal last vector is
sign(c) with value sum|c|. Flipping any one axis a <= m-2 negates every c
and keeps sum|c|, so the value and witness are the first maximum, in
lexicographic order (-1 before +1), over the 2**(n(m-1)-1) assignments with
x0[0] = +1. The kernel visits only the 2**((n-1)(m-1)) of them that also
have x_a[0] = -1 on each axis 1 <= a <= m-2: flipping such an x_a keeps
x0[0], and where x_a[0] = +1 it gives a lexicographically smaller
assignment of the same value (x_a[0] is the first coordinate that changes),
so the first maximum has x_a[0] = -1. Dropping the pinned coordinates keeps
the order of the rest: the enumeration index holds n-1 bits per axis, and
``_pinned_words`` spells it back into sign words.

The kernel meets in the middle (Horowitz and Sahni): each prefix (signs of
axes 0..m-3) contracts the board to an n x n matrix M, and the free
coordinates of axis m-2 split into halves whose partial sums H = S_hi @ M_hi
(with the pinned row 0) and L = S_lo @ M_lo are tabulated once per prefix
block by doubling trees, so c = H[hi] + L[lo] costs about n operations per
assignment. Blocks are sized by ``rng._block_bits``: a block (boards x
prefixes x high halves x every low half) holds the largest power of two of
boards x assignments whose c, n integers each, fits ``rng.BLOCK_BYTES``, and
no more boards than fit it at 4 bytes per entry, the widest board view.
Its blocks slice the one H table of their prefix block; only past the
default exact budget (from n = 32 at m = 2, n = 30 at m = 3) would H outgrow
the budget, and it is then built in pieces, each from its own head of high
bits. A block is laid out (n, high, low, prefix, board): the last axis
outermost, so sum|c| adds whole rows, and prefixes next to boards, so every
pass runs over long rows. Its values are read in index order (prefix, high,
low), most significant bit first, which is lexicographic witness order (-1
before +1); a board moves to a later block's first argmax only if strictly
greater, so ties keep the smallest.

Integer widths come from the board's own bound, not from a fixed type.
Before the abs, every operation is an integer add or matmul whose true
result (a partial contraction, a partial sum of one, or twice one row of
one) has magnitude at most n**(m-1), so the board view, the prefix
matrices, the sign-sum tables and c live in the narrowest signed type that
holds +n**(m-1): int8 up to 127, int16 up to 32767, else int32
(``min_scalar_type(-n**(m-1))`` would be off by one: -128 fits int8, +128
does not). After it, |c| is summed in groups of g = max // n**(m-1) rows in
the unsigned type of the same width, so that a group's sum fits, and the
group sums in the narrowest unsigned type that holds n**m (``_abs_sum``).
The kernel returns values and the sign words of axes 0..m-2; ``_witnesses``
decodes each word once, closes axis m-1 by sign(c) and proves in int64, off
the narrowed arithmetic, that sum|c|, the form there, is the value.

Sign convention everywhere: sign(0) = +1. The achieved value is unaffected
(a zero partial sum contributes nothing), but witnesses stay reproducible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, LengthMismatch
from .rng import _block_bits, mix, sign_draws
from .tensor import (
    DimSpec,
    SignTensor,
    SwitchAssignment,
    evaluate,
    make_assignment,
    partial_contraction,
    _validate_signs,
)

#: Refuse exact enumeration beyond 2**30 assignments unless overridden.
EXACT_BUDGET_BITS = 30


def _certified_bits(m: int, n: int) -> int:
    """n(m-1)-1: an exact value is certified over the 2**this assignments with x0[0] = +1 (at m = 1, -1: one)."""
    return n * (m - 1) - 1


def exact_refusal(m: int, n: int, allow_large: bool = False) -> str | None:
    """Why the exact kernel refuses (m, n) boards, or None if it runs them; reads EXACT_BUDGET_BITS at each call."""
    bits = _certified_bits(m, n)
    if bits > EXACT_BUDGET_BITS and not allow_large:
        return f"2**{bits} assignments exceed the 2**{EXACT_BUDGET_BITS} budget of exact enumeration"
    if m > 1 and n ** m >= 2 ** 31:  # such a board has >= 2**56 assignments (m = 20, n = 3): no int64 run could end
        return f"n**m = {n}**{m} is 2**31 or more, beyond the exact kernel's int32 sums"
    return None


class Method(enum.Enum):
    EXACT = "exact"
    LOCAL_SEARCH = "local-search"
    RANDOM_RESTART = "random-restart"


@dataclass(frozen=True)
class SolveResult:
    """Achieved value with its witness; the witness re-evaluates to the value.

    ``evaluations`` counts the assignments the value is certified over; for
    ``Method.EXACT``, 2**_certified_bits(m, n) (see the module docstring).
    """

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


def _free_entries(m: int, n: int) -> int:
    """F = n**m - m(n-1) - 1: the entries of an (m, n) board off the m axis lines through the origin."""
    return DimSpec(m, n).size - m * (n - 1) - 1


def normal_form_boards(m: int, n: int) -> np.ndarray:
    """The int8 (2**F, n**m) stack of switching normal forms, F = ``_free_entries(m, n)``.

    A normal form is +1 on the m axis lines through the origin (entries with
    at most one nonzero index); its F free entries take the rows of
    ``sign_rows(F)`` in order. Switching x acts trivially only when every
    x^(a) is constant with product +1, so each class has 2**(m(n-1)+1)
    boards and holds exactly one normal form, which has the class's value.
    """
    return next(_normal_forms(m, n, 1 << _free_entries(m, n)))


def _normal_forms(m: int, n: int, block: int):
    """``normal_form_boards(m, n)`` in blocks of ``block`` rows: the free entries of form k are ``_signs_at(k, F)``."""
    bits = _free_entries(m, n)
    free = (np.indices((n,) * m).reshape(m, -1) != 0).sum(axis=0) > 1  # the F entries, once for every block
    for k0 in range(0, 1 << bits, block):
        rows = _signs_at(np.arange(k0, min(k0 + block, 1 << bits), dtype=np.int64), bits)
        boards = np.ones((len(rows), n ** m), dtype=np.int8)
        boards[:, free] = rows
        yield boards


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


def _pinned_words(idx, axes: int, n: int):
    """The ``_signs_at`` words of ``axes`` axes (n bits each) of a reduced index: x0[0] = +1, x_a[0] = -1 for a >= 1.

    The reduced index holds the n-1 other coordinates of each axis, axis 0
    most significant; the pins are spliced in as the top bit of each axis.
    ``idx`` may be an int or an int64 array.
    """
    word = idx | 1 << axes * n >> 1  # x0[0] = +1 (no bit when axes = 0)
    for j in range(1, axes):  # bit group i (from 0 at the bottom) moves up one place per j <= i, past i zero pins
        word = word + ((idx & -1 << j * (n - 1)) << j - 1)
    return word


def _prefix_matrices(view: np.ndarray, m: int, n: int, start: int, count_bits: int, memo: list) -> np.ndarray:
    """The (n, n, P, B) contractions of an (n**m, B) board-minor stack by the 2**count_bits prefixes from ``start``.

    Axes left fixed by the varying last ``count_bits`` prefix bits contract
    once per sign setting (``memo[a]`` keeps the latest contraction through
    fixed axis a). Each later axis meets every partial result with its sign
    rows, and its sign index becomes the outermost prefix digit, so every
    pass runs over whole (prefix, board) rows; one transpose at the end puts
    the digits in lexicographic order. A prefix index has n-1 bits per axis
    0..m-3, as in ``_pinned_words``.
    """
    fixed = _signs_at(_pinned_words(start, m - 2, n), n * (m - 2))
    cur, digits = view, []  # cur: (n**(m-a), digits of the varying axes before a, last outermost, B)
    for a in range(m - 2):
        vary = min(n - 1, max(0, count_bits - (n - 1) * (m - 3 - a)))  # varying bits on axis a
        if not vary:
            key = start >> (n - 1) * (m - 3 - a)  # the signs of axes 0..a
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


def _abs_sum(c: np.ndarray, group: int, total: np.dtype) -> np.ndarray:
    """sum|c| over axis 0 of a signed c, which becomes |c|: ``group`` rows at a time in the unsigned type of c's width.

    The group sums add in ``total``. Exact when a group's sum fits the first type and the whole sum fits ``total``;
    narrow adds within a group skip most of the widening casts.
    """
    u = np.abs(c, out=c).view(f"u{c.itemsize}")
    values = u[:group].sum(axis=0, dtype=u.dtype).astype(total, copy=False)
    for i in range(group, len(u), group):
        values += u[i:i + group].sum(axis=0, dtype=u.dtype)
    return values


def _exact_kernel(m: int, n: int, boards: np.ndarray, allow_large: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) int64 and first-maximum ``_signs_at`` words (B,) int64 of axes 0..m-2 of a (B, n**m) stack."""
    if reason := exact_refusal(m, n, allow_large):
        raise BudgetExceeded(reason)
    if m == 1:
        return np.full(len(boards), n, dtype=np.int64), np.zeros(len(boards), dtype=np.int64)
    # the widths of the module docstring: -1 - bound fits a signed type iff +bound does
    part = np.min_scalar_type(-1 - n ** (m - 1))
    wide = np.dtype(f"u{part.itemsize}")  # |c| <= n**(m-1), so g = max // n**(m-1) rows of it sum within ``wide``
    group, total = np.iinfo(wide).max // n ** (m - 1), np.promote_types(wide, np.min_scalar_type(n ** m))
    bits = _block_bits(n * part.itemsize)  # a block's c: 2**bits (boards x assignments) of n ``part`` integers
    kbits = n - 1  # free bits of axis m-2, after its pinned row 0; the (n-1)(m-2) others are prefix bits
    pbits, lbits = kbits * (m - 2), min(kbits // 2, bits)
    hbits = kbits - lbits
    tbits = min(hbits, bits)  # rows of the high table: all 2**hbits unless they outgrow the budget
    pblock, hblock = max(0, min(pbits, bits - kbits)), min(hbits, bits - lbits)
    # c fits, and so do the board view at 4 bytes an entry and the prefix matrices and tables (as large as c at n = 2)
    bblock = 1 << max(0, min(bits - kbits - pbits, _block_bits(4 * n ** m)))
    best, index = np.full(len(boards), -1, dtype=np.int64), np.zeros(len(boards), dtype=np.int64)  # index: sign words
    for b0 in range(0, len(boards), bblock):
        # (n**m, B), board-minor: every sum until the abs is a partial contraction within +-n**(m-1), in ``part``
        view = boards[b0:b0 + bblock].T.astype(part, order="C")
        width, memo = view.shape[1], [(-1, None)] * (m - 2)
        sums = np.empty((n, 1 << hblock, 1 << lbits, 1 << pblock, width), dtype=part)  # c, reused by every block
        for p0 in range(0, 1 << pbits, 1 << pblock):
            rows = _prefix_matrices(view, m, n, p0, pblock, memo)  # (n, n, P, B): axis m-2 first
            lo = np.ascontiguousarray(_sign_sums(np.zeros_like(rows[0]), rows[n - lbits:]).swapaxes(0, 1))
            for t0 in range(0, 1 << hbits, 1 << tbits):
                # the pinned row 0 (+1 at m = 2, else -1) and the high bits above the table, then the table
                head = _signs_at(t0 >> tbits | (m == 2) << (hbits - tbits), hbits - tbits + 1)
                base = (head @ rows[:len(head)].reshape(len(head), -1)).reshape(rows.shape[1:])
                hi = np.ascontiguousarray(_sign_sums(base, rows[len(head):n - lbits]).swapaxes(0, 1))
                for h0 in range(0, 1 << tbits, 1 << hblock):
                    np.add(hi[:, h0:h0 + (1 << hblock), None], lo[:, None], out=sums)
                    values = _abs_sum(sums, group, total).transpose(2, 0, 1, 3).reshape(-1, width)
                    k = values.argmax(axis=0)
                    if width > 1:  # boards that share a block have no other block
                        best[b0:b0 + bblock], index[b0:b0 + bblock] = values.max(axis=0), _pinned_words(k, m - 1, n)
                    elif values[k[0], 0] > best[b0]:  # strictly: earlier blocks keep ties
                        # k counts (prefix, high, low) from (p0, t0 + h0, 0): a block has one prefix or every high half
                        best[b0] = values[k[0], 0]
                        index[b0] = _pinned_words(int(k[0]) + ((p0 << kbits) | ((t0 + h0) << lbits)), m - 1, n)
    return best, index


def _witnesses(m: int, n: int, boards, values, index) -> tuple[np.ndarray, np.ndarray]:
    """``values`` and int8 witnesses: words ``index`` on axes 0..m-2, sign(c) on m-1, proved by sum|c| in int64."""
    witnesses, bblock = np.empty((len(boards), m, n), dtype=np.int8), 1 << _block_bits(8 * n ** m)  # int64 boards
    for b0 in range(0, len(boards), bblock):
        w, c = witnesses[b0:b0 + bblock], boards[b0:b0 + bblock].T.astype(np.int64, order="C")  # c board-minor
        w[:, :m - 1] = _signs_at(index[b0:b0 + bblock], n * (m - 1)).reshape(len(w), m - 1, n)
        for a in range(m - 1):
            c = (c.reshape(n, -1, len(w)) * w[:, a].T[:, None]).sum(axis=0)
        w[:, m - 1] = _sign_of(c.T)
        if (np.abs(c).sum(axis=0) != values[b0:b0 + bblock]).any():
            raise AssertionError(f"witness re-evaluation mismatch in boards {b0}..{b0 + len(w) - 1}")
    return values, witnesses


def exact_max(tensor: SignTensor, *, allow_large: bool = False) -> SolveResult:
    """Exact maximum of the switching form over all +/-1 assignments.

    Runs the split kernel and ``_witnesses`` on a one-board stack (see the module docstring); raises
    BudgetExceeded where ``exact_refusal(m, n, allow_large)`` gives a reason.
    """
    m, n = tensor.dims.m, tensor.dims.n
    values, witnesses = _witnesses(m, n, tensor.entries[None], *_exact_kernel(m, n, tensor.entries[None], allow_large))
    return _checked_result(tensor, int(values[0]), witnesses[0], Method.EXACT, 1 << max(0, _certified_bits(m, n)))


def exact_max_batch(m: int, n: int, entries) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) int64 and witnesses (B, m, n) int8 of a (B, n**m) +/-1 stack.

    Row i matches ``exact_max`` on the board with flat entries ``entries[i]``,
    witness bytes included. Input errors are raised before any kernel array
    exists; ``_witnesses`` proves every witness in int64 (AssertionError if not).
    """
    boards = np.asarray(entries)
    if boards.ndim != 2 or boards.shape[1] != DimSpec(m, n).size:
        raise LengthMismatch(f"expected rows of n**m = {n ** m} entries, got shape {boards.shape}")
    if not len(boards):
        raise ValueError("exact_max_batch needs at least one board")
    _validate_signs(boards)
    return _witnesses(m, n, boards, *_exact_kernel(m, n, boards))


def value_census(m: int, n: int) -> dict[int, int]:
    """The number of +/-1 boards with n**m entries at each exact value, in ascending value order.

    Normal forms are scored in blocks of int8 rows, each count weighted by the class size 2**(m(n-1)+1).
    """
    bits = _free_entries(m, n) + _certified_bits(m, n)  # 2**F forms of one solve each: one solve's budget for all
    if bits > EXACT_BUDGET_BITS:
        raise BudgetExceeded(f"value_census({m}, {n}): 2**{bits} assignments exceed the 2**{EXACT_BUDGET_BITS} budget")
    hist = np.zeros(n ** m + 1, dtype=np.int64)  # every value lies in 0..n**m
    for boards in _normal_forms(m, n, 1 << _block_bits(n ** m)):
        hist += np.bincount(exact_max_batch(m, n, boards)[0], minlength=len(hist))
    return {v: c << m * (n - 1) + 1 for v, c in enumerate(hist.tolist()) if c}


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
    run in stacks: one ``rng.sign_draws`` call seeds and draws a stack, and
    each restart contracts the float64 board with one BLAS gemv per axis,
    axis 0 first; a later stack wins only if strictly greater.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    m, n = tensor.dims.m, tensor.dims.n
    # Exact: every partial sum of a +/-1 board against +/-1 vectors is an
    # integer of magnitude <= n**m <= tensor.MAX_ENTRIES = 2**40 < 2**53, so
    # each float64 add and multiply is exact in any order, with or without FMA.
    board = tensor.view().astype(np.float64)
    block = 1 << _block_bits(8 * n ** max(1, m - 1))  # a restart's first float64 contraction
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
