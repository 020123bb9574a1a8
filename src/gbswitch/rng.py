"""Deterministic seed derivation and sign sampling.

Every randomized routine derives per-task seeds through ``mix``, so a run
is a pure function of its root seed and task indices: results never depend
on worker count or scheduling order.

A seed's stream is numpy's ``np.random.Generator(np.random.PCG64(seed))``;
``generator`` and ``sign_vector`` draw it one seed at a time, as the
reference and as the single-seed board path (``random_tensor``).
``sign_draws``, for stacks of seeds, computes the same bytes in integer
arithmetic fixed by numpy's sources and draws nothing from numpy: the
``SeedSequence`` pool hash and ``generate_state(4, uint64)`` in uint32,
one vectorised round per pool word over a (4, B) array with the hash
constants precomputed, then the outputs in passes by the LCG's closed-form
jump (O'Neill 2014, its table stepped in Python integers) and PCG64's XSL-RR
output, in uint64 from 32-bit limbs. PCG64's ``srandom`` is the first of
those jumps: it sets state_0 = (initstate + inc) M + inc, so the t-th
output's state is A_(t+1) (initstate + inc) + C_(t+1) inc mod 2**128.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BudgetExceeded

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy.random.SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Most entries one draw may hold (``check_draw``): 2**27 int8 entries take
#: 1 GiB once a solver casts them to int64 or float64.
MAX_DRAW_ENTRIES = 1 << 27
#: Bytes of one block of every stack (see ``_block_bits``): half of a 2 MiB per-core L2, the best budget of
#: scripts/kernel_sweep.py.
BLOCK_BYTES = 1 << 20


def _splitmix64(x: int) -> int:
    # SplitMix64 finalizer; full-avalanche 64-bit mixer.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def mix(*parts: int) -> int:
    """Fold integers into one 64-bit seed: h0 = 0, hi = splitmix64(h(i-1) XOR part_i).

    A part may be a uint64 array; the fold then runs elementwise and
    returns the uint64 array of seeds.
    """
    h = 0
    for part in parts:
        h = _splitmix64((h ^ part) & _MASK64)
    return h


def generator(*parts: int) -> np.random.Generator:
    """PCG64 generator seeded with ``mix(*parts)``."""
    return np.random.Generator(np.random.PCG64(mix(*parts)))


def sign_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform vector in {-1, +1}^n, dtype int8."""
    return rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1


def check_draw(seeds: int, count: int, n: int) -> None:
    """Raise BudgetExceeded if a draw of ``seeds`` x ``count`` x ``n`` signs holds more than MAX_DRAW_ENTRIES."""
    entries = seeds * count * n
    if entries > MAX_DRAW_ENTRIES:
        raise BudgetExceeded(f"a draw of {seeds} x {count} x {n} = {entries} signs exceeds "
                             f"the 2**{MAX_DRAW_ENTRIES.bit_length() - 1} entry limit")


def _block_bits(row_bytes: int) -> int:
    """The largest b >= 0 with 2**b rows of ``row_bytes`` bytes within BLOCK_BYTES (0 if one row is larger).

    Every stack runs in blocks of 2**b rows; BLOCK_BYTES is read at each call.
    """
    return max(0, (BLOCK_BYTES // row_bytes).bit_length() - 1)


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """(calls + 1, 1) uint32: the hash constant of SeedSequence before each of ``calls`` calls, then after the last."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(calls + 1)], dtype=np.uint32)[:, None]


# hashmix: 4 entropy words, then 3 per pool word (one round each); the output hash: 8 words
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, 4 * _POOL_SIZE)
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix (mult _MULT_A) and output hash (mult _MULT_B): call k xors value k with
    # constant k and multiplies it by constant k + 1, the constant after that call's advance
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(16))


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each uint64 seed, as (B, 4) uint64."""
    # a seed below 2**32 has one entropy word, and the pool hashes the
    # missing second word as 0, which is what its zero high word gives
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds, seeds >> np.uint64(32)  # the assignment keeps the low 32 bits
    pool = _hashmix(pool, _CONSTS_A[:_POOL_SIZE + 1])
    for src, others in enumerate(_OTHERS):  # word src mixes into the other three; it is itself unchanged
        k = _POOL_SIZE + 3 * src
        value = _hashmix(pool[src], _CONSTS_A[k:k + 4])  # (3, B): one hashmix per other word
        mixed = np.uint32(_MIX_MULT_L) * pool[others] - np.uint32(_MIX_MULT_R) * value
        pool[others] = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(np.concatenate((pool, pool)), _CONSTS_B)
    # word k of the uint64 state is 32-bit words 2k (low) and 2k+1 (high)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 of uint64 (high, low) halves; a_lo * b_lo in full from 32-bit limbs."""
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _MASK32, b_lo >> 32, b_lo & _MASK32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


@functools.lru_cache(maxsize=None)
def _jumps(steps: int) -> np.ndarray:
    """Read-only (4, steps) uint64 rows A_hi, A_lo, C_hi, C_lo of the t-step LCG maps x -> A_t x + C_t inc."""
    a, c, cols, mask = 1, 0, [], (1 << 128) - 1
    for _ in range(steps):  # column t is t + 1 steps: A_(t+1) = M A_t, C_(t+1) = M C_t + 1 mod 2**128
        a, c = a * _PCG_MULT & mask, c * _PCG_MULT + 1 & mask
        cols.append((a << 128 | c).to_bytes(32, "big"))  # big-endian words A_hi, A_lo, C_hi, C_lo
    table = np.ascontiguousarray(np.frombuffer(b"".join(cols), dtype=">u8").reshape(steps, 4).T, dtype=np.uint64)
    table.setflags(write=False)
    return table


def sign_draws(seeds, count: int, n: int) -> np.ndarray:
    """(B, count, n) int8 stack of uniform +/-1 vectors, one stream per seed.

    Slice [b, k] equals, byte for byte, the k-th ``sign_vector(rng, n)``
    call on ``rng = np.random.Generator(np.random.PCG64(seeds[b]))``, so
    ``sign_draws([mix(*parts)], count, n)[0]`` is ``count`` calls on
    ``generator(*parts)``. ``seeds`` is a sequence of B integers in
    [0, 2**64). ``check_draw`` runs before any array is allocated.

    Seeds run in blocks, each hashed once and drawn in passes of
    ``1 << _block_bits(168)`` outputs; each sign is written once, into one int8
    array, which one copy compacts when the calls leave spare sign bytes.
    """
    check_draw(len(seeds), count, n)
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    # integers(0, 2, size=n, dtype=int8) takes ceil(n/4) fresh 32-bit words per call, the low then
    # the high half of each 64-bit output (a spare high half goes to the next call); sign i is
    # bit 7 of byte i of the little-endian words (+1 where set), as Lemire's rule at range 2 never rejects.
    width = -(-n // 4) * 4
    steps = -(-count * width // 8)
    chunk = 1 << _block_bits(168)  # outputs per pass, at most 168 B of temporaries each (153 measured at one per seed)
    block = max(1, chunk // max(1, steps))
    a_hi, a_lo, c_hi, c_lo = _jumps(min(chunk, 1 << max(0, steps - 1).bit_length()) + 1)
    out = np.empty((len(seeds), steps * 8), dtype=np.int8)
    for b0 in range(0, len(seeds) if steps else 0, block):  # a block runs at least one pass, so none without output
        words = _pcg64_words(seeds[b0:b0 + block])[:, :, None]
        # srandom(initstate, initseq): inc = 2 initseq + 1, state_0 = (initstate + inc) M + inc, so the t-th
        # output's state is A_(t+1) (initstate + inc) + C_(t+1) inc: the first pass reads one column on
        inc = (words[:, 2] << 1 | words[:, 3] >> 63, words[:, 3] << 1 | 1)
        state, j = _add128(*inc, words[:, 0], words[:, 1]), 1
        for t0 in range(0, steps, chunk):
            t = min(chunk, steps - t0)
            hi, lo = _add128(*_mul128(a_hi[j:j + t], a_lo[j:j + t], *state),
                             *_mul128(c_hi[j:j + t], c_lo[j:j + t], *inc))
            state, j = (hi[:, -1:], lo[:, -1:]), 0
            rot, word = hi >> 58, hi ^ lo  # XSL-RR: xor-fold, then rotate right by the top 6 bits
            word = ~(word >> rot | word << ((64 - rot) & 63))  # inverted, so an int8 byte >> 7 is 0 for +1, -1 for -1
            np.bitwise_or(word.astype("<u8", copy=False).view(np.int8) >> 7, 1,
                          out=out[b0:b0 + block, 8 * t0:8 * (t0 + t)])
        del words, inc, state, hi, lo, rot, word  # before the next block's seeds hash
    return np.ascontiguousarray(out[:, :count * width].reshape(len(out), count, width)[:, :, :n])
