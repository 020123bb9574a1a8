"""Deterministic seed derivation and sign sampling.

Every randomized routine derives per-task seeds through ``mix``, so a run
is a pure function of its root seed and task indices: results never depend
on worker count or scheduling order.

A seed's stream is numpy's ``np.random.Generator(np.random.PCG64(seed))``;
``generator`` and ``sign_vector`` draw it one seed at a time and are the
reference. ``sign_draws`` draws the same bytes for a whole stack of seeds.
It replicates only numpy's seeding, which is integer arithmetic fixed by
numpy's sources: the ``SeedSequence`` pool hash of the seed's two 32-bit
words followed by ``generate_state(4, uint64)`` (numpy uint32 arithmetic
on every seed at once), then PCG64's ``srandom``, two steps of the 128-bit
LCG (O'Neill 2014; Python ints, one seed at a time). numpy still produces
every output: each seeded state is assigned to one reused ``PCG64`` and
``Generator.integers`` draws the bits.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Most entries one ``sign_draws`` stack may hold: 2**27 int8 entries take
#: 1 GiB once a solver casts them to int64 or float64.
MAX_DRAW_ENTRIES = 1 << 27


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


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    # SeedSequence's hashmix; the hash constant advances on every call
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _pcg64_words(seeds: np.ndarray) -> list[list[int]]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each uint64 seed, as Python ints."""
    # a seed below 2**32 has one entropy word, and the pool hashes the
    # missing second word as 0, which is what its zero high word gives
    words = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]
    words += [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    const, pool = _INIT_A, []
    for word in words:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * value
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = np.empty((len(seeds), 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    # word k of the uint64 state is 32-bit words 2k (low) and 2k+1 (high)
    return state.astype("<u4").view("<u8").tolist()


def sign_draws(seeds, count: int, n: int) -> np.ndarray:
    """(B, count, n) int8 stack of uniform +/-1 vectors, one stream per seed.

    Slice [b, k] equals, byte for byte, the k-th ``sign_vector(rng, n)``
    call on ``rng = np.random.Generator(np.random.PCG64(seeds[b]))``, so
    ``sign_draws([mix(*parts)], count, n)[0]`` is ``count`` calls on
    ``generator(*parts)``. ``seeds`` is a sequence of B integers in
    [0, 2**64). A stack of more than MAX_DRAW_ENTRIES entries raises
    BudgetExceeded before any array is allocated.
    """
    entries = len(seeds) * count * n
    if entries > MAX_DRAW_ENTRIES:
        raise BudgetExceeded(f"a draw of {len(seeds)} x {count} x {n} = {entries} signs exceeds "
                             f"the 2**{MAX_DRAW_ENTRIES.bit_length() - 1} entry limit")
    words = _pcg64_words(np.asarray(seeds, dtype=np.uint64).reshape(-1))
    out = np.empty((len(words), count, n), dtype=np.int8)
    bitgen = np.random.PCG64(0)
    draw = np.random.Generator(bitgen).integers
    for b, (state_hi, state_lo, seq_hi, seq_lo) in enumerate(words):
        # srandom(initstate, initseq): one LCG step from state 0 gives inc,
        # then initstate is added and the LCG steps once more
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        # a fresh PCG64 holds no spare 32-bit half; the previous seed's must not carry over
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        for k in range(count):
            out[b, k] = draw(0, 2, size=n, dtype=np.int8)
    out *= 2
    out -= 1
    return out
