"""rng: seed folding and the stacked sign draws, against numpy's per-seed streams."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import sign_draws_loop
from gbswitch import (
    BudgetExceeded,
    DimSpec,
    alternating_max,
    exact_max_batch,
    experiments,
    generator,
    lp,
    mix,
    random_restart_greedy,
    random_tensor,
    rng,
    sample_min_norm,
    sign_draws,
    solvers,
    tensor,
)
from gbswitch.rng import sign_vector

#: Both ends of each 32-bit word; 0, 1, 5, 2**31 and 2**32-1 have a zero high word.
EDGE_SEEDS = [0, 1, 5, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]
MIX_SEEDS = [mix(7, 3, i) for i in range(500)]

#: sha256 of the (64, n*n) int8 stack of random_tensor(DimSpec(2, n), generator(7, n, i)).entries
#: for i < 64, drawn one generator at a time (numpy 2.4.6). A numpy release that changes
#: SeedSequence or PCG64 seeding changes these bytes.
STREAM_PIN = {
    3: "24e2db8c9565e754a8b55c264f5751fb74031cb8661eb91f1b492e1a293a50ce",
    4: "8e55881ca46c95ab3561a872a56afcc996a824c779fc1554b725b87d01c803c2",
    5: "3960f5c80792bf0d8dc4fe44b51230a2bc53c2e2dda676f10ae46ec230f741a9",
    6: "a2cce8a5cd7b73b3ef40446bc9cf3d3bc1056d759526d2ebae07eb1de349da22",
    7: "dda70fdaf53d7d6d7859ebe6b9d17246b936365b5f9fc83410b8e376e8844819",
}


def test_mix_on_uint64_arrays_matches_scalar_mix():
    idx = np.arange(1000, dtype=np.uint64)
    edges = np.array(EDGE_SEEDS, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parts in [(), (7,), (7, 5), (-3, 2**64 - 1, 4)]:
            folded = mix(*parts, idx)
            assert folded.dtype == np.uint64
            assert folded.tolist() == [mix(*parts, i) for i in range(1000)]
        assert mix(idx, 1).tolist() == [mix(i, 1) for i in range(1000)]
        assert mix(9, edges).tolist() == [mix(9, s) for s in EDGE_SEEDS]


# n covers every residue mod 4 (and mod 8): the int8 draw packs four signs
# into each 32-bit output and PCG64 carries the spare half of a 64-bit
# output into the next call of the same stream (ceil(n/4) * count odd,
# e.g. n = 27 or 49 at count 1 and 3). At n = 256 the 510 seeds take
# several passes.
@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 13, 27, 49, 64, 256])
def test_sign_draws_matches_per_seed_loop(n, count):
    seeds = EDGE_SEEDS + MIX_SEEDS
    got = sign_draws(seeds, count, n)
    assert got.dtype == np.int8 and got.shape == (len(seeds), count, n)
    assert np.array_equal(got, sign_draws_loop(seeds, count, n))
    assert np.array_equal(sign_draws(np.array(seeds, dtype=np.uint64), count, n), got)


def test_sign_draws_seed_stack_past_one_pass(monkeypatch):
    seeds = mix(7, np.arange(2**14 + 1000, dtype=np.uint64))
    words, blocks = rng._pcg64_words, []
    monkeypatch.setattr(rng, "_pcg64_words", lambda block: blocks.append(len(block)) or words(block))
    assert np.array_equal(sign_draws(seeds, 1, 5), sign_draws_loop(seeds, 1, 5))
    assert len(blocks) > 1 and sum(blocks) == len(seeds)


def _jumps_loop(steps: int) -> np.ndarray:
    """The (4, steps) jump table stepped one LCG step at a time in Python ints: the oracle of rng._jumps."""
    mask, a, c, table = (1 << 128) - 1, 1, 0, []
    for _ in range(steps):
        a, c = a * rng._PCG_MULT & mask, (c * rng._PCG_MULT + 1) & mask
        table.append((a >> 64, a & (2**64 - 1), c >> 64, c & (2**64 - 1)))
    return np.array(table, dtype=np.uint64).T


def test_jump_table_matches_stepwise_loop():
    steps = (1 << rng._block_bits(168)) + 1  # the longest table sign_draws asks for: a pass and one step
    oracle = _jumps_loop(steps)
    for size in [1 << k for k in range(steps.bit_length())] + [steps]:
        table = rng._jumps(size)
        assert table.dtype == np.uint64 and not table.flags.writeable
        assert np.array_equal(table, oracle[:, :size]), size


@pytest.mark.parametrize("seed", [0, 5, mix(7), 2**64 - 1])
def test_jump_table_matches_numpy_advance(seed):
    # an oracle independent of the recurrence: numpy's own PCG64.advance(t) moves state x to A_t x + C_t inc
    table = [[int(v) for v in row] for row in rng._jumps(4097)]
    for t in (1, 2, 64, 4097):
        a, c = table[0][t - 1] << 64 | table[1][t - 1], table[2][t - 1] << 64 | table[3][t - 1]
        bitgen = np.random.PCG64(seed)
        x, inc = bitgen.state["state"]["state"], bitgen.state["state"]["inc"]
        assert bitgen.advance(t).state["state"]["state"] == (a * x + c * inc) % 2**128, t


@pytest.mark.parametrize("seeds, n", [([mix(7)], 2**19), (mix(7, np.arange(2**14, dtype=np.uint64)), 8)],
                         ids=["one-seed-2^16-outputs", "2^14-seeds-one-output-each"])
def test_sign_draws_memory_is_the_output_and_one_block(seeds, n):
    # a long stream runs in many passes and a tall stack in many seed blocks; beyond its result, a draw holds at
    # most one block's temporaries, whatever the number of passes or blocks
    sign_draws(seeds, 1, n)  # the jump table is cached before the measurement
    tracemalloc.start()
    try:
        draws = sign_draws(seeds, 1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= draws.nbytes + rng.BLOCK_BYTES, peak


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_sign_draws_chunked_passes_keep_bytes(monkeypatch, chunk):
    # a budget of ``chunk`` outputs (168 bytes each) gives passes of the largest power of two within it; a pass
    # may end inside one seed's stream (chunk < steps), so the LCG state must carry over between passes; no
    # product exceeds a pass
    shapes = [(seeds, count, n) for seeds in (EDGE_SEEDS, MIX_SEEDS[:40]) for count, n in ((1, 27), (3, 49), (2, 256))]
    expected = [sign_draws(*shape) for shape in shapes]
    largest = []
    mul128 = rng._mul128

    def recording(*halves):
        out = mul128(*halves)
        largest.append(max(out[0].size, out[1].size))
        return out

    monkeypatch.setattr(rng, "_mul128", recording)
    monkeypatch.setattr(rng, "BLOCK_BYTES", 168 * chunk)
    for shape, want in zip(shapes, expected):
        largest.clear()
        assert np.array_equal(sign_draws(*shape), want)
        assert max(largest) <= chunk


def test_one_budget_moves_every_stack(monkeypatch):
    # rng.BLOCK_BYTES alone splits each stack into several blocks or passes, each counted by the calls it makes
    # (draws of restarts, starts and samples, seed blocks of a draw, |c| sums of the exact kernel), and no output
    # byte moves
    board = random_tensor(DimSpec(3, 8), generator(3))
    boards = generator(4).integers(0, 2, size=(256, 16), dtype=np.int8) * 2 - 1
    seeds = mix(5, np.arange(300, dtype=np.uint64))

    def ascent():
        res = alternating_max(board, 3, starts=20, sweeps_max=5, seed=2)
        return res.value, [point.coords.tobytes() for point in res.points], res.trace

    runs = [
        (solvers, "sign_draws", lambda: random_restart_greedy(board, 40, 1)),
        (lp, "sign_draws", ascent),
        (experiments, "sign_draws", lambda: sample_min_norm(2, 4, math.inf, 600, 7)),
        (rng, "_pcg64_words", lambda: sign_draws(seeds, 2, 27).tobytes()),
        (solvers, "_abs_sum", lambda: [a.tobytes() for a in exact_max_batch(2, 4, boards)]),
    ]
    default = rng.BLOCK_BYTES
    for module, name, run in runs:
        calls, inner = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, calls=calls, inner=inner: calls.append(1) or inner(*args))
        expected, blocks = run(), len(calls)
        monkeypatch.setattr(rng, "BLOCK_BYTES", 1 << 12)
        calls.clear()
        assert run() == expected, name
        assert blocks == 1 < len(calls), (module.__name__, name, len(calls))
        monkeypatch.setattr(rng, "BLOCK_BYTES", default)


def test_sign_draws_is_generator_and_random_tensor():
    for parts in [(0,), (7, 3), (-2, 5, 11), (2**70, 1)]:
        stream = generator(*parts)
        vectors = [sign_vector(stream, 6) for _ in range(3)]
        assert np.array_equal(sign_draws([mix(*parts)], 3, 6)[0], vectors)
        dims = DimSpec(3, 4)
        board = random_tensor(dims, generator(*parts))
        assert np.array_equal(sign_draws([mix(*parts)], 1, dims.size)[0, 0], board.entries)


def test_sign_draws_empty_shapes():
    assert sign_draws([], 3, 4).shape == (0, 3, 4)
    assert sign_draws([1, 2], 0, 4).shape == (2, 0, 4)
    assert sign_draws([1, 2], 3, 0).shape == (2, 3, 0)


@pytest.mark.parametrize("n", sorted(STREAM_PIN))
def test_sign_draws_stream_pin(n):
    draws = sign_draws(mix(7, n, np.arange(64, dtype=np.uint64)), 1, n * n)
    assert draws.shape == (64, 1, n * n)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == STREAM_PIN[n]


class _Unreachable:
    def __getattr__(self, name):
        raise AssertionError(f"sign_draws reached np.{name}")


def test_sign_draws_entry_limit(monkeypatch):
    monkeypatch.setattr(rng, "MAX_DRAW_ENTRIES", 24)
    assert np.array_equal(sign_draws([1, 2], 3, 4), sign_draws_loop([1, 2], 3, 4))
    monkeypatch.setattr(rng, "np", _Unreachable())
    with pytest.raises(BudgetExceeded, match=r"2 x 3 x 5 = 30 signs exceeds"):
        sign_draws([1, 2], 3, 5)


def test_random_tensor_checks_the_draw_limit_before_drawing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a board was drawn")

    with pytest.raises(BudgetExceeded) as stacked:
        sign_draws([mix(1)], 1, 2 ** 28)
    monkeypatch.setattr(tensor, "sign_vector", unreachable)
    with pytest.raises(BudgetExceeded) as single:
        random_tensor(DimSpec(2, 2 ** 14), generator(1))
    assert str(single.value) == str(stacked.value) == (
        "a draw of 1 x 1 x 268435456 = 268435456 signs exceeds the 2**27 entry limit")
