import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_boards,
    all_sign_vectors,
    brute_force_max,
    greedy_loop,
    lex_first_batch_m2,
    lex_first_exact,
    lex_values,
    local_search_loop,
    walsh_values,
)
from gbswitch import (
    BudgetExceeded,
    DimMismatch,
    DimSpec,
    LengthMismatch,
    Method,
    NonUnimodularEntry,
    SizeOverflow,
    apply_switch,
    classify_extremal,
    evaluate,
    exact_max,
    exact_max_batch,
    generator,
    km_constant,
    local_search,
    majority_fix,
    make_assignment,
    make_tensor,
    mix,
    normal_form_boards,
    partial_contraction,
    random_restart_greedy,
    random_tensor,
    sign_draws,
    sign_rows,
    value_census,
)
from gbswitch import rng as rng_module
from gbswitch import solvers
from gbswitch import tensor as tensor_module
from gbswitch.solvers import _signs_at

D22 = DimSpec(2, 2)
CF = make_tensor(D22, [1, 1, 1, -1])


def test_exact_max_minimal_board():
    res = exact_max(CF)
    assert res.value == 2
    assert res.method is Method.EXACT
    assert evaluate(CF, res.witness) == 2


def test_exact_max_constant_board():
    dims = DimSpec(2, 3)
    res = exact_max(make_tensor(dims, [1] * 9))
    assert res.value == 9
    assert res.witness.vectors.tolist() == [[1, 1, 1], [1, 1, 1]]


def test_exact_max_against_brute_force():
    rng = generator(17)
    for _ in range(40):
        t = random_tensor(DimSpec(2, 3), rng)
        assert exact_max(t).value == brute_force_max(t)


def test_exact_max_against_brute_force_m3():
    rng = generator(23)
    for _ in range(15):
        t = random_tensor(DimSpec(3, 2), rng)
        assert exact_max(t).value == brute_force_max(t)


def test_exact_max_m1():
    t = make_tensor(DimSpec(1, 3), [-1, 1, -1])
    res = exact_max(t)
    assert res.value == 3
    assert res.witness.vectors.tolist() == [[-1, 1, -1]]


def test_exact_max_budget_guard():
    t = random_tensor(DimSpec(2, 32), generator(0))
    with pytest.raises(BudgetExceeded):
        exact_max(t)  # 2**31 assignments
    small = random_tensor(DimSpec(2, 4), generator(0))
    assert exact_max(small, allow_large=True).value == exact_max(small).value


def test_exact_kernel_refuses_int64_sums_before_any_array(monkeypatch):
    class Unreachable:
        def __getattr__(self, name):
            raise AssertionError(f"_exact_kernel reached np.{name}")

    monkeypatch.setattr(solvers, "np", Unreachable())
    with pytest.raises(BudgetExceeded, match=r"3\*\*20 is 2\*\*31 or more"):  # the smallest m >= 2 case
        solvers._exact_kernel(20, 3, np.empty((0, 3 ** 20), np.int8), allow_large=True)


def test_exact_max_tie_break_is_lexicographic():
    # both free assignments of CF reach 2; x = (1,-1) precedes (1,1)
    res = exact_max(CF)
    assert res.witness.vectors.tolist() == [[1, -1], [1, 1]]
    assert res.evaluations == 2


WITNESS_SIZES = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)] + [(4, 2), (5, 2)]


def _tie_heavy_boards(m, n):
    """The all-ones board and its CF-like variant (the last corner entry flipped)."""
    ones = [1] * n ** m
    return [make_tensor(DimSpec(m, n), ones), make_tensor(DimSpec(m, n), ones[:-1] + [-1])]


@pytest.mark.parametrize("m,n", WITNESS_SIZES)
def test_exact_max_witness_matches_lex_oracle(m, n):
    boards = _tie_heavy_boards(m, n) + [random_tensor(DimSpec(m, n), generator(41, m, n, i)) for i in range(4)]
    for board in boards:
        value, vectors = lex_first_exact(board)
        res = exact_max(board)
        assert res.value == value
        assert res.witness.vectors.tolist() == vectors
        assert res.evaluations == 2 ** (n * (m - 1) - 1)


def _kernel_blocks(monkeypatch, budget):
    """Patch rng.BLOCK_BYTES to ``budget`` and return the list of each kernel block's largest value.

    Every block sums |c| once, through ``solvers._abs_sum``, which the list records.
    """
    monkeypatch.setattr(rng_module, "BLOCK_BYTES", budget)
    abs_sum, maxima = solvers._abs_sum, []

    def recorded(*args):
        values = abs_sum(*args)
        maxima.append(int(values.max()))
        return values

    monkeypatch.setattr(solvers, "_abs_sum", recorded)
    return maxima


def _lex_first(board):
    """(value, witness rows) of the first maximum in lex order, from ``lex_values``, the last axis by majority_fix."""
    values, rows = lex_values(board)
    first = int(values.argmax())
    partial = rows(first)[0].reshape(board.dims.m - 1, board.dims.n)
    return int(values[first]), partial.tolist() + [majority_fix(board, list(partial))[0].tolist()]


# a 2**18-byte budget gives these shapes blocks of 2**14 visited assignments
@pytest.mark.parametrize("m,n,seed", [(2, 16, 1), (3, 9, 11), (4, 6, 7)])
def test_exact_max_witness_when_maxima_span_blocks(m, n, seed, monkeypatch):
    board = random_tensor(DimSpec(m, n), generator(seed, m, n))
    values, rows = lex_values(board)
    partial = rows(int(values.argmax()))[0].reshape(m - 1, n)
    last = majority_fix(board, list(partial))[0]
    blocks = _kernel_blocks(monkeypatch, 1 << 18)
    res = exact_max(board)
    assert blocks.count(values.max()) > 1  # ties in more than one block
    assert res.value == values.max()
    assert res.witness.vectors.tolist() == partial.tolist() + [last.tolist()]
    assert res.evaluations == len(values)


@pytest.mark.parametrize("m,n,seed", [(2, 16, 0), (2, 17, 0), (3, 9, 0), (4, 6, 0)])
def test_exact_max_first_maximum_past_the_first_block(m, n, seed, monkeypatch):
    board = random_tensor(DimSpec(m, n), generator(seed, m, n))
    value, expected = _lex_first(board)
    blocks = _kernel_blocks(monkeypatch, 1 << 18)
    assert exact_max(board).witness.vectors.tolist() == expected
    # the first maximum lies in a later high-half (m = 2) or prefix block of the kernel
    assert len(blocks) > 1 and blocks[0] < max(blocks) == value
    batch_values, witnesses = exact_max_batch(m, n, board.entries[None])
    assert batch_values[0] == value and witnesses[0].tolist() == expected


# The kernel sums |c| <= n**(m-1) in groups of g = 255 // n**(m-1) rows (int8 partial sums; 65535 // n**(m-1) for
# int16): g = 23, 21, 17, 15 at m = 2, n = 11, 12, 15, 16 (one row left over at 16); g = 10, 7, 5, 3 at m = 3,
# n = 5..8 (groups only from n = 7); g = 3 at (4, 4).
@pytest.mark.parametrize("m,n", [(2, 11), (2, 12), (2, 15), (2, 16), (3, 5), (3, 6), (3, 7), (3, 8), (4, 4)])
def test_exact_kernel_group_sums_match_lex_oracle(m, n):
    boards = [board for board, _ in _planted_boards(m, n)] + _tie_heavy_boards(m, n)
    boards += [random_tensor(DimSpec(m, n), generator(45, m, n, i)) for i in range(2)]
    expected = [_lex_first(board) for board in boards]
    for board, (value, witness) in zip(boards, expected):
        res = exact_max(board)
        assert (res.value, res.witness.vectors.tolist()) == (value, witness)
    values, witnesses = exact_max_batch(m, n, np.stack([board.entries for board in boards]))
    assert list(zip(values.tolist(), witnesses.tolist())) == expected


@pytest.mark.parametrize("n,bits", [(10, 3), (11, 4)])
def test_exact_kernel_high_table_in_many_blocks(n, bits, monkeypatch):
    # 2**bits visited assignments per block: the low half has ``bits`` bits, and the high half's 2**(n-1-bits)
    # rows outgrow the budget, so each table of 2**bits high rows starts from its own head and serves 1 block
    boards = _tie_heavy_boards(2, n) + [random_tensor(DimSpec(2, n), generator(46, n, i)) for i in range(2)]
    expected = [_lex_first(board) for board in boards]
    sign_sums, tables = solvers._sign_sums, []

    def recorded(base, rows):
        tables.append(len(rows))
        return sign_sums(base, rows)

    monkeypatch.setattr(solvers, "_sign_sums", recorded)
    blocks = _kernel_blocks(monkeypatch, n << bits)
    for board, (value, witness) in zip(boards, expected):
        blocks.clear()
        tables.clear()
        res = exact_max(board)
        assert (res.value, res.witness.vectors.tolist()) == (value, witness)
        assert len(blocks) == 1 << n - 1 - bits and tables == [bits] * (1 + (1 << n - 1 - 2 * bits))  # low, highs
    values, witnesses = exact_max_batch(2, n, np.stack([board.entries for board in boards]))
    assert list(zip(values.tolist(), witnesses.tolist())) == expected


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)])
def test_lex_first_maximum_has_minus_one_first_on_middle_axes(m, n):
    # the pin the kernel relies on, checked on the loop oracle alone
    boards = _tie_heavy_boards(m, n) + [random_tensor(DimSpec(m, n), generator(44, m, n, i)) for i in range(4)]
    for board in boards:
        vectors = lex_first_exact(board)[1]
        assert vectors[0][0] == 1 and [v[0] for v in vectors[1:m - 1]] == [-1] * (m - 2)


def test_exact_max_batch_every_2x2x2_board_matches_lex_oracle():
    boards = sign_rows(8)
    values, witnesses = exact_max_batch(3, 2, boards)
    for row, value, witness in zip(boards, values, witnesses):
        assert (value, witness.tolist()) == lex_first_exact(make_tensor(DimSpec(3, 2), row))


def _planted_boards(m, n):
    """The all +1, all -1 and a seeded rank-one board, each with its lexicographically first maximising witness.

    Board y_0 x ... x y_(m-1) reaches n**m exactly at x_a = e_a y_a with
    prod e_a = +1. The pin x0[0] = +1 sets e_0 = y_0[0], lex order (-1 first)
    sets x_a[0] = -1 on axes 1..m-2, and sign(c) closes the last axis.
    """
    dims, ones = DimSpec(m, n), np.ones((m, n), dtype=np.int8)
    minus = ones.copy()
    minus[0] = -1
    boards = []
    for y in (ones, minus, generator(20, m, n).integers(0, 2, (m, n), dtype=np.int8) * 2 - 1):
        signs = [y[0, 0]] + [-y[a, 0] for a in range(1, m - 1)]
        witness = [s * y[a] for a, s in enumerate(signs)] + [np.prod(signs) * y[-1]]
        boards.append((apply_switch(make_tensor(dims, [1] * n ** m), make_assignment(dims, y)), np.array(witness)))
    return boards


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_planted_witness_is_the_lex_first_maximum(m, n):
    for board, witness in _planted_boards(m, n):
        assert lex_first_exact(board) == (n ** m, witness.tolist())


# n**(m-1) bounds the kernel's partial sums and n**m its totals: 64 and 128 meet int8's +127, (4, 5) to
# (5, 4) take int8 or int16 on either side of it, n**m = 16384, 32768 and 65536 meet int16's +32767, and
# n**(m-1) does at (16, 2).
@pytest.mark.parametrize("m,n", [(7, 2), (8, 2), (4, 5), (4, 6), (5, 3), (5, 4), (14, 2), (15, 2), (16, 2)])
def test_exact_kernel_widths_hold_the_extreme_values(m, n):
    boards = _planted_boards(m, n)
    for board, witness in boards:
        res = exact_max(board)
        assert res.value == n ** m and res.witness.vectors.tolist() == witness.tolist()
    values, witnesses = exact_max_batch(m, n, np.array([board.entries for board, _ in boards]))
    assert values.tolist() == [n ** m] * 3
    assert witnesses.tolist() == [witness.tolist() for _, witness in boards]


def _assert_batch_matches_exact_max(m, n, boards):
    values, witnesses = exact_max_batch(m, n, boards)
    assert values.dtype == np.int64 and witnesses.dtype == np.int8
    assert witnesses.shape == (len(boards), m, n)
    for row, value, witness in zip(boards, values, witnesses):
        res = exact_max(make_tensor(DimSpec(m, n), row))
        assert value == res.value
        assert witness.tobytes() == res.witness.vectors.tobytes()


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_exact_max_batch_matches_exact_max_on_every_board(m, n):
    _assert_batch_matches_exact_max(m, n, sign_rows(n ** m))


@pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (4, 3)])
def test_exact_max_batch_matches_exact_max_on_random_stacks(m, n, monkeypatch):
    # under a 2**13-byte budget, 300 boards fill more than one board block at every size here
    boards = generator(43, m, n).integers(0, 2, size=(300, n ** m), dtype=np.int8) * 2 - 1
    blocks = _kernel_blocks(monkeypatch, 1 << 13)
    exact_max_batch(m, n, boards)
    assert len(blocks) > 1
    _assert_batch_matches_exact_max(m, n, boards)


@pytest.mark.parametrize("m,n,seed", [(2, 16, 1), (3, 8, 0), (4, 6, 7), (5, 4, 9), (3, 9, 11)])
def test_exact_max_batch_when_maxima_span_blocks(m, n, seed, monkeypatch):
    # the first board is the one of test_exact_max_witness_when_maxima_span_blocks at the sizes that test has:
    # its maxima span 2**18-byte blocks, so they span the 2**16-byte blocks here too, which split every stack
    boards = np.stack([random_tensor(DimSpec(m, n), generator(seed, m, n, *extra)).entries
                       for extra in ((), (1,), (2,))])
    blocks = _kernel_blocks(monkeypatch, 1 << 16)
    exact_max_batch(m, n, boards)
    assert len(blocks) > 1
    _assert_batch_matches_exact_max(m, n, boards)


def test_exact_max_batch_every_4x4_board_matches_brute_force():
    boards = sign_rows(16)
    values, witnesses = exact_max_batch(2, 4, boards)
    expected_values, expected_witnesses = lex_first_batch_m2(boards)
    assert np.array_equal(values, expected_values)
    assert witnesses.tobytes() == expected_witnesses.tobytes()


def test_exact_max_batch_partial_board_block_matches_brute_force(monkeypatch):
    # a 2**17-byte budget holds the board view at 4 bytes per entry (4 * 16 bytes per board) of 2048 n = 4 boards, of
    # 2**3 visited assignments each: 2048 boards share a block, so the last of 2049 boards has a block to itself
    boards = generator(8, 2, 4).integers(0, 2, size=(2049, 16), dtype=np.int8) * 2 - 1
    boards[-1] = boards[0]
    blocks = _kernel_blocks(monkeypatch, 1 << 17)
    values, witnesses = exact_max_batch(2, 4, boards)
    assert len(blocks) == 2
    expected_values, expected_witnesses = lex_first_batch_m2(boards)
    assert np.array_equal(values, expected_values)
    assert witnesses.tobytes() == expected_witnesses.tobytes()


@pytest.mark.parametrize("m,n", WITNESS_SIZES)
def test_exact_max_batch_matches_lex_oracle_on_tie_heavy_boards(m, n):
    boards = _tie_heavy_boards(m, n)
    values, witnesses = exact_max_batch(m, n, np.stack([board.entries for board in boards]))
    for board, value, witness in zip(boards, values, witnesses):
        assert (value, witness.tolist()) == lex_first_exact(board)


def test_exact_max_batch_rejects_corrupted_witness(monkeypatch):
    # the kernel returns values and sign words; a wrong value, or a word whose witness reaches less, fails the
    # int64 witness pass of both exact_max and exact_max_batch
    kernel, stack = solvers._exact_kernel, sign_rows(9)
    target = make_tensor(DimSpec(2, 3), stack[5])
    value, word = (int(out[0]) for out in kernel(2, 3, target.entries[None]))
    flips = [j for j in range(3) if majority_fix(target, [_signs_at(word ^ 1 << j, 3)])[1] != value]
    assert flips  # a bit of x0 whose flip changes the form at the witness

    def corrupted(change):
        def run(m, n, boards, allow_large=False):
            values, index = kernel(m, n, boards, allow_large)
            hit = (boards == target.entries).all(axis=1)  # only the target's row changes
            bad_values, bad_index = change(values, index)
            return np.where(hit, bad_values, values), np.where(hit, bad_index, index)
        return run

    for change in (lambda values, index: (values + 2, index), lambda values, index: (values, index ^ 1 << flips[0])):
        monkeypatch.setattr(solvers, "_exact_kernel", corrupted(change))
        for solve in (lambda: exact_max_batch(2, 3, stack), lambda: exact_max(target)):
            with pytest.raises(AssertionError, match="witness re-evaluation mismatch"):
                solve()


def test_witness_pass_in_many_blocks(monkeypatch):
    # a budget of 16 boards' int64 copies splits 40 boards into witness blocks 0..15, 16..31 and 32..39
    m, n = 3, 3
    boards = generator(47, m, n).integers(0, 2, size=(40, n ** m), dtype=np.int8) * 2 - 1
    values, witnesses = exact_max_batch(m, n, boards)
    sign_of, blocks = solvers._sign_of, []
    monkeypatch.setattr(solvers, "_sign_of", lambda c: blocks.append(len(c)) or sign_of(c))
    monkeypatch.setattr(rng_module, "BLOCK_BYTES", 16 * 8 * n ** m)
    split_values, split_witnesses = exact_max_batch(m, n, boards)
    assert blocks == [16, 16, 8]
    assert np.array_equal(split_values, values) and split_witnesses.tobytes() == witnesses.tobytes()
    kernel = solvers._exact_kernel

    def corrupted(m, n, boards, allow_large=False):
        values, index = kernel(m, n, boards, allow_large)
        values[20] += 2
        return values, index

    monkeypatch.setattr(solvers, "_exact_kernel", corrupted)
    with pytest.raises(AssertionError, match=r"^witness re-evaluation mismatch in boards 16\.\.31$"):
        exact_max_batch(m, n, boards)


def test_one_board_solvers_reject_a_witness_that_does_not_re_evaluate(monkeypatch):
    monkeypatch.setattr(solvers, "evaluate", lambda tensor, witness: 99)
    with pytest.raises(AssertionError, match=r"^witness re-evaluation mismatch: 99 != 2$"):
        exact_max(CF)


def test_exact_max_batch_input_errors_before_kernel(monkeypatch):
    boards = sign_rows(4)
    values, witnesses = exact_max_batch(2, 2, boards.astype(np.float64))  # +/-1 floats pass, as in make_tensor
    assert values.tolist() == [exact_max(make_tensor(D22, row)).value for row in boards]
    # the kernel refuses these before it allocates anything, naming no lever (exact_max_batch has no allow_large)
    budget = r"^2\*\*31 assignments exceed the 2\*\*30 budget of exact enumeration$"
    for m, n in ((2, 32), (3, 16)):
        with pytest.raises(BudgetExceeded, match=budget):
            exact_max_batch(m, n, np.ones((1, n ** m), dtype=np.int8))

    def unreachable(m, n, stack):
        raise AssertionError("kernel reached")

    monkeypatch.setattr(solvers, "_exact_kernel", unreachable)
    cases = [
        ((2, 2, np.where(boards > 0, 2, -1)), NonUnimodularEntry),
        ((2, 2, boards > 0), NonUnimodularEntry),
        ((2, 2, boards.astype(np.complex128)), NonUnimodularEntry),
        ((1, 2, np.array([[1, -1]], dtype="m8[s]")), NonUnimodularEntry),
        ((2, 2, boards[:, :3]), LengthMismatch),
        ((2, 2, boards[0]), LengthMismatch),
        ((2, 2, boards.reshape(16, 2, 2)), LengthMismatch),
        ((2, 2, boards[:0]), ValueError),
    ]
    for args, error in cases:
        with pytest.raises(error) as excinfo:
            exact_max_batch(*args)
        assert excinfo.type is error


def test_sign_rows_lexicographic():
    assert sign_rows(2).tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    assert sign_rows(3)[5:7].tolist() == [[1, -1, 1], [1, 1, -1]]
    assert sign_rows(0).shape == (1, 0)
    bits = 14
    small = sign_rows(bits)
    assert small.dtype == np.int8 and small.flags.writeable and small is not sign_rows(bits)
    big = sign_rows(bits + 1)
    assert np.array_equal(_signs_at(np.arange(3, 9), bits + 1), big[3:9])
    assert np.array_equal(_signs_at(9, bits + 1), big[9])  # an int gives one row
    assert np.array_equal(big[:, 1:], np.vstack([small, small]))
    assert np.array_equal(big[:, 0], np.repeat([-1, 1], 1 << bits))
    assert _signs_at(np.arange(2**39 - 1, 2**39 + 1), 40).tolist() == [[-1] + [1] * 39, [1] + [-1] * 39]


def test_normal_form_boards_shape_and_order():
    boards = normal_form_boards(2, 2)
    assert boards.dtype == np.int8 and boards.tolist() == [[1, 1, 1, -1], [1, 1, 1, 1]]
    boards = normal_form_boards(2, 3)  # free entries (1,1), (1,2), (2,1), (2,2) take sign_rows(4) in order
    assert np.array_equal(boards[:, [4, 5, 7, 8]], sign_rows(4))
    assert (boards[:, [0, 1, 2, 3, 6]] == 1).all()


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_normal_form_boards_has_a_row_per_free_sign_vector(m, n, monkeypatch):
    free = n ** m - m * (n - 1) - 1
    asked = []

    def recorded(idx, nbits):  # (3, 3) has 2**20 rows: record F, build no sign table
        asked.append((len(idx), nbits))
        return _signs_at(idx, nbits) if nbits <= 16 else np.ones((0, nbits), dtype=np.int8)

    monkeypatch.setattr(solvers, "_signs_at", recorded)
    boards = normal_form_boards(m, n)
    assert asked == [(1 << free, free)]
    assert boards.shape == (1 << free if free <= 16 else 0, n ** m)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
def test_normal_form_histogram_times_orbit_size_is_full_histogram(m, n):
    full_values, full_counts = np.unique(exact_max_batch(m, n, sign_rows(n ** m))[0], return_counts=True)
    values, counts = np.unique(exact_max_batch(m, n, normal_form_boards(m, n))[0], return_counts=True)
    assert np.array_equal(values, full_values)
    assert np.array_equal(counts << m * (n - 1) + 1, full_counts)
    census = value_census(m, n)
    assert list(census) == full_values.tolist() and list(census.values()) == full_counts.tolist()


def test_value_census_is_the_same_in_many_blocks(monkeypatch):
    one_block = value_census(2, 4)
    blocks = []

    def recorded(m, n, entries):
        blocks.append(len(entries))
        return exact_max_batch(m, n, entries)

    # 8 boards of 16 entries per census block; a kernel block would hold the c of 4 boards of 2**3 assignments,
    # but the board view at 4 bytes per entry caps it at 2 boards
    kernel_blocks = _kernel_blocks(monkeypatch, 128)
    monkeypatch.setattr(solvers, "exact_max_batch", recorded)
    assert value_census(2, 4) == one_block
    assert blocks == [8] * 64  # 2**9 normal forms in blocks of 2**3
    assert len(kernel_blocks) == 256


def test_value_census_3x3x3_histogram():
    census = value_census(3, 3)
    assert census == {9: 294912, 11: 25728000, 13: 61620480, 15: 33716736, 17: 10188288, 19: 2246400,
                      21: 374400, 23: 44928, 25: 3456, 27: 128}
    assert min(census) == 9 and sum(census.values()) == 2 ** 27


@pytest.mark.parametrize("m,n,error", [(2, 7, BudgetExceeded), (5, 2, BudgetExceeded), (40, 2, BudgetExceeded),
                                       (41, 2, SizeOverflow)])
def test_value_census_refuses_before_any_array(m, n, error, monkeypatch):
    class Unreachable:
        def __getattr__(self, name):
            raise AssertionError(f"value_census reached np.{name}")

    monkeypatch.setattr(solvers, "np", Unreachable())
    with pytest.raises(error):
        value_census(m, n)


@pytest.mark.parametrize("m", range(1, 11))
def test_exact_max_batch_matches_walsh_oracle_at_n_2(m):
    boards = sign_draws([mix(43, m)], 6, 2 ** m)[0]
    assert np.array_equal(exact_max_batch(m, 2, boards)[0], walsh_values(boards))
    if m <= 4:
        forms = normal_form_boards(m, 2)
        assert np.array_equal(exact_max_batch(m, 2, forms)[0], walsh_values(forms))
        values, counts = np.unique(walsh_values(sign_rows(2 ** m)), return_counts=True)
        assert value_census(m, 2) == dict(zip(values.tolist(), counts.tolist()))


def _normalising_switch(board):
    """The switch that makes +1 every entry on the axis lines through the origin."""
    m, arr = board.dims.m, board.view()
    lines = [arr[(0,) * a + (slice(None),) + (0,) * (m - 1 - a)] for a in range(m)]
    return make_assignment(board.dims, [lines[0]] + [line * arr[(0,) * m] for line in lines[1:]])


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
def test_every_board_switches_into_one_normal_form(m, n):
    dims = DimSpec(m, n)
    hits = dict.fromkeys((row.tobytes() for row in normal_form_boards(m, n)), 0)
    for row in sign_rows(n ** m):
        board = make_tensor(dims, row)
        switched = apply_switch(board, _normalising_switch(board))
        key = switched.entries.tobytes()
        assert key in hits
        assert exact_max(switched).value == exact_max(board).value
        hits[key] += 1
    assert set(hits.values()) == {1 << m * (n - 1) + 1}  # every class is one orbit of the full size


def test_majority_fix_examples():
    last, value = majority_fix(CF, [np.array([1, 1])])
    assert last.tolist() == [1, 1]  # tie at c_1 = 0 breaks to +1
    assert value == 2

    dims = DimSpec(2, 4)
    ones = make_tensor(dims, [1] * 16)
    last, value = majority_fix(ones, [np.array([1, 1, 1, 1])])
    assert value == 16


def test_majority_fix_rejects_non_sign_partial():
    # the +/-1 rule of make_tensor: bool, complex and object vectors fail even when every |entry| is 1
    for partial in (np.array([1, 0]), np.array([True, True]), np.array([1, -1], dtype=complex),
                    np.array([1, -1], dtype=object)):
        with pytest.raises(NonUnimodularEntry):
            majority_fix(CF, [partial])


def test_majority_fix_dominates_all_candidates():
    rng = generator(3)
    dims = DimSpec(2, 4)
    candidates = all_sign_vectors(4)
    for _ in range(25):
        t = random_tensor(dims, rng)
        partial = [rng.integers(0, 2, 4, dtype=np.int8) * 2 - 1]
        last, value = majority_fix(t, partial)
        for cand in candidates:
            v = evaluate(t, make_assignment(dims, [partial[0], cand.astype(np.int8)]))
            assert v <= value
        assert evaluate(t, make_assignment(dims, [partial[0], last])) == value


def test_random_restart_greedy_small_board_always_optimal():
    for seed in (0, 1, 2, 99):
        res = random_restart_greedy(CF, 16, seed)
        assert res.value == 2
        assert res.method is Method.RANDOM_RESTART
        assert res.evaluations == 16


def test_random_restart_greedy_monotone_in_restarts():
    t = random_tensor(DimSpec(2, 8), generator(7))
    values = [random_restart_greedy(t, k, 5).value for k in (1, 2, 4, 8, 16)]
    assert values == sorted(values)


def test_random_restart_greedy_deterministic():
    t = random_tensor(DimSpec(3, 3), generator(8))
    a = random_restart_greedy(t, 10, 77)
    b = random_restart_greedy(t, 10, 77)
    assert a.value == b.value
    assert a.witness == b.witness


def test_local_search_fixed_point():
    dims = DimSpec(2, 3)
    ones = make_tensor(dims, [1] * 9)
    start = make_assignment(dims, np.ones((2, 3), dtype=np.int8))
    res = local_search(ones, start)
    assert res.value == 9
    assert res.witness == start
    assert res.method is Method.LOCAL_SEARCH


def test_local_search_climbs_out():
    start = make_assignment(D22, [[-1, 1], [1, 1]])
    assert evaluate(CF, start) == -2
    res = local_search(CF, start)
    assert res.value == 2


def test_local_search_budget_domain():
    start = make_assignment(D22, [[-1, 1], [1, 1]])
    assert local_search(CF, start, max_sweeps=0).value == -2  # a zero budget returns the start
    with pytest.raises(ValueError, match="max_sweeps must be >= 0, got -1"):
        local_search(CF, start, max_sweeps=-1)
    # a start of other dims is refused before any contraction
    board = make_tensor(DimSpec(3, 2), [1] * 8)
    for dims in (D22, DimSpec(3, 3)):
        with pytest.raises(DimMismatch, match="dimension mismatch"):
            local_search(board, make_assignment(dims, np.ones((dims.m, dims.n), dtype=np.int8)))


def test_local_search_bounded_by_exact():
    rng = generator(31)
    dims = DimSpec(2, 5)
    for _ in range(20):
        t = random_tensor(dims, rng)
        start = make_assignment(dims, rng.integers(0, 2, (2, 5), dtype=np.int8) * 2 - 1)
        res = local_search(t, start)
        assert evaluate(t, start) <= res.value <= exact_max(t).value
        # its own output is a local optimum
        again = local_search(t, res.witness)
        assert again.value == res.value and again.witness == res.witness


def test_classify_extremal_lists_exactly_eight():
    base = [
        [1, 1, 1, -1],
        [1, 1, -1, 1],
        [1, -1, 1, 1],
        [-1, 1, 1, 1],
    ]
    hits = []
    for board in all_boards(2):
        assert classify_extremal(board) == (exact_max(board).value == 2)
        if classify_extremal(board):
            hits.append(tuple(int(e) for e in board.entries))
    expected = set()
    for pattern in base:
        expected.add(tuple(pattern))
        expected.add(tuple(-v for v in pattern))
    assert set(hits) == expected
    assert len(hits) == 8


def test_classify_extremal_other_sizes():
    assert not classify_extremal(make_tensor(DimSpec(2, 3), [1] * 9))
    # entry product -1 is not enough off the 2x2 size
    assert not classify_extremal(make_tensor(DimSpec(2, 3), [-1] + [1] * 8))
    assert not classify_extremal(make_tensor(DimSpec(1, 4), [1, 1, -1, 1]))
    assert not classify_extremal(make_tensor(DimSpec(3, 2), [1] * 7 + [-1]))
    assert not classify_extremal(random_tensor(DimSpec(3, 2), generator(2)))
    # no 3x3 board can attain 2**(-1/2) * 3**(3/2): the value is an odd integer
    assert all(exact_max(b).value != 2 ** (-0.5) * 3**1.5 for b in list(all_boards(3))[:64])


def test_minimum_bound_small_sizes():
    # every 2x2..4x4 board reaches 2**(-1/2) n**(3/2); checked here for n <= 3
    for n in (2, 3):
        floor_bound = 2 ** (-0.5) * n**1.5
        assert min(exact_max(b).value for b in all_boards(n)) >= floor_bound - 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=120, deadline=None)
def test_exact_max_switch_invariance(seed, m, n):
    rng = generator(seed)
    dims = DimSpec(m, n)
    t = random_tensor(dims, rng)
    s = make_assignment(dims, rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1)
    assert exact_max(apply_switch(t, s)).value == exact_max(t).value


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=120, deadline=None)
def test_exact_max_permutation_invariance(seed, m, n):
    rng = generator(seed)
    dims = DimSpec(m, n)
    t = random_tensor(dims, rng)
    value = exact_max(t).value
    axis_perm = rng.permutation(m)
    permuted = make_tensor(dims, np.transpose(t.view(), axes=axis_perm).reshape(-1))
    assert exact_max(permuted).value == value
    index_perm = rng.permutation(n)
    axis = int(rng.integers(0, m))
    reindexed = make_tensor(dims, np.take(t.view(), index_perm, axis=axis).reshape(-1))
    assert exact_max(reindexed).value == value


def test_equality_case_of_trivial_upper_bound():
    # |value| <= n**m with equality exactly on switch images of all-ones
    rng = generator(12)
    dims = DimSpec(2, 3)
    s = make_assignment(dims, rng.integers(0, 2, (2, 3), dtype=np.int8) * 2 - 1)
    ones = make_tensor(dims, [1] * 9)
    assert exact_max(apply_switch(ones, s)).value == 9
    t = random_tensor(dims, rng)
    if exact_max(t).value == 9:
        # witness switches t back to all-ones
        res = exact_max(t)
        assert apply_switch(t, res.witness) == ones


def test_lower_bound_formula_exhaustive_small():
    for n in (2, 3):
        bound = n ** 1.5 / km_constant(2)
        for board in all_boards(n):
            assert exact_max(board).value >= bound


def test_lower_bound_formula_sampled_m3():
    # n**((m+1)/2) / (1.3 m**0.365) holds on sampled order-3 boards
    rng = generator(41)
    for n in (2, 3):
        bound = n ** 2 / km_constant(3)
        for _ in range(100):
            t = random_tensor(DimSpec(3, n), rng)
            assert exact_max(t).value >= bound


@pytest.mark.parametrize("m,n,seed", [(1, 5, 0), (2, 2, 9), (2, 6, 0), (3, 3, 6), (4, 2, 8), (2, 64, 7), (3, 16, 7)])
def test_random_restart_greedy_matches_per_restart_loop(monkeypatch, m, n, seed):
    assert tensor_module.MAX_ENTRIES < 2 ** 53  # so the float64 contractions of +/-1 boards are exact
    board = random_tensor(DimSpec(m, n), generator(seed))
    value, witness, first = greedy_loop(board, 40, seed)
    row = 8 * n ** max(1, m - 1)  # a restart's float64 first contraction
    for rows, budget in ((1, row), (2, 2 * row), (None, rng_module.BLOCK_BYTES)):
        monkeypatch.setattr(rng_module, "BLOCK_BYTES", budget)
        if m >= 2 and rows:
            assert first >= rows  # the first maximum lies in a later block of ``rows`` restarts
        res = random_restart_greedy(board, 40, seed)
        assert (res.value, res.witness.vectors.tobytes(), res.evaluations) == (value, witness.tobytes(), 40)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 5), (2, 9), (3, 3), (4, 2), (2, 64), (3, 12), (4, 5)])
def test_local_search_matches_per_axis_loop(m, n):
    rng = generator(m, n)
    cases = []
    for i in range(6):
        board = random_tensor(DimSpec(m, n), rng)
        cases.append((board, make_assignment(board.dims, rng.integers(0, 2, (m, n), dtype=np.int8) * 2 - 1)))
    # the rank-one board u_0 x ... x u_(m-1) from (-u_0, u_1, ...): all m*n first gains tie at 2 n**(m-1)
    u = make_assignment(DimSpec(m, n), rng.integers(0, 2, (m, n), dtype=np.int8) * 2 - 1)
    board = apply_switch(make_tensor(u.dims, [1] * n ** m), u)
    start = make_assignment(u.dims, u.vectors * np.array([-1] + [1] * (m - 1), dtype=np.int8)[:, None])
    for a in range(m):
        c = partial_contraction(board, a, [start.vectors[b] for b in range(m) if b != a])
        assert (-2 * start.vectors[a] * c == 2 * n ** (m - 1)).all()
    cases.append((board, start))
    for board, start in cases:
        for max_sweeps in (1, 3, 10_000):
            value, witness, evaluations = local_search_loop(board, start, max_sweeps)
            res = local_search(board, start, max_sweeps)
            assert (res.value, res.witness.vectors.tobytes(), res.evaluations) == (value, witness.tobytes(), evaluations)
