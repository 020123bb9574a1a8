import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contraction_loop, loop_form_value
from gbswitch.lp import lp_norm
from gbswitch.rng import MAX_DRAW_ENTRIES
from gbswitch.tensor import MAX_ENTRIES, _contract, _row_norms
from gbswitch import (
    AxisOutOfRange,
    BudgetExceeded,
    DimMismatch,
    DimSpec,
    InvalidExponent,
    LengthMismatch,
    NonUnimodularEntry,
    SizeOverflow,
    all_ones_assignment,
    apply_switch,
    evaluate,
    evaluate_real,
    from_json_dict,
    generator,
    make_assignment,
    make_tensor,
    mixed_norm,
    partial_contraction,
    random_tensor,
    read_tensor,
    to_json_dict,
    write_tensor,
)

D22 = DimSpec(2, 2)


def test_make_tensor_layout():
    t = make_tensor(D22, [1, 1, 1, -1])
    # row-major, axis 0 slowest: entry (1,1) is flat index 3
    assert t.view()[0, 0] == 1 and t.view()[0, 1] == 1
    assert t.view()[1, 0] == 1 and t.view()[1, 1] == -1


def test_make_tensor_rejects_non_unimodular():
    with pytest.raises(NonUnimodularEntry):
        make_tensor(D22, [1, 0, 1, 1])
    with pytest.raises(NonUnimodularEntry):
        make_tensor(D22, [1, 0.5, 1, 1])
    with pytest.raises(NonUnimodularEntry):
        make_tensor(D22, [1, 1j, 1, 1])  # complex unimodular entries are out of scope
    with pytest.raises(NonUnimodularEntry):
        make_tensor(D22, [True, True, True, True])
    with pytest.raises(NonUnimodularEntry):
        make_tensor(DimSpec(1, 2), np.array([1, -1], dtype="m8[s]"))  # |timedelta| == 1 second is no sign


def test_make_tensor_rejects_wrong_length():
    with pytest.raises(LengthMismatch):
        make_tensor(DimSpec(3, 2), [1] * 7)


def test_dimspec_guards():
    with pytest.raises(ValueError):
        DimSpec(0, 3)
    with pytest.raises(ValueError):
        DimSpec(2, 0)
    for m, n in ((True, 2), (2, 2.0), ("2", 2)):
        with pytest.raises(ValueError, match="m and n must be integers") as excinfo:
            DimSpec(m, n)
        assert excinfo.type is ValueError
    with pytest.raises(SizeOverflow):
        DimSpec(5, 300)  # 300**5 > 2**40


def test_dimspec_huge_degree_fails_fast():
    assert DimSpec(40, 2).size == MAX_ENTRIES and DimSpec(40, 1).size == 1
    with pytest.raises(SizeOverflow, match=r"n\*\*m = 2\*\*41 exceeds 2\*\*40 entries or 40 axes"):
        DimSpec(41, 2)
    with pytest.raises(SizeOverflow, match=r"n\*\*m = 1\*\*41 exceeds 2\*\*40 entries or 40 axes"):
        DimSpec(41, 1)  # one entry, but more axes than a board may have
    t0 = time.perf_counter()
    for n in (1, 2):
        with pytest.raises(SizeOverflow, match=rf"n\*\*m = {n}\*\*10{{30}} exceeds 2\*\*40 entries or 40 axes"):
            DimSpec(10 ** 30, n)  # refused without computing n**(10**30)
    assert time.perf_counter() - t0 < 1


def test_entries_read_only():
    t = make_tensor(D22, [1, 1, 1, -1])
    with pytest.raises(ValueError):
        t.entries[0] = -1


def test_evaluate_examples():
    t = make_tensor(D22, [1, 1, 1, -1])
    assert evaluate(t, make_assignment(D22, [[1, 1], [1, 1]])) == 2
    assert evaluate(t, make_assignment(D22, [[1, -1], [1, 1]])) == 2
    ones33 = make_tensor(DimSpec(2, 3), [1] * 9)
    assert evaluate(ones33, all_ones_assignment(DimSpec(2, 3))) == 9


def test_evaluate_dim_mismatch():
    t = make_tensor(D22, [1, 1, 1, -1])
    with pytest.raises(DimMismatch):
        evaluate(t, all_ones_assignment(DimSpec(2, 3)))
    with pytest.raises(DimMismatch, match=r"^expected 2 vectors of length 2, got shape \(2, 3\)$"):
        make_assignment(D22, [[1, 1, 1], [1, -1, 1]])
    with pytest.raises(DimMismatch, match=r"^expected 2 vectors, got 1$"):
        evaluate_real(t, [np.ones(2)])
    with pytest.raises(DimMismatch, match=r"^expected vectors of length 2, got shape \(3,\)$"):
        evaluate_real(t, [np.ones(2), np.ones(3)])


def test_equality_with_another_type_is_not_implemented():
    t, s = make_tensor(D22, [1, 1, 1, -1]), all_ones_assignment(D22)
    for obj, other in ((t, s), (s, t), (t, "t"), (s, None)):
        assert obj.__eq__(other) is NotImplemented
        assert obj != other


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_evaluate_real_is_the_contraction_loop(m):
    rng = np.random.default_rng(m)
    for n in (2, 3, 5, 8):
        for k in range(10):
            board = random_tensor(DimSpec(m, n), generator(m, n, k))
            vecs = [rng.standard_normal(n) for _ in range(m)]
            assert evaluate_real(board, vecs) == float(contraction_loop(board, 0, vecs[1:]) @ vecs[0])


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_index_loops_and_parity(seed, m, n):
    rng = generator(seed)
    dims = DimSpec(m, n)
    t = random_tensor(dims, rng)
    s = make_assignment(dims, rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1)
    value = evaluate(t, s)
    assert value == loop_form_value(t, s.vectors)
    assert abs(value) <= n**m
    assert (value - n**m) % 2 == 0


def test_partial_contraction_axis_examples():
    t = make_tensor(D22, [1, 1, 1, -1])
    y = np.array([1, 1])
    assert partial_contraction(t, 0, [y]).tolist() == [2, 0]
    assert partial_contraction(t, 1, [y]).tolist() == [2, 0]


def test_partial_contraction_matches_double_loop():
    dims = DimSpec(3, 2)
    rng = generator(11)
    t = random_tensor(dims, rng)
    x1 = np.array([1, -1])
    x2 = np.array([-1, 1])
    c = partial_contraction(t, 2, [x1, x2])
    view = t.view()
    for k in range(2):
        expected = sum(
            int(view[i1, i2, k]) * int(x1[i1]) * int(x2[i2]) for i1 in range(2) for i2 in range(2)
        )
        assert c[k] == expected


def test_partial_contraction_is_evaluate_factor():
    dims = DimSpec(3, 3)
    rng = generator(5)
    t = random_tensor(dims, rng)
    vecs = rng.integers(0, 2, size=(3, 3), dtype=np.int8) * 2 - 1
    for axis in range(3):
        others = [vecs[j] for j in range(3) if j != axis]
        c = partial_contraction(t, axis, others)
        assert int(c @ vecs[axis]) == evaluate(t, make_assignment(dims, vecs))


@pytest.mark.parametrize("m,n", [(1, 4), (2, 1), (2, 3), (2, 40), (3, 5), (4, 3)])
def test_partial_contraction_matches_matmul_loop(m, n):
    rng = np.random.default_rng(m * 100 + n)
    t = random_tensor(DimSpec(m, n), generator(m, n))
    for axis in range(m):
        kinds = (rng.standard_normal((m - 1, n)), rng.integers(-3, 4, (m - 1, n)).astype(np.int8),
                 rng.standard_normal((m - 1, n)).astype(np.float32))
        for vecs in kinds:
            got, want = partial_contraction(t, axis, list(vecs)), contraction_loop(t, axis, list(vecs))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes() and got.flags.writeable
        # a stack contracts each row exactly as partial_contraction contracts it alone
        stack = rng.standard_normal((5, m - 1, n))
        moved = np.moveaxis(t.view().astype(np.float64), axis, 0)
        rows = [partial_contraction(t, axis, list(v)).astype(np.float64).tobytes() for v in stack]  # int64 at m = 1
        assert [row.tobytes() for row in _contract(moved, stack)] == rows


def _wide_stacks(rng, shape):
    """Float64 stacks whose sums depend on their order: wide magnitudes, zeros, overflow, inf - inf = nan.

    No entry is nan: which nan payload and sign a sum with a nan operand keeps depends on the order of
    its operands, not only of its terms, and no stack the ascent contracts holds one.
    """
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
    zeros = np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0], shape), wide)
    huge = rng.choice([-1.5e308, 1.5e308, 1e300, -1e-300], shape)
    infinite = rng.choice([math.inf, -math.inf, -0.0, 1.0, -2.5], shape)
    return wide, zeros, huge, infinite, np.full(shape, -0.0)


@pytest.mark.parametrize("m,n", [(3, n) for n in range(1, 22)] + [(4, 5), (4, 6), (5, 4), (6, 3), (3, 64), (4, 24)])
def test_contract_lead_step_matches_strided_matmul(m, n):
    # the einsum over the axis-(m-2)-led copy adds in the strided matmul's order: the same bytes, nan and -0.0 included
    rng = np.random.default_rng(1000 * m + n)
    typed = random_tensor(DimSpec(m, n), generator(m, n)).view().astype(np.float64)
    moved, lead = np.moveaxis(typed, m - 1, 0), np.moveaxis(typed, (m - 2, m - 1), (0, 1)).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for s in (1, 8, 33):
            for stack in _wide_stacks(rng, (s, m - 1, n)):
                step = _contract(moved, stack[:, -1:], lead)  # a one-vector stack runs the lead step alone
                strided = (moved @ stack[:, -1].reshape(s, *(1,) * (m - 2), -1, 1))[..., 0]
                assert step.tobytes() == strided.tobytes() and step.flags.c_contiguous
                assert _contract(moved, stack, lead).tobytes() == _contract(moved, stack).tobytes()


def test_partial_contraction_errors():
    t = make_tensor(D22, [1, 1, 1, -1])
    with pytest.raises(AxisOutOfRange):
        partial_contraction(t, 2, [np.array([1, 1])])
    with pytest.raises(DimMismatch):
        partial_contraction(t, 0, [])
    with pytest.raises(DimMismatch):
        partial_contraction(t, 0, [np.array([1, 1, 1])])


def test_apply_switch_examples():
    ones = make_tensor(D22, [1, 1, 1, 1])
    flipped = apply_switch(ones, make_assignment(D22, [[1, -1], [1, 1]]))
    assert flipped.view().tolist() == [[1, 1], [-1, -1]]

    t = make_tensor(D22, [1, 1, 1, -1])
    assert apply_switch(t, all_ones_assignment(D22)) == t
    res = apply_switch(t, make_assignment(D22, [[1, -1], [1, -1]]))
    assert res.view().tolist() == [[1, -1], [-1, -1]]


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_switch_action_properties(seed, m, n):
    rng = generator(seed)
    dims = DimSpec(m, n)
    t = random_tensor(dims, rng)
    s = make_assignment(dims, rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1)
    switched = apply_switch(t, s)
    # involution
    assert apply_switch(switched, s) == t
    # switching then reading the plain sum equals evaluating the switches
    assert evaluate(switched, all_ones_assignment(dims)) == evaluate(t, s)


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=150, deadline=None)
def test_evaluate_permutation_invariance(seed, m, n):
    rng = generator(seed)
    dims = DimSpec(m, n)
    t = random_tensor(dims, rng)
    vecs = rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1
    value = evaluate(t, make_assignment(dims, vecs))

    axis_perm = rng.permutation(m)
    permuted_t = make_tensor(dims, np.transpose(t.view(), axes=axis_perm).reshape(-1))
    permuted_vecs = vecs[axis_perm]
    assert evaluate(permuted_t, make_assignment(dims, permuted_vecs)) == value

    index_perm = rng.permutation(n)
    axis = int(rng.integers(0, m))
    reindexed = np.take(t.view(), index_perm, axis=axis)
    vecs2 = vecs.copy()
    vecs2[axis] = vecs[axis][index_perm]
    assert evaluate(make_tensor(dims, reindexed.reshape(-1)), make_assignment(dims, vecs2)) == value


def test_mixed_norm_examples():
    ones = make_tensor(D22, [1, 1, 1, 1])
    assert mixed_norm(ones, (2, 1)) == pytest.approx(math.sqrt(8), abs=1e-12)
    # all exponents equal collapses to the plain lr norm
    t = make_tensor(D22, [1, 1, 1, -1])
    assert mixed_norm(t, (3, 3)) == pytest.approx(4 ** (1 / 3), abs=1e-12)
    assert mixed_norm(t, (math.inf, math.inf)) == 1.0
    # rows are scaled by their largest entry, so no power overflows or underflows
    assert mixed_norm(np.full(3, 10.0), [400]) == pytest.approx(10 * 3 ** (1 / 400), rel=1e-15)
    assert mixed_norm(np.full((2, 3), 1e-200), [2, 2]) == pytest.approx(math.sqrt(6) * 1e-200, rel=1e-15)
    assert mixed_norm([math.inf, 1.0], [2]) == math.inf
    with pytest.warns(RuntimeWarning, match="overflow"):  # 2.0 ** 2000: inf, as numpy's scalar pow gives
        assert mixed_norm(np.ones(2), [0.0005]) == math.inf
    assert mixed_norm(np.zeros((0, 3)), [2, 2]) == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("p", [0.0005, 0.5, 1.0, 4 / 3, 2.0, 3.0, 7.5, 400.0, math.inf])
def test_row_norms_final_power_matches_numpy_scalar_pow(p, rng):
    # rows over 600 decades, constant rows, zero rows, an inf row and a row whose sum overflows at p = 0.0005
    a = np.abs(rng.normal(size=(2000, 6))) * 10.0 ** rng.integers(-300, 300, size=(2000, 1))
    a = np.vstack((a, np.ones((3, 6)), np.zeros((2, 6)), [[math.inf] + [1.0] * 5]))
    top = a.max(axis=1, initial=0.0)
    if math.isinf(p):
        expected = top
    else:
        sums = ((a / np.where(np.isfinite(top) & (top > 0), top, 1.0)[:, None]) ** p).sum(axis=1)
        expected = np.array([t * float(s ** (1.0 / p)) for t, s in zip(top.tolist(), sums)])  # numpy scalar pow
    assert _row_norms(a, p).tobytes() == expected.tobytes()


def test_mixed_norm_collapse_random(rng):
    a = rng.normal(size=(4, 5, 3))
    for r in (0.5, 1.0, 2.0, 3.7):
        direct = float((np.abs(a) ** r).sum() ** (1 / r))
        assert mixed_norm(a, (r, r, r)) == pytest.approx(direct, rel=1e-12)


def test_mixed_norm_contracts_last_axis_first(rng):
    a = rng.normal(size=(3, 4))
    # direct summation oracle for inner q1 over the last axis, outer q0
    q0, q1 = 2.0, 1.0
    inner = (np.abs(a) ** q1).sum(axis=1) ** (1 / q1)
    expected = float((inner ** q0).sum() ** (1 / q0))
    assert mixed_norm(a, (q0, q1)) == pytest.approx(expected, rel=1e-12)


def test_mixed_norm_errors():
    t = make_tensor(D22, [1, 1, 1, -1])
    with pytest.raises(InvalidExponent):
        mixed_norm(t, (0.0, 2.0))
    with pytest.raises(InvalidExponent):
        mixed_norm(t, (-1.0, 2.0))
    with pytest.raises(DimMismatch):
        mixed_norm(t, (2.0,))
    # lp_norm is mixed_norm with one exponent, so it has the same domain
    assert lp_norm([], 2) == 0.0
    for p in (0, -1, math.nan):
        with pytest.raises(InvalidExponent, match="exponents must be > 0"):
            lp_norm([1, 0, 2], p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_minkowski_mixed_norm_inequality(seed):
    rng = generator(seed)
    n = int(rng.integers(1, 7))
    a = rng.normal(size=(n, n)) * rng.integers(1, 10)
    p = float(rng.uniform(0.2, 4.0))
    q = p + float(rng.uniform(0.05, 4.0))
    lhs = mixed_norm(a.T, (q, p))
    rhs = mixed_norm(a, (p, q))
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_json_roundtrip(tmp_path):
    dims = DimSpec(3, 2)
    t = random_tensor(dims, generator(3))
    path = tmp_path / "t.json"
    write_tensor(path, t)
    assert read_tensor(path) == t
    obj = json.loads(path.read_text())
    assert set(obj) == {"m", "n", "entries"}
    assert obj["m"] == 3 and obj["n"] == 2
    assert all(e in (-1, 1) for e in obj["entries"])


def test_read_tensor_refuses_an_oversized_file_unparsed(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("json.load reached")

    monkeypatch.setattr(json, "load", unreachable)
    path = tmp_path / "huge.json"
    with open(path, "wb") as fh:
        fh.truncate(8 * MAX_DRAW_ENTRIES + 4097)  # sparse: no disk, no memory
    with pytest.raises(BudgetExceeded, match="has 1073745921 bytes; the limit is 1073745920 "):
        read_tensor(path)


def test_json_reader_rejections():
    good = {"m": 2, "n": 2, "entries": [1, 1, 1, -1]}
    assert from_json_dict(good).view().tolist() == [[1, 1], [1, -1]]
    with pytest.raises(NonUnimodularEntry):
        from_json_dict({**good, "entries": [1, 0, 1, 1]})
    with pytest.raises(NonUnimodularEntry):
        from_json_dict({**good, "entries": [1, 1.0, 1, -1]})
    with pytest.raises(NonUnimodularEntry):
        from_json_dict({**good, "entries": [1, True, 1, -1]})
    with pytest.raises(LengthMismatch):
        from_json_dict({**good, "entries": [1, 1, 1]})
    with pytest.raises(ValueError):
        from_json_dict({"m": 2, "entries": [1, 1, 1, -1]})
    with pytest.raises(ValueError):
        from_json_dict({**good, "extra": 1})
    with pytest.raises(ValueError):
        from_json_dict({**good, "m": 2.0})
    with pytest.raises(ValueError):
        from_json_dict([1, 1, 1, -1])
    with pytest.raises(ValueError, match="^tensor JSON field entries must be an array$"):
        from_json_dict({**good, "entries": "1,1,1,-1"})


class _One(int):
    """An int subclass: the entry check accepts it as the int it is."""


@pytest.mark.parametrize("bad", [0, 2, -2, 2**70, -(2**70), True, False, 1.0, -1.0, 0.5, float("nan"),
                                 "1", None, [1], {"v": 1}, _One(2)])
@pytest.mark.parametrize("where", [0, 5, 8])
def test_json_entries_rejected_like_the_loop(bad, where):
    entries = [1, -1, 1, 1, -1, -1, 1, 1, -1]
    entries[where] = bad
    with pytest.raises(NonUnimodularEntry, match=r"found " + re.escape(repr(bad)) + "$"):
        from_json_dict({"m": 2, "n": 3, "entries": entries})


def test_json_entries_accepts_int_subclasses():
    entries = [1, -1, _One(1), 1]
    assert from_json_dict({"m": 2, "n": 2, "entries": entries}).entries.tolist() == [1, -1, 1, 1]


def test_to_json_dict_is_plain_ints():
    t = make_tensor(D22, [1, 1, 1, -1])
    obj = to_json_dict(t)
    assert obj == {"m": 2, "n": 2, "entries": [1, 1, 1, -1]}
    assert all(type(e) is int for e in obj["entries"])
