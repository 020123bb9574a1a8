import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alternating_max_loop, ascent_runs, best_run, dual_coords_vector
from gbswitch import (
    DimSpec,
    InvalidExponent,
    LpPoint,
    alternating_max,
    dual_update,
    evaluate_real,
    exact_max,
    g_lower_bound_formula,
    generator,
    km_constant,
    make_tensor,
    random_tensor,
    weak_l1_norm,
)
from gbswitch import rng as rng_module
from gbswitch.lp import lp_norm
from gbswitch.rng import sign_vector
from gbswitch.tensor import SignTensor

D22 = DimSpec(2, 2)
CF = make_tensor(D22, [1, 1, 1, -1])

P_CHOICES = (1.0, Fraction(4, 3), 1.5, 2.0, 3.0, 7.0, math.inf)


def test_dual_update_euclidean():
    point, value = dual_update(np.array([3.0, -4.0]), 2)
    assert value == pytest.approx(5.0, abs=1e-12)
    assert point.coords == pytest.approx([0.6, -0.8], abs=1e-12)


def test_dual_update_sup_norm():
    point, value = dual_update(np.array([1.0, -2.0, 3.0]), math.inf)
    assert point.coords.tolist() == [1.0, -1.0, 1.0]
    assert value == 6.0


def test_dual_update_p4():
    point, value = dual_update(np.array([1.0, 1.0]), 4)
    assert value == pytest.approx(2 ** 0.75, rel=1e-12)
    assert point.coords == pytest.approx([2 ** -0.25, 2 ** -0.25], rel=1e-12)


def test_dual_update_p1_tie_break():
    point, value = dual_update(np.array([2.0, -2.0]), 1)
    assert point.coords.tolist() == [1.0, 0.0]
    assert value == 2.0


def test_dual_update_zero_vector():
    point, value = dual_update(np.zeros(4), 3)
    assert value == 0.0
    assert point.coords.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_dual_update_rejects_bad_exponent():
    with pytest.raises(InvalidExponent):
        dual_update(np.array([1.0]), 0.5)


def test_dual_update_sign_zero_convention():
    point, _ = dual_update(np.array([0.0, 2.0]), math.inf)
    assert point.coords.tolist() == [1.0, 1.0]


@given(st.integers(0, 2**32 - 1), st.sampled_from(P_CHOICES))
@settings(max_examples=250, deadline=None)
def test_dual_update_optimal_and_feasible(seed, p):
    rng = generator(seed)
    n = int(rng.integers(1, 9))
    c = rng.normal(size=n) * float(rng.integers(1, 5))
    point, value = dual_update(c, p)
    pf = float(p)
    assert abs(lp_norm(point.coords, pf) - 1.0) <= 1e-12
    assert float(c @ point.coords) == pytest.approx(value, rel=1e-11, abs=1e-11)
    # no random feasible point beats the closed form
    cand = rng.normal(size=(100, n))
    for row in cand:
        norm = lp_norm(row, pf)
        if norm == 0:
            continue
        assert float(c @ (row / norm)) <= value + 1e-9


@given(st.integers(0, 2**32 - 1), st.sampled_from((1.5, 2.0, 4.0)))
@settings(max_examples=100, deadline=None)
def test_dual_update_value_is_dual_norm(seed, p):
    rng = generator(seed)
    c = rng.normal(size=int(rng.integers(1, 9)))
    q = p / (p - 1)
    _, value = dual_update(c, p)
    assert value == pytest.approx(float(np.linalg.norm(c, q)), rel=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from(P_CHOICES), st.floats(0.1, 50.0))
@settings(max_examples=100, deadline=None)
def test_dual_update_homogeneous_direction(seed, p, scale):
    rng = generator(seed)
    c = rng.normal(size=5)
    point_a, value_a = dual_update(c, p)
    point_b, value_b = dual_update(c * scale, p)
    assert point_b.coords == pytest.approx(point_a.coords, rel=1e-9, abs=1e-12)
    assert value_b == pytest.approx(value_a * scale, rel=1e-9)


def test_alternating_max_euclidean_is_spectral():
    res = alternating_max(CF, 2, starts=4, seed=1)
    assert res.value == pytest.approx(math.sqrt(2), rel=1e-9)
    ones = make_tensor(D22, [1, 1, 1, 1])
    res = alternating_max(ones, 2, starts=4, seed=1)
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_alternating_max_sup_matches_exact():
    res = alternating_max(CF, math.inf, starts=4, seed=3)
    assert res.value == exact_max(CF).value


def test_alternating_max_spectral_oracle_many():
    rng = np.random.default_rng(99)
    for _ in range(10):
        board = (rng.integers(0, 2, (5, 5)) * 2 - 1).astype(np.int8)
        t = make_tensor(DimSpec(2, 5), board.reshape(-1))
        sigma_max = math.sqrt(max(np.linalg.eigvalsh(board.T.astype(float) @ board.astype(float))))
        res = alternating_max(t, 2, starts=20, seed=5)
        assert res.value == pytest.approx(sigma_max, abs=1e-6)


@given(st.integers(0, 2**32 - 1), st.sampled_from(P_CHOICES), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=150, deadline=None)
def test_alternating_max_monotone_and_consistent(seed, p, m, n):
    t = random_tensor(DimSpec(m, n), generator(seed))
    res = alternating_max(t, p, starts=2, sweeps_max=60, seed=seed)
    values = res.trace.values
    assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
    feasible = [pt.coords for pt in res.points]
    assert evaluate_real(t, feasible) == pytest.approx(res.value, rel=1e-9, abs=1e-9)
    for pt in res.points:
        assert abs(lp_norm(pt.coords, pt.p) - 1.0) <= 1e-12
    assert res.value <= n ** m + 1e-9


def test_alternating_max_deterministic():
    t = random_tensor(DimSpec(3, 3), generator(4))
    a = alternating_max(t, 1.5, starts=5, seed=42)
    b = alternating_max(t, 1.5, starts=5, seed=42)
    assert a.value == b.value
    assert all(np.array_equal(x.coords, y.coords) for x, y in zip(a.points, b.points))


def test_alternating_max_trace_counts():
    t = random_tensor(DimSpec(2, 4), generator(9))
    res = alternating_max(t, 2, starts=1, sweeps_max=1, seed=0)
    assert res.trace.sweeps == 1


@pytest.mark.parametrize("tol", [-1.0, math.nan, -math.inf])
def test_alternating_max_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        alternating_max(CF, 2, tol=tol)


def test_alternating_max_rejects_bad_counts():
    with pytest.raises(ValueError, match=r"^starts must be >= 1, got 0$"):
        alternating_max(CF, 2, starts=0)
    with pytest.raises(ValueError, match=r"^sweeps_max must be >= 1, got 0$"):
        alternating_max(CF, 2, sweeps_max=0)


def test_lp_point_rejects_coords_off_the_sphere():
    assert LpPoint(2.0, [0.6, 0.8]).coords.tolist() == [0.6, 0.8]
    with pytest.raises(ValueError, match=r"^coords are not on the unit l2.0 sphere$"):
        LpPoint(2.0, [1.0, 1.0])


def test_alternating_max_edge_tol_and_huge_p():
    for tol in (0.0, math.inf):
        assert alternating_max(CF, 2, starts=2, tol=tol).value > 0
    with pytest.raises(InvalidExponent, match="too large for a float"):
        alternating_max(CF, Fraction(10) ** 400)
    with pytest.raises(InvalidExponent, match="too large for a float"):
        dual_update([1.0, 2.0], Fraction(10) ** 400)


def test_g_lower_bound_formula_values():
    # frozen by direct high-precision evaluation of n**((mp+p-2m)/(2p)) / (1.3 m**0.365)
    assert g_lower_bound_formula(2, 2, math.inf) == pytest.approx(1.6893735596723845, rel=1e-12)
    for n in (2, 5, 11):
        assert g_lower_bound_formula(2, n, 2) == pytest.approx(math.sqrt(n) / km_constant(2), rel=1e-12)
    assert g_lower_bound_formula(3, 4, math.inf) == pytest.approx(4.0 ** 2 / km_constant(3), rel=1e-12)
    # bit for bit at p = inf: verify-bound and value_census.py print these references
    for n in range(2, 7):
        assert g_lower_bound_formula(2, n, math.inf) == n ** 1.5 / km_constant(2)
    assert g_lower_bound_formula(3, 3, math.inf) == 3.0 ** 2 / km_constant(3)


def test_g_lower_bound_formula_domain():
    with pytest.raises(InvalidExponent):
        g_lower_bound_formula(2, 5, Fraction(4, 3))
    with pytest.raises(InvalidExponent):
        g_lower_bound_formula(2, 5, 1)
    for m in (0, -1):  # the degree is checked before the threshold 2m/(m+1) divides by m + 1
        with pytest.raises(InvalidExponent, match="degree m must be an integer >= 1"):
            g_lower_bound_formula(m, 5, 3)
    # 2m/(m+1) has 62 characters at m = 10**30, so the message leaves its value out
    with pytest.raises(InvalidExponent, match=r"^lower bound requires p > 2m/\(m\+1\), got 1$"):
        g_lower_bound_formula(10 ** 30, 2, 1)
    # just above the threshold is fine
    assert g_lower_bound_formula(2, 5, Fraction(4, 3) + Fraction(1, 1000)) > 0


def test_exact_reaches_lower_bound_exhaustively():
    # at p = inf the exact game value respects the proven lower bound
    from conftest import all_boards

    for n in (2, 3):
        bound = g_lower_bound_formula(2, n, math.inf)
        assert min(exact_max(b).value for b in all_boards(n)) >= bound


def test_weak_l1_norm():
    assert weak_l1_norm(4, math.inf) == 1.0
    assert weak_l1_norm(9, 2) == pytest.approx(3.0, rel=1e-12)
    expected = 5 ** 0.25
    assert weak_l1_norm(5, 4) == pytest.approx(expected, rel=1e-12)
    # agreement with the closed-form maximizer over the dual ball
    _, value = dual_update(np.ones(5), Fraction(4, 3))
    assert value == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidExponent):
        weak_l1_norm(4, 1)


def _rank_one(m: int) -> SignTensor:
    """outer((1, -1), ..., (1, -1)): a start whose signs agree on any other axis contracts to zero."""
    board = np.array([1, -1])
    for _ in range(m - 1):
        board = np.multiply.outer(board, [1, -1])
    return make_tensor(DimSpec(m, 2), board.reshape(-1))


ASCENT_BOARDS = {
    2: (random_tensor(DimSpec(2, 4), generator(41)), make_tensor(D22, [1, -1, 1, -1])),
    3: (random_tensor(DimSpec(3, 3), generator(42)), _rank_one(3)),
    4: (random_tensor(DimSpec(4, 2), generator(43)), _rank_one(4)),
}


def _assert_same_ascent(got, want):
    assert got.value == want.value
    assert [pt.coords.tobytes() for pt in got.points] == [pt.coords.tobytes() for pt in want.points]
    assert got.trace == want.trace  # values (exact floats), sweeps and converged


@pytest.mark.parametrize("m", (2, 3, 4))
def test_alternating_max_matches_per_start_loop(m):
    uneven = False
    for board in ASCENT_BOARDS[m]:
        for p in (1, Fraction(3, 2), 2, 3, math.inf):
            for sweeps_max in (1, 16, 1000):
                runs = ascent_runs(board, p, starts=13, sweeps_max=sweeps_max, seed=m)
                uneven |= len({run.trace.sweeps for run in runs}) > 1
                for starts in (1, 5, 13):
                    got = alternating_max(board, p, starts=starts, sweeps_max=sweeps_max, seed=m)
                    _assert_same_ascent(got, best_run(runs[:starts]))
    assert uneven  # some stack had starts that converged at different sweeps


def test_alternating_max_zero_contractions_match_loop():
    board = make_tensor(D22, [1, -1, 1, -1])  # c = (y0 - y1)(1, 1) over axis 0
    axis1 = [[sign_vector(rng, 2) for _ in range(2)][1] for rng in (generator(0, s) for s in range(5))]
    assert any(v[0] == v[1] for v in axis1)  # some start's axis-1 signs agree: a zero contraction
    for p in (1, 2, math.inf):
        _assert_same_ascent(alternating_max(board, p, starts=5, seed=0), alternating_max_loop(board, p, starts=5, seed=0))


def test_alternating_max_blocks_match_loop(monkeypatch):
    monkeypatch.setattr(rng_module, "BLOCK_BYTES", 2 * 8 * 6)  # two starts per block: a start's first contraction
    board = random_tensor(DimSpec(2, 6), generator(44))
    for p in (Fraction(3, 2), 3):
        _assert_same_ascent(alternating_max(board, p, starts=7, seed=5), alternating_max_loop(board, p, starts=7, seed=5))


@pytest.mark.parametrize("p", (1, Fraction(4, 3), 1.5, 2, 3, 7, math.inf))
def test_dual_update_matches_vector_formula(p):
    rng = np.random.default_rng(45)
    vectors = [np.zeros(4), np.array([2.0, -2.0, 1.0, 0.0]), np.array([-0.0, 3.0, -3.0, 3.0])]
    vectors += [rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5) for n in (1, 2, 7, 50) for _ in range(3)]
    for c in vectors:
        point, value = dual_update(c, p)
        coords, expected = dual_coords_vector(c, math.inf if p == math.inf else float(p))
        assert point.coords.tobytes() == coords.tobytes() and value == expected
