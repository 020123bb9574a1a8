"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 6 is a known-red check: with the configured estimator
(minimum exact norm over 500 uniform draws at n = 2..6) the sampled minima
are (2, 5, 8, 11, 14) with overwhelming probability for every seed, giving
a fitted slope of 1.7608, outside the required [1.4, 1.7] band. The n = 2
point sits at the absolute floor 2 = 2**(-1/2) * 2**(3/2) (only 2x2 boards
attain that floor), which steepens the five-point OLS fit; the check is
asserted as stated rather than widened. Dropping the degenerate n = 2
point (n = 3..7 or 3..8, same estimator) gives slopes of 1.53 to 1.62,
within 0.2 of the predicted 3/2 (see
``gbswitch ksz --m 2 --n 3:7 --samples 500 --seed 7``).
"""

import math
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_boards, all_sign_vectors, board_from_code
from gbswitch import (
    DimSpec,
    alternating_max,
    apply_switch,
    bh_asymptotic_constant,
    blowup_exponent,
    classify_extremal,
    dual_update,
    evaluate_real,
    exact_max,
    generator,
    hl_exponent,
    km_constant,
    ksz_exponent,
    majority_fix,
    make_assignment,
    make_tensor,
    mix,
    mixed_norm,
    random_restart_greedy,
    random_tensor,
    sharpness_experiment,
)
from gbswitch.cli import run as cli_run
from gbswitch.lp import lp_norm

PROPERTY_SETTINGS = dict(max_examples=1000, deadline=None, derandomize=True)


def _report(label: str, budget_s: float, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")
    assert elapsed <= budget_s, f"{label} exceeded its {budget_s}s budget: {elapsed:.2f}s"


# -- 1: exact minimal boards ---------------------------------------------------


def test_criterion_01_minimal_two_by_two_boards():
    def check():
        attaining = set()
        classified = set()
        for code in range(16):
            board = board_from_code(2, code)
            value = exact_max(board).value
            assert value >= 2
            if value == 2:
                attaining.add(code)
            if classify_extremal(board):
                classified.add(code)
        assert attaining == classified
        assert len(attaining) == 8

    _report("01 minimal-2x2-boards (value >= 2, equality on the 8 patterns)", 1.0, check)


# -- 2: constant table ---------------------------------------------------------


def test_criterion_02_constant_table():
    def check():
        table = {2: 1.2533, 5: 1.9895, 10: 3.0555, 100: 15.2457, 1000: 81.1974}
        for m, expected in table.items():
            assert bh_asymptotic_constant(m) == pytest.approx(expected, abs=1e-3)

    _report("02 asymptotic-constant-table (1e-3)", 1.0, check)


# -- 3: exhaustive lower bound -------------------------------------------------


def test_criterion_03_exhaustive_lower_bound():
    def check():
        for n in (3, 4):
            bound = n ** 1.5 / km_constant(2)
            dims = DimSpec(2, n)
            codes = np.arange(1 << (n * n), dtype=np.int64)
            rows = ((codes[:, None] >> np.arange(n * n)) & 1).astype(np.int8) * 2 - 1
            for row in rows:
                assert exact_max(make_tensor(dims, row)).value >= bound

    _report("03 exhaustive-lower-bound (all 2^9 + 2^16 boards)", 30.0, check)


# -- 4: statistical greedy mean ------------------------------------------------


def test_criterion_04_greedy_mean():
    def check():
        seed = 42
        dims = DimSpec(2, 100)
        values = []
        for i in range(200):
            board = random_tensor(dims, generator(seed, i))
            values.append(random_restart_greedy(board, 1, mix(seed, i, 1)).value)
        mean = float(np.mean(values))
        reference = math.sqrt(2 / math.pi) * 100 ** 1.5
        assert abs(mean - reference) <= 0.05 * reference, (mean, reference)

    _report("04 greedy-mean (within 5% of sqrt(2/pi) n^1.5)", 10.0, check)


# -- 5: euclidean oracle equivalence --------------------------------------------


def test_criterion_05_euclidean_oracle():
    def check():
        rng = np.random.default_rng(99)
        dims = DimSpec(2, 5)
        for i in range(50):
            board = (rng.integers(0, 2, (5, 5)) * 2 - 1).astype(np.int8)
            t = make_tensor(dims, board.reshape(-1))
            gram = board.T.astype(np.float64) @ board.astype(np.float64)
            sigma_max = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
            value = alternating_max(t, 2, starts=20, seed=mix(99, i)).value
            assert abs(value - sigma_max) <= 1e-6

    _report("05 euclidean-ascent-vs-top-singular-value (1e-6, 50 boards)", 5.0, check)


# -- 6: min-norm scaling slope (known red; see module docstring) -----------------


def test_criterion_06_min_norm_slope():
    def check():
        result = sharpness_experiment(2, math.inf, [2, 3, 4, 5, 6], 500, 7)
        assert all(s.exact for s in result.samples)
        slope = result.fit.slope
        assert 1.4 <= slope <= 1.7, (
            f"fitted slope {slope:.4f} outside [1.4, 1.7]: the n=2 sample minimum is the "
            f"absolute floor 2, which steepens the five-point fit (minima: "
            f"{[s.min_norm for s in result.samples]}); no seed avoids this"
        )

    _report("06 min-norm-slope-in-[1.4,1.7] (n=2..6, 500 samples)", 60.0, check)


# -- 7: blow-up inequality exhaustive -------------------------------------------


def test_criterion_07_blowup_exhaustive():
    def check():
        n = 3
        constant = km_constant(2)
        for r in (Fraction(1), Fraction(4, 3), Fraction(2)):
            expo = float(blowup_exponent(2, math.inf, r))
            scale = constant * n ** expo
            for board in all_boards(n):
                lr_norm = float(np.sum(np.abs(board.entries.astype(np.float64)) ** float(r))) ** (
                    1.0 / float(r)
                )
                assert lr_norm <= scale * exact_max(board).value + 1e-9

    _report("07 blow-up-inequality (all 512 boards, r in {1, 4/3, 2})", 10.0, check)


# -- 8: property suites, 1000 randomized cases each ------------------------------


@given(st.integers(0, 2**64 - 1))
@settings(**PROPERTY_SETTINGS)
def _prop_minkowski(seed):
    rng = generator(seed)
    n = int(rng.integers(1, 7))
    a = rng.normal(size=(n, n)) * float(rng.integers(1, 10))
    p = float(rng.uniform(0.2, 4.0))
    q = p + float(rng.uniform(0.05, 4.0))
    lhs = mixed_norm(a.T, (q, p))
    rhs = mixed_norm(a, (p, q))
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_criterion_08a_minkowski_property():
    _report("08a mixed-norm-inequality (1000 cases)", 120.0, _prop_minkowski)


@given(st.integers(0, 2**64 - 1))
@settings(**PROPERTY_SETTINGS)
def _prop_dual_update(seed):
    rng = generator(seed)
    n = int(rng.integers(1, 9))
    p = float(rng.choice([1.0, 4 / 3, 1.5, 2.0, 3.0, 7.0, math.inf]))
    c = rng.normal(size=n) * float(rng.integers(1, 6))
    point, value = dual_update(c, p)
    assert abs(lp_norm(point.coords, p) - 1.0) <= 1e-12
    candidates = rng.normal(size=(100, n))
    norms = np.array([lp_norm(row, p) for row in candidates])
    keep = norms > 0
    payoffs = candidates[keep] @ c / norms[keep]
    assert payoffs.max(initial=-math.inf) <= value + 1e-9


def test_criterion_08b_dual_update_property():
    _report("08b dual-update-optimality-and-feasibility (1000 cases)", 120.0, _prop_dual_update)


@given(st.integers(0, 2**64 - 1))
@settings(**PROPERTY_SETTINGS)
def _prop_ascent(seed):
    rng = generator(seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(2, 4))
    p = float(rng.choice([1.0, 4 / 3, 2.0, 3.0, math.inf]))
    t = random_tensor(DimSpec(m, n), rng)
    res = alternating_max(t, p, starts=2, sweeps_max=50, seed=seed)
    values = res.trace.values
    assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
    assert evaluate_real(t, [pt.coords for pt in res.points]) == pytest.approx(
        res.value, rel=1e-9, abs=1e-9
    )


def test_criterion_08c_ascent_property():
    _report("08c alternating-ascent-monotone-and-consistent (1000 cases)", 240.0, _prop_ascent)


@given(st.integers(0, 2**64 - 1))
@settings(**PROPERTY_SETTINGS)
def _prop_invariance(seed):
    rng = generator(seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(2, 5 if m == 2 else 4))
    dims = DimSpec(m, n)
    t = random_tensor(dims, rng)
    value = exact_max(t).value
    s = make_assignment(dims, rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1)
    assert exact_max(apply_switch(t, s)).value == value
    axis_perm = rng.permutation(m)
    permuted = make_tensor(dims, np.transpose(t.view(), axes=axis_perm).reshape(-1))
    assert exact_max(permuted).value == value
    index_perm = rng.permutation(n)
    axis = int(rng.integers(0, m))
    reindexed = make_tensor(dims, np.take(t.view(), index_perm, axis=axis).reshape(-1))
    assert exact_max(reindexed).value == value


def test_criterion_08d_invariance_property():
    _report("08d exact-value-switch-and-permutation-invariance (1000 cases)", 240.0, _prop_invariance)


@given(st.integers(0, 2**64 - 1))
@settings(**PROPERTY_SETTINGS)
def _prop_majority_dominance(seed):
    rng = generator(seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(1, 13 if m == 2 else 4))
    dims = DimSpec(m, n)
    t = random_tensor(dims, rng)
    partial = [rng.integers(0, 2, n, dtype=np.int8) * 2 - 1 for _ in range(m - 1)]
    last, value = majority_fix(t, partial)
    # exhaustive comparator over all 2**n candidate last vectors
    from gbswitch import partial_contraction

    c = partial_contraction(t, m - 1, partial)
    candidate_values = all_sign_vectors(n) @ c
    assert value == candidate_values.max()
    assert int(c @ last) == value


def test_criterion_08e_majority_dominance_property():
    _report("08e majority-step-dominance (1000 cases, exhaustive n <= 12)", 240.0, _prop_majority_dominance)


# -- 9: formula stitching ---------------------------------------------------------


def test_criterion_09_formula_stitching():
    def check():
        for m in range(2, 7):
            # continuity of the summability exponent at p = 2m
            p = Fraction(2 * m)
            assert hl_exponent(m, p) == p / (p - m) == 2 * m * p / (m * p + p - 2 * m)
            # the two interval endpoints meet at p = 2
            p2 = Fraction(2)
            assert m * p2 / (p2 - 1) == 2 * m * p2 / (m * p2 + p2 - 2 * m) == Fraction(2 * m)
            # m / (2mp/(mp+p-2m)) == (mp+p-2m)/(2p) exactly on a rational grid
            for num in range(1, 61):
                p = Fraction(num, 5)
                if p <= Fraction(2 * m, m + 1):
                    continue
                sharp = 2 * m * p / (m * p + p - 2 * m)
                assert Fraction(m) / sharp == (m * p + p - 2 * m) / (2 * p)
                assert ksz_exponent(m, p) >= Fraction(0)

    _report("09 formula-stitching (exact rational identities)", 10.0, check)


# -- 10: byte-identical output across worker counts -------------------------------


def _capture_cli(argv, env):
    import os

    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    buf = StringIO()
    try:
        with redirect_stdout(buf):
            code = cli_run(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue()


def _strip_runtime(text: str) -> str:
    lines = []
    for line in text.strip().split("\n"):
        fields = line.split(",")
        del fields[10]
        lines.append(",".join(fields))
    return "\n".join(lines)


def test_criterion_10_determinism_across_workers(tmp_path):
    def check():
        board_path = str(tmp_path / "b.json")
        code, _ = _capture_cli(
            ["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", board_path],
            {"GB_FIXED_RUNTIME_MS": "0"},
        )
        assert code == 0
        commands = [
            ["ksz", "--m", "2", "--p", "inf", "--n", "2:4", "--samples", "60", "--seed", "11"],
            ["solve", "--input", board_path, "--method", "greedy", "--seed", "5", "--restarts", "32"],
            ["scan", "--m", "2", "--n", "2:5", "--method", "greedy", "--seed", "9"],
        ]
        for argv in commands:
            # pinned runtime column: full byte identity across worker counts
            outputs = {}
            for workers in ("1", "4"):
                code, out = _capture_cli(argv, {"GB_THREADS": workers, "GB_FIXED_RUNTIME_MS": "0"})
                assert code in (0, 1)
                outputs[workers] = out
            assert outputs["1"] == outputs["4"], argv
            # wall-clock runtime column: identity after masking that column
            masked = {}
            for workers in ("1", "4"):
                code, out = _capture_cli(argv, {"GB_THREADS": workers})
                masked[workers] = _strip_runtime(out)
            assert masked["1"] == masked["4"], argv

    _report("10 byte-identical-output-across-GB_THREADS", 60.0, check)
