import math
import re

import numpy as np
import pytest

from gbswitch import (
    BudgetExceeded,
    DegenerateInput,
    DimSpec,
    alternating_max,
    exact_max,
    experiments,
    fit_exponent,
    g_lower_bound_formula,
    generator,
    mix,
    random_tensor,
    sample_min_norm,
    sharpness_experiment,
    solvers,
)
from gbswitch import rng as rng_module
from gbswitch.cli import run


def test_sample_min_norm_small_board_reaches_two():
    # 64 draws at n = 2 are all but certain to include one of the eight
    # minimal boards, whose exact value 2 is the global minimum
    sample = sample_min_norm(2, 2, math.inf, 64, 0)
    assert sample.min_norm == 2.0
    assert sample.exact


def test_sample_min_norm_single_all_ones_draw():
    # seed 33 draws the all-ones 2x2 board as sample 0 (found by search)
    t = random_tensor(DimSpec(2, 2), generator(33, 2, 0))
    assert t.entries.tolist() == [1, 1, 1, 1]
    sample = sample_min_norm(2, 2, math.inf, 1, 33)
    assert sample.min_norm == 4.0


@pytest.mark.parametrize("m, n, p", [(2, 3, math.inf), (3, 2, math.inf), (2, 3, 2), (3, 2, 3)])
def test_sample_min_norm_blocks_match_per_sample_loop(monkeypatch, m, n, p):
    # boards drawn two per block give the minimum of the per-sample solves
    # on generator(seed, n, i) draws, with solver seed mix(seed, n, i, 1)
    samples, seed, dims = 7, 11, DimSpec(m, n)
    boards = [random_tensor(dims, generator(seed, n, i)) for i in range(samples)]
    if p == math.inf:
        expected = min(exact_max(t).value for t in boards)
    else:
        expected = min(alternating_max(t, p, seed=mix(seed, n, i, 1)).value for i, t in enumerate(boards))
    stacks = []
    draw = experiments.sign_draws

    def recording(seeds, count, size):
        stacks.append(len(seeds))
        return draw(seeds, count, size)

    monkeypatch.setattr(rng_module, "BLOCK_BYTES", 2 * dims.size + 1)  # two int8 boards per block
    monkeypatch.setattr(experiments, "sign_draws", recording)
    sample = sample_min_norm(m, n, p, samples, seed)
    assert sample.min_norm == float(expected)
    assert sample.exact == (p == math.inf)
    assert stacks == [2, 2, 2, 1]


def test_sample_min_norm_deterministic():
    a = sample_min_norm(2, 5, math.inf, 40, 7)
    b = sample_min_norm(2, 5, math.inf, 40, 7)
    assert a == b


def test_sample_min_norm_nested_seeds_monotone():
    minima = [sample_min_norm(2, 4, math.inf, k, 3).min_norm for k in (5, 20, 60)]
    assert minima == sorted(minima, reverse=True)


def test_sample_min_norm_estimate_path_finite_p():
    sample = sample_min_norm(2, 4, 2, 10, 1, starts=4)
    assert not sample.exact
    assert 0 < sample.min_norm <= 4.0 * 4.0


def test_sample_min_norm_estimate_path_beyond_budget():
    # n(m-1)-1 = 32 > budget: p = inf falls back to the ascent estimate
    sample = sample_min_norm(2, 33, math.inf, 2, 5, starts=2)
    assert not sample.exact
    assert sample.min_norm > 0


def test_sample_min_norm_respects_bounds():
    for n in (2, 3, 4):
        sample = sample_min_norm(2, n, math.inf, 25, 11)
        assert g_lower_bound_formula(2, n, math.inf) <= sample.min_norm <= n ** 2


def test_sample_min_norm_worker_independence(monkeypatch):
    monkeypatch.setenv("GB_THREADS", "1")
    a = sample_min_norm(2, 4, math.inf, 150, 13)
    monkeypatch.setenv("GB_THREADS", "4")
    b = sample_min_norm(2, 4, math.inf, 150, 13)
    assert a == b


def test_fit_exponent_exact_power_law():
    fit = fit_exponent([(2, 2 ** 1.5), (4, 4 ** 1.5)])
    assert fit.slope == pytest.approx(1.5, abs=1e-12)
    assert fit.points == 2
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_flat_data():
    fit = fit_exponent([(2, 3.7), (3, 3.7), (5, 3.7)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)


def test_fit_exponent_recovers_planted_slope():
    rng = np.random.default_rng(2)
    ns = np.array([2, 3, 4, 6, 8, 12], dtype=float)
    noise = rng.uniform(-0.05, 0.05, size=ns.size)
    values = np.exp(1.5 * np.log(ns) + 0.3 + noise)
    fit = fit_exponent(zip(ns, values))
    x = np.log(ns)
    dx = np.abs(x - x.mean())
    bound = float(np.max(np.abs(noise)) * dx.sum() / (dx ** 2).sum())
    assert abs(fit.slope - 1.5) <= bound


def test_fit_exponent_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        fit_exponent([(2, 4.0)])
    with pytest.raises(DegenerateInput):
        fit_exponent([(2, 4.0), (2, 5.0)])
    with pytest.raises(DegenerateInput):
        fit_exponent([(2, 4.0), (3, 0.0)])
    # non-finite values or n, which would give slope nan or a LAPACK error
    for bad in ([(2, 4.0), (3, math.nan)], [(2, 4.0), (3, math.inf)], [(2, 4.0), (math.nan, 5.0)],
                [(2, 4.0), (math.inf, 5.0)]):
        with pytest.raises(DegenerateInput, match="must be positive and finite"):
            fit_exponent(bad)


def test_sharpness_experiment_small():
    result = sharpness_experiment(2, math.inf, [2, 3, 4], 30, 0)
    assert [s.min_norm for s in result.samples] == [2.0, 5.0, 8.0]
    assert result.reference == 1.5
    assert all(s.exact for s in result.samples)
    assert result.passed is not None


def test_sharpness_experiment_finite_p_is_informational():
    result = sharpness_experiment(2, 2, [2, 3], 5, 1, starts=2)
    assert result.passed is None
    assert not any(s.exact for s in result.samples)


def test_sharpness_experiment_m3_two_points():
    result = sharpness_experiment(3, math.inf, [2, 3], 20, 2)
    assert result.reference == 2.0
    assert result.fit.points == 2


def _unreachable(*args, **kwargs):
    raise AssertionError("a board was drawn")


def test_sharpness_experiment_no_spread(monkeypatch):
    monkeypatch.setattr(experiments, "sign_draws", _unreachable)  # the n count is checked before any draw
    for n_values in ([2, 2], [7], [5, 5]):
        with pytest.raises(DegenerateInput, match="^need at least two distinct n values$"):
            sharpness_experiment(2, math.inf, n_values, 5, 0)


@pytest.mark.parametrize("p, samples, starts, message", [
    (math.inf, 0, 8, "samples must be >= 1, got 0"),
    (math.inf, 4, 0, "starts must be >= 1, got 0"),  # the exact path reads no starts, but checks them
    (2, 4, -5, "starts must be >= 1, got -5"),
])
def test_sample_min_norm_checks_counts_before_any_draw(p, samples, starts, message, monkeypatch):
    monkeypatch.setattr(experiments, "sign_draws", _unreachable)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_min_norm(2, 3, p, samples, 0, starts=starts)


def test_norm_sample_rejects_nonpositive_min_norm():
    for value in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=rf"^min_norm must be positive, got {value}$"):
            experiments.NormSample(m=2, n=2, p=math.inf, min_norm=value, samples=1, seed=0, exact=True)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_sharpness_experiment_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        sharpness_experiment(2, math.inf, [2, 3], 5, 0, tol=tol)


class _KernelReached(Exception):
    pass


class _Tripwire:
    """A board stack whose first use shows the kernel got past its refusal, before it builds any array."""

    def __len__(self):
        raise _KernelReached


def test_exactness_follows_the_kernel_budget(monkeypatch, capsys):
    monkeypatch.setattr(solvers, "EXACT_BUDGET_BITS", 4)  # a 6 x 6 board has 2**5 certified assignments
    assert not sample_min_norm(2, 6, math.inf, 3, 1, starts=2).exact
    assert run(["ksz", "--m", "2", "--n", "3:7", "--samples", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().err == ""
    for m in range(1, 7):
        for n in range(1, 8):
            try:
                solvers._exact_kernel(m, n, _Tripwire())
            except BudgetExceeded:
                runs = False
            except _KernelReached:
                runs = True
            assert experiments.norm_is_exact(DimSpec(m, n), math.inf) == runs, (m, n)
