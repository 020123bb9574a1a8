"""Random-tensor norm sampling and log-log exponent fits.

Draws uniform sign tensors, records the minimum operator norm over the
draws (exact vertex enumeration at p = inf within budget, otherwise the
alternating-ascent lower bound, flagged as an estimate), and fits
log(min norm) against log(n) to compare the empirical growth with the
predicted random-signs exponent.

Seed discipline: the tensor for sample index i at side n is drawn from
mix(seed, n, i); solver randomness, where needed, from mix(seed, n, i, 1).
Sample minima therefore nest (more samples can only lower the minimum for
the same root seed). The boards are drawn by ``rng.sign_draws`` in blocks,
so memory does not grow with the sample count; exact norms take one
``exact_max_batch`` call per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import INF, as_exponent, ksz_exponent
from .errors import DegenerateInput
from .lp import _exponent_float, alternating_max
from .rng import _block_bits, mix, sign_draws
from .solvers import exact_max_batch, exact_refusal
from .tensor import DimSpec, make_tensor


@dataclass(frozen=True)
class NormSample:
    """Minimum operator norm over ``samples`` uniform sign tensors."""

    m: int
    n: int
    p: object
    min_norm: float
    samples: int
    seed: int
    exact: bool

    def __post_init__(self) -> None:
        if not self.min_norm > 0:
            raise ValueError(f"min_norm must be positive, got {self.min_norm}")


@dataclass(frozen=True)
class FitResult:
    """OLS fit of log(value) against log(n)."""

    slope: float
    intercept: float
    points: int
    residual: float


@dataclass(frozen=True)
class SharpnessResult:
    fit: FitResult
    samples: tuple[NormSample, ...]
    reference: float
    #: True/False against |slope - reference| <= tol for exact norms; None
    #: when any norm is an estimate (estimates never gate PASS/FAIL).
    passed: Optional[bool]


def norm_is_exact(dims: DimSpec, p) -> bool:
    """Whether sample_min_norm's norm on dims at p is exact: p = inf and the exact kernel runs (m, n) boards."""
    return p == INF and exact_refusal(dims.m, dims.n) is None


def sample_min_norm(m: int, n: int, p, samples: int, seed: int, *, starts: int = 8) -> NormSample:
    """Minimum norm on (lp^n)^m over ``samples`` independent sign tensors.

    Exact where ``norm_is_exact``; otherwise the norm is the best of
    ``starts`` alternating-ascent starts, a lower bound, and the sample is
    flagged ``exact=False``. ``starts`` is checked on both paths.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    pc = as_exponent(p)
    dims = DimSpec(m, n)
    exact = norm_is_exact(dims, pc)
    block = 1 << _block_bits(dims.size)  # a sample's int8 board
    minima = []
    for i0 in range(0, samples, block):
        indices = np.arange(i0, min(samples, i0 + block), dtype=np.uint64)
        boards = sign_draws(mix(seed, n, indices), 1, dims.size)[:, 0]
        if exact:
            minima.append(int(exact_max_batch(m, n, boards)[0].min()))
        else:
            minima.append(min(
                alternating_max(make_tensor(dims, board), pc, starts=starts, seed=mix(seed, n, i, 1)).value
                for i, board in zip(indices.tolist(), boards)))
    return NormSample(m=m, n=n, p=pc, min_norm=float(min(minima)), samples=samples, seed=seed, exact=exact)


def _require_two_n(ns: Iterable) -> None:
    if len(set(ns)) < 2:
        raise DegenerateInput("need at least two distinct n values")


def fit_exponent(points: Iterable[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of log(value) against log(n).

    Requires at least two distinct n and finite positive n and values;
    ``residual`` is the root-mean-square log residual.
    """
    pts = [(float(n), float(v)) for n, v in points]
    _require_two_n(n for n, _ in pts)
    if not all(0 < n < INF and 0 < v < INF for n, v in pts):  # NaN fails both comparisons
        raise DegenerateInput("values and n must be positive and finite for a log-log fit")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        points=len(pts),
        residual=float(np.sqrt(np.mean(resid ** 2))),
    )


def sharpness_experiment(
    m: int,
    p,
    n_values: Sequence[int],
    samples: int,
    seed: int,
    *,
    tol: float = 0.2,
    starts: int = 8,
) -> SharpnessResult:
    """Fit the growth of the sampled minimum norm against the predicted exponent.

    Runs sample_min_norm for each n, fits log(min norm) ~ log(n), and
    compares the slope with ksz_exponent(m, p). The PASS/FAIL verdict is
    only issued when every norm is exact (p = inf within budget); estimated
    norms are lower bounds, so their minima cannot certify sharpness.
    tol, p (as the ascent checks it) and the n count are checked before
    the first draw.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    _exponent_float(p)
    _require_two_n(n_values)
    norm_samples = tuple(sample_min_norm(m, n, p, samples, seed, starts=starts) for n in n_values)
    fit = fit_exponent((s.n, s.min_norm) for s in norm_samples)
    reference = float(ksz_exponent(m, p))
    exact_all = all(s.exact for s in norm_samples)
    passed = abs(fit.slope - reference) <= tol if exact_all else None
    return SharpnessResult(fit=fit, samples=norm_samples, reference=reference, passed=passed)
