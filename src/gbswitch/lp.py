"""Maximization of the switching form over lp unit balls.

With all axes but one frozen, the form is linear in the remaining vector
and its maximizer over the lp ball has a closed form through Holder
duality. Cycling that update over the axes gives a monotone ascent (a
higher-order power iteration, De Lathauwer et al. 2000); the terminal
witness is feasible, so the achieved value is a lower bound on the true
lp game value up to float rounding: it is computed in float64 and may sit
a few ulp above the exact value at the witness (never claimed to attain it).

The random starts of one solve are stacked: the board is cast to float64
once (and at m >= 3 copied once more, led by axis m-2, for the last axis's
in-order einsum step), each axis update contracts every live start at once
(``tensor._contract``) and takes the dual update row by row
(``_dual_coords``). Each row does the same floating-point operations in the
same order as a lone start, so values, witnesses and traces are the same
bytes as a per-start loop. Every lp norm here, ``lp_norm`` included, is
``tensor._row_norms``, the one rule that ``tensor.mixed_norm`` also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import as_exponent, as_float, as_text
from .errors import InvalidExponent
from .rng import _block_bits, mix, sign_draws
from .tensor import SignTensor, _contract, _row_norms, mixed_norm

_UNIT_TOL = 1e-12


def lp_norm(v: np.ndarray, p: float) -> float:
    """lp norm of a vector: ``mixed_norm`` with the one exponent p > 0 (0.0 for an empty vector)."""
    return mixed_norm(np.asarray(v, dtype=np.float64).reshape(-1), [p])


@dataclass(frozen=True)
class LpPoint:
    """Point on the unit lp sphere; construction re-checks the norm."""

    p: float
    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        if not abs(lp_norm(coords, self.p) - 1.0) <= _UNIT_TOL:  # a nan norm fails too
            raise ValueError(f"coords are not on the unit l{self.p} sphere")


@dataclass(frozen=True)
class AscentTrace:
    """Per-sweep values of one ascent run; the sequence is nondecreasing."""

    values: tuple[float, ...]
    converged: bool
    sweeps: int


@dataclass(frozen=True)
class AscentResult:
    value: float
    points: tuple[LpPoint, ...]
    trace: AscentTrace


def _exponent_float(p) -> float:
    pc = as_exponent(p)
    if pc < 1:
        raise InvalidExponent(f"lp exponent must satisfy p >= 1, got {as_text(pc)}")
    return as_float(pc, "lp exponent p is too large for a float (above about 1.8e308); use inf")


def _dual_coords(c: np.ndarray, pf: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise dual_update of an (S, n) float64 stack: coords (S, n) and values (S,)."""
    a, sign = np.abs(c), np.where(c < 0, -1.0, 1.0)
    if math.isinf(pf):
        x, values = sign, a.sum(axis=1)
    elif pf == 1.0:
        rows, j = np.arange(len(c)), a.argmax(axis=1)
        x = np.zeros(c.shape)
        x[rows, j] = sign[rows, j]
        values = a[rows, j]
    else:
        q = pf / (pf - 1.0)
        values = _row_norms(a, q)
        x = sign * (a / np.where(values > 0, values, 1.0)[:, None]) ** (q - 1.0)
        norm = _row_norms(np.abs(x), pf)[:, None]
        x = np.divide(x, norm, out=x, where=norm > 0)
    x[~c.any(axis=1)] = np.eye(1, c.shape[1])  # a zero row: the first basis vector, value 0
    return x, values


def dual_update(c, p) -> tuple[LpPoint, float]:
    """argmax and max of <c, x> over the unit lp sphere.

    For 1 < p < inf with q = p/(p-1): x_i = sign(c_i)|c_i|^(q-1)/||c||_q^(q-1)
    and the value is ||c||_q. For p = inf: x = sign(c), value ||c||_1. For
    p = 1: all mass on the lowest index attaining max|c_i|, value max|c_i|.
    A zero c returns the first standard basis vector with value 0.
    """
    pf = _exponent_float(p)
    coords, values = _dual_coords(np.asarray(c, dtype=np.float64).reshape(1, -1), pf)
    return LpPoint(pf, coords[0]), float(values[0])


def alternating_max(
    tensor: SignTensor,
    p,
    *,
    starts: int = 8,
    sweeps_max: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
) -> AscentResult:
    """Best-of-starts cyclic ascent over the lp spheres of each axis.

    Each sweep replaces axis k's vector with the dual_update of the
    partial contraction over axis k, for k = 0..m-1 in order; a start
    stops when the per-sweep improvement drops below ``tol`` relative to
    the current value or after ``sweeps_max`` sweeps (reported via the
    trace; running out of sweeps is not an error). Start s draws its m
    sign vectors from the stream of ``generator(seed, s)``; ties keep the
    earliest start.

    The starts run as one (S, m, n) stack over one float64 copy of the
    board (two at m >= 3), in blocks. Each axis update is one stacked
    contraction for every start still sweeping, and a start leaves the
    stack at its own convergence sweep. A row computes bit for bit what the
    start computes alone: its trace, sweep count and ``converged`` flag do
    not depend on the other starts.
    """
    pf = _exponent_float(p)
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if sweeps_max < 1:
        raise ValueError(f"sweeps_max must be >= 1, got {sweeps_max}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    m, n = tensor.dims.m, tensor.dims.n
    typed = tensor.view().astype(np.float64)
    moved = [np.moveaxis(typed, k, 0) for k in range(m)]
    # axis m-1 contracts axis m-2 first, which is strided in moved[m-1] (no BLAS): a copy led by it
    lead = np.moveaxis(typed, (m - 2, m - 1), (0, 1)).copy() if m >= 3 else None
    others = [[j for j in range(m) if j != k] for k in range(m)]
    block = 1 << _block_bits(8 * n ** max(1, m - 1))  # a start's first float64 contraction
    # random sign vectors pushed onto the lp sphere; for p = inf they are
    # already vertices of the ball
    scale = 1.0 if math.isinf(pf) else n ** (-1.0 / pf)
    best: AscentResult | None = None
    for s0 in range(0, starts, block):
        seeds = mix(seed, np.arange(s0, min(starts, s0 + block), dtype=np.uint64))
        vecs = sign_draws(seeds, m, n).astype(np.float64) * scale
        # the start value, contracted in evaluate_real's order
        prev = (_contract(moved[0], vecs[:, 1:])[:, None] @ vecs[:, 0, :, None])[:, 0, 0]
        traces: list[list[float]] = [[] for _ in vecs]
        finals, converged = np.empty(len(vecs)), np.zeros(len(vecs), dtype=bool)
        rows, cur = np.arange(len(vecs)), vecs.copy()  # the starts still sweeping
        for _ in range(sweeps_max):
            for k in range(m):
                c = _contract(moved[k], cur[:, others[k]], lead if k == m - 1 else None)
                cur[:, k], value = _dual_coords(c, pf)
            for r, v in zip(rows.tolist(), value.tolist()):
                traces[r].append(v)
            done = value - prev <= tol * np.maximum(np.maximum(np.abs(value), np.abs(prev)), 1e-12)
            vecs[rows], finals[rows], converged[rows] = cur, value, done
            rows, cur, prev = rows[~done], cur[~done], value[~done]
            if not len(rows):
                break
        for r, final in enumerate(finals.tolist()):
            if best is None or final > best.value:
                trace = AscentTrace(values=tuple(traces[r]), converged=bool(converged[r]), sweeps=len(traces[r]))
                best = AscentResult(value=final, points=tuple(LpPoint(pf, v) for v in vecs[r].copy()), trace=trace)
    return best
