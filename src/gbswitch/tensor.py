"""Dense sign tensors: construction, evaluation, switching, mixed norms.

An order-m tensor with every entry +1 or -1 is the board of the switching
game; one +/-1 vector per axis encodes the switch states. Entries are
stored flat in row-major order (axis 0 slowest) as int8, and all +/-1
arithmetic is exact, in int64 or in float64 (every partial sum is an
integer of magnitude <= n**m <= MAX_ENTRIES = 2**40 < 2**53). Otherwise
floating point enters only for lp work (real vectors, mixed norms).

All types are immutable after construction; every operation is a pure
function, safe to call from concurrent workers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AxisOutOfRange,
    BudgetExceeded,
    DimMismatch,
    InvalidExponent,
    LengthMismatch,
    NonUnimodularEntry,
    SizeOverflow,
)
from .rng import MAX_DRAW_ENTRIES, check_draw, sign_vector

MAX_ENTRIES = 1 << 40

#: Per-axis exponent sequence for ``mixed_norm``; each entry > 0, math.inf allowed.
MixedExponents = Sequence[float]


@dataclass(frozen=True)
class DimSpec:
    """Shape of a cubic order-m tensor: m axes, each of length n."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if any(isinstance(k, bool) or not isinstance(k, int) for k in (self.m, self.n)):
            raise ValueError(f"m and n must be integers, got m={self.m!r} n={self.n!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be positive, got m={self.m} n={self.n}")
        # at most 40 axes for every n (so m is refused before n**m is computed)
        if self.m >= MAX_ENTRIES.bit_length() or self.n ** self.m > MAX_ENTRIES:
            raise SizeOverflow(f"n**m = {self.n}**{self.m} exceeds 2**40 entries or 40 axes")

    @property
    def size(self) -> int:
        return self.n ** self.m

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.m


def _frozen_i8(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.int8)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SignTensor:
    """Validated +/-1 tensor; ``entries`` is a read-only flat int8 buffer."""

    dims: DimSpec
    entries: np.ndarray

    def view(self) -> np.ndarray:
        """Row-major (n,)*m view of the entries (axis 0 slowest)."""
        return self.entries.reshape(self.dims.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignTensor):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.entries, other.entries))

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class SwitchAssignment:
    """One +/-1 switch vector per axis, stored as a read-only (m, n) int8 array."""

    dims: DimSpec
    vectors: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SwitchAssignment):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.vectors, other.vectors))

    __hash__ = None  # type: ignore[assignment]


def _validate_signs(arr: np.ndarray) -> None:
    """Raise NonUnimodularEntry unless ``arr`` is a real int, uint or float array of +1 and -1."""
    if not (arr.dtype.kind in "iuf" and bool((np.abs(arr) == 1).all())):
        head = arr.reshape(-1)[:4].tolist()
        raise NonUnimodularEntry(f"entries must be +1 or -1, got dtype {arr.dtype} with values {head}")


def make_tensor(dims: DimSpec, entries) -> SignTensor:
    """Build a validated SignTensor from a flat (or nested row-major) +/-1 sequence."""
    arr = np.asarray(entries)
    if arr.size != dims.size:
        raise LengthMismatch(f"expected {dims.size} entries for n={dims.n} m={dims.m}, got {arr.size}")
    arr = arr.reshape(-1)
    _validate_signs(arr)
    return SignTensor(dims, _frozen_i8(arr))


def random_tensor(dims: DimSpec, rng: np.random.Generator) -> SignTensor:
    """Uniform i.i.d. +/-1 tensor (the random-signs model of the norm experiments), refused past the draw limit."""
    check_draw(1, 1, dims.size)
    return SignTensor(dims, _frozen_i8(sign_vector(rng, dims.size)))


def make_assignment(dims: DimSpec, vectors) -> SwitchAssignment:
    """Build a validated SwitchAssignment from m length-n +/-1 vectors."""
    arr = np.asarray(vectors)
    if arr.shape != (dims.m, dims.n):
        raise DimMismatch(f"expected {dims.m} vectors of length {dims.n}, got shape {arr.shape}")
    _validate_signs(arr)
    return SwitchAssignment(dims, _frozen_i8(arr))


def all_ones_assignment(dims: DimSpec) -> SwitchAssignment:
    return SwitchAssignment(dims, _frozen_i8(np.ones((dims.m, dims.n), dtype=np.int8)))


def _require_same_dims(a: DimSpec, b: DimSpec) -> None:
    if a != b:
        raise DimMismatch(f"dimension mismatch: {a} vs {b}")


def evaluate(tensor: SignTensor, assignment: SwitchAssignment) -> int:
    """Full m-fold sum  sum_I a_I x_{i_1}^(0) ... x_{i_m}^(m-1), exact in int64.

    For +/-1 assignments the result is an integer with the same parity as n**m.
    """
    _require_same_dims(tensor.dims, assignment.dims)
    cur = tensor.view().astype(np.int64)
    for k in range(tensor.dims.m - 1, -1, -1):
        cur = cur @ assignment.vectors[k].astype(np.int64)
    return int(cur)


def evaluate_real(tensor: SignTensor, vectors: Sequence[np.ndarray]) -> float:
    """Same m-fold sum with arbitrary real vectors, in float64, last axis first (``_contract``'s order)."""
    m, n = tensor.dims.m, tensor.dims.n
    if len(vectors) != m:
        raise DimMismatch(f"expected {m} vectors, got {len(vectors)}")
    first, *rest = [np.asarray(v, dtype=np.float64) for v in vectors]
    if first.shape != (n,):
        raise DimMismatch(f"expected vectors of length {n}, got shape {first.shape}")
    return float(partial_contraction(tensor, 0, rest) @ first)


def partial_contraction(tensor: SignTensor, axis: int, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Contract every axis except ``axis`` with the given vectors (in axis order).

    Returns the length-n coefficient vector c with
    evaluate == <c, x^(axis)> for any choice of the remaining vector.
    Integer vectors contract exactly in int64; otherwise float64.
    """
    m, n = tensor.dims.m, tensor.dims.n
    if not 0 <= axis < m:
        raise AxisOutOfRange(f"axis {axis} outside 0..{m - 1}")
    vecs = [np.asarray(v) for v in vectors]
    if len(vecs) != m - 1:
        raise DimMismatch(f"expected {m - 1} vectors, got {len(vecs)}")
    for v in vecs:
        if v.shape != (n,):
            raise DimMismatch(f"expected vectors of length {n}, got shape {v.shape}")
    exact = all(np.issubdtype(v.dtype, np.integer) for v in vecs)
    dtype = np.int64 if exact else np.float64
    stack = np.array(vecs, dtype=dtype).reshape(1, m - 1, n)
    return _contract(np.moveaxis(tensor.view(), axis, 0).astype(dtype), stack)[0]


def _contract(moved: np.ndarray, stack: np.ndarray, lead: np.ndarray | None = None) -> np.ndarray:
    """Contract a typed board view with each row of an (S, m-1, n) vector stack.

    ``moved`` is the (n,)*m board with the free axis first, already in the
    stack's dtype; row s contracts the last axis with stack[s, -1] first.
    Each step is a broadcast matmul, so every row runs the same gemv on the
    same matrix as ``moved @ v``: results are bit-identical to a per-row
    loop. Returns (S, n).

    Where that last axis is strided, numpy cannot hand the first step to
    BLAS and runs its own loop, which adds each output's terms in index order
    from 0. ``lead``, a C-contiguous copy of the board with that axis first
    and ``moved``'s other axes after it, runs the step as an einsum instead:
    numpy's unoptimised einsum loop adds the same terms in the same order,
    several times faster, and its C-contiguous result keeps the later steps
    on BLAS. The bytes match for a +/-1 board, whose products are exact (a
    fused multiply-add rounds as a separate one), and a stack without nan.
    """
    s, k = stack.shape[:2]
    if not k:  # m = 1: the board is its own contraction
        return np.repeat(moved[None], s, axis=0)
    cur = moved
    if lead is not None:
        cur, k = np.einsum("b...,sb->s...", lead, stack[:, -1]), k - 1
    for j in range(k - 1, -1, -1):
        cur = (cur @ stack[:, j].reshape(s, *(1,) * j, -1, 1))[..., 0]
    return cur


def apply_switch(tensor: SignTensor, assignment: SwitchAssignment) -> SignTensor:
    """Entrywise switch action: a_I -> a_I * x_{i_1}^(0) ... x_{i_m}^(m-1).

    An involution: applying the same assignment twice restores the tensor.
    """
    _require_same_dims(tensor.dims, assignment.dims)
    factor = assignment.vectors[0]
    for k in range(1, tensor.dims.m):
        factor = np.multiply.outer(factor, assignment.vectors[k])
    flipped = tensor.view() * factor
    return SignTensor(tensor.dims, _frozen_i8(flipped.reshape(-1)))


def _row_norms(a: np.ndarray, p: float) -> np.ndarray:
    """lp norms of the rows of a nonnegative (S, n) array, for any p > 0 (inf allowed).

    Rows are scaled by their max entry (a zero or infinite max by 1), so no
    power overflows or underflows (Blue 1978). The final power is a Python
    float pow per row, the libm ``pow`` that numpy's scalar ``**`` calls:
    numpy's SIMD ``**`` differs in the last bit on some CPUs, and ascent
    values reach the CLI through ``repr``.
    """
    top = a.max(axis=1, initial=0.0)
    if math.isinf(p):
        return top
    scale = np.where(np.isfinite(top) & (top > 0), top, 1.0)
    sums = ((a / scale[:, None]) ** p).sum(axis=1)
    root = 1.0 / p
    try:
        powers = [s ** root for s in sums.tolist()]
    except OverflowError:  # Python's pow raises where numpy's scalar pow gives inf (a sum past 1, p tiny)
        powers = [float(s ** root) for s in sums]
    return top * np.array(powers)


def mixed_norm(data, exponents: MixedExponents) -> float:
    """Iterated norm, contracting the last axis first.

    With exponents (q_0, ..., q_{m-1}) the last axis is reduced with the
    q_{m-1} norm, then the next with q_{m-2}, and so on; q_k = inf takes a
    max. Callers permute axes explicitly when a formula needs another
    contraction order. All exponents must be > 0; each axis is reduced by
    ``_row_norms``.
    """
    if isinstance(data, SignTensor):
        arr = data.view().astype(np.float64)
    else:
        arr = np.asarray(data, dtype=np.float64)
    qs = [float(q) for q in exponents]
    if len(qs) != arr.ndim:
        raise DimMismatch(f"expected {arr.ndim} exponents, got {len(qs)}")
    for q in qs:
        if math.isnan(q) or q <= 0:
            raise InvalidExponent(f"mixed-norm exponents must be > 0, got {q}")
    arr = np.abs(arr)
    for q in reversed(qs):
        lead = arr.shape[:-1]
        arr = _row_norms(arr.reshape(math.prod(lead), arr.shape[-1]), q).reshape(lead)
    return float(arr)


# --- JSON interchange -------------------------------------------------------
#
# Wire format (bit-exact contract): an object with integer fields "m" and
# "n" and an array "entries" of exactly n**m integers, each +1 or -1,
# row-major with axis 0 slowest. Readers reject everything else.


def to_json_dict(tensor: SignTensor) -> dict:
    return {
        "m": tensor.dims.m,
        "n": tensor.dims.n,
        "entries": [int(e) for e in tensor.entries],
    }


def from_json_dict(obj) -> SignTensor:
    if not isinstance(obj, dict):
        raise ValueError("tensor JSON must be an object")
    extra = set(obj) - {"m", "n", "entries"}
    if extra:
        raise ValueError(f"unexpected tensor JSON fields: {sorted(extra)}")
    for key in ("m", "n", "entries"):
        if key not in obj:
            raise ValueError(f"tensor JSON missing field {key!r}")
    dims = DimSpec(obj["m"], obj["n"])
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValueError("tensor JSON field entries must be an array")
    if len(entries) != dims.size:
        raise LengthMismatch(f"expected {dims.size} entries, got {len(entries)}")
    # two C-level passes accept plain +/-1 ints; the loop names the first bad entry
    if not (set(map(type, entries)) <= {int} and set(entries) <= {-1, 1}):
        for e in entries:
            if isinstance(e, bool) or not isinstance(e, int) or e not in (-1, 1):
                raise NonUnimodularEntry(f"entries must be integers +1 or -1, found {e!r}")
    return make_tensor(dims, entries)


def write_tensor(path, tensor: SignTensor) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(to_json_dict(tensor), separators=(",", ":")) + "\n")


def read_tensor(path) -> SignTensor:
    """The tensor in a wire-format file; one over 8 * 2**27 + 4096 bytes is refused unparsed (BudgetExceeded).

    json.load would hold all of it before DimSpec sees m and n. 2**27 is rng.MAX_DRAW_ENTRIES, the cap on every
    board the CLI draws; 8 bytes an entry, against 2 or 3 for "1," or "-1,", leaves room for whitespace.
    """
    limit = 8 * MAX_DRAW_ENTRIES + 4096
    with open(path, "r", encoding="ascii") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > limit:
            raise BudgetExceeded(f"tensor file {path} has {size} bytes; the limit is {limit} "
                                 f"(2**{MAX_DRAW_ENTRIES.bit_length() - 1} entries at 8 bytes each, plus 4096)")
        return from_json_dict(json.load(fh))
