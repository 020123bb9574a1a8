"""Dense sign tensors: construction, evaluation, switching, mixed norms.

An order-m tensor with every entry +1 or -1 is the board of the switching
game; one +/-1 vector per axis encodes the switch states. Entries are
stored flat in row-major order (axis 0 slowest) as int8, and all +/-1
arithmetic accumulates in int64, so game values are exact integers.
Floating point enters only for lp work (real contraction vectors, mixed
norms).

All types are immutable after construction; every operation is a pure
function, safe to call from concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AxisOutOfRange,
    DimMismatch,
    InvalidExponent,
    LengthMismatch,
    NonUnimodularEntry,
    SizeOverflow,
)

MAX_ENTRIES = 1 << 40

#: Per-axis exponent sequence for ``mixed_norm``; each entry > 0, math.inf allowed.
MixedExponents = Sequence[float]


@dataclass(frozen=True)
class DimSpec:
    """Shape of a cubic order-m tensor: m axes, each of length n."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("m and n must be int")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be positive, got m={self.m} n={self.n}")
        if self.n ** self.m > MAX_ENTRIES:
            raise SizeOverflow(f"n**m = {self.n}**{self.m} exceeds 2**40")

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
    ok = (
        arr.dtype != np.bool_
        and np.issubdtype(arr.dtype, np.number)
        and not np.issubdtype(arr.dtype, np.complexfloating)
        and bool((np.abs(arr) == 1).all())
    )
    if not ok:
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
    """Uniform i.i.d. +/-1 tensor (the random-signs model of the norm experiments)."""
    entries = rng.integers(0, 2, size=dims.size, dtype=np.int8) * 2 - 1
    return SignTensor(dims, _frozen_i8(entries))


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
    """Same m-fold sum with arbitrary real vectors, in float64."""
    m, n = tensor.dims.m, tensor.dims.n
    if len(vectors) != m:
        raise DimMismatch(f"expected {m} vectors, got {len(vectors)}")
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    for v in vecs:
        if v.shape != (n,):
            raise DimMismatch(f"expected vectors of length {n}, got shape {v.shape}")
    cur = tensor.view().astype(np.float64)
    for v in reversed(vecs):
        cur = cur @ v
    return float(cur)


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


#: A contraction stack runs in blocks of ``_stack_rows`` rows.
_STACK_BITS = 14


def _stack_rows(m: int, n: int) -> int:
    """Rows per block of an (S, m-1, n) contraction stack.

    Every temporary of ``_contract`` then stays within
    max(2**_STACK_BITS * n, n**(m-1)) elements, the exact kernel's rule.
    """
    return max(1, (n << _STACK_BITS) // n ** max(1, m - 1))


def _contract(moved: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Contract a typed board view with each row of an (S, m-1, n) vector stack.

    ``moved`` is the (n,)*m board with the free axis first, already in the
    stack's dtype; row s contracts the last axis with stack[s, -1] first.
    Each step is a broadcast matmul, so every row runs the same gemv on the
    same strided matrix as ``moved @ v``: results are bit-identical to a
    per-row loop. Returns (S, n).
    """
    s, k = stack.shape[:2]
    if not k:  # m = 1: the board is its own contraction
        return np.repeat(moved[None], s, axis=0)
    cur = moved
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


def mixed_norm(data, exponents: MixedExponents) -> float:
    """Iterated norm, contracting the last axis first.

    With exponents (q_0, ..., q_{m-1}) the last axis is reduced with the
    q_{m-1} norm, then the next with q_{m-2}, and so on; q_k = inf takes a
    max. Callers permute axes explicitly when a formula needs another
    contraction order. All exponents must be > 0.
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
        if math.isinf(q):
            arr = arr.max(axis=-1)
        else:
            arr = (arr ** q).sum(axis=-1) ** (1.0 / q)
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
    m, n = obj["m"], obj["n"]
    if isinstance(m, bool) or isinstance(n, bool) or not isinstance(m, int) or not isinstance(n, int):
        raise ValueError("tensor JSON fields m and n must be integers")
    dims = DimSpec(m, n)
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValueError("tensor JSON field entries must be an array")
    if len(entries) != dims.size:
        raise LengthMismatch(f"expected {dims.size} entries, got {len(entries)}")
    for e in entries:
        if isinstance(e, bool) or not isinstance(e, int) or e not in (-1, 1):
            raise NonUnimodularEntry(f"entries must be integers +1 or -1, found {e!r}")
    return make_tensor(dims, entries)


def dump_json(tensor: SignTensor) -> str:
    return json.dumps(to_json_dict(tensor), separators=(",", ":"))


def write_tensor(path, tensor: SignTensor) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_json(tensor))
        fh.write("\n")


def read_tensor(path) -> SignTensor:
    with open(path, "r", encoding="ascii") as fh:
        return from_json_dict(json.load(fh))
