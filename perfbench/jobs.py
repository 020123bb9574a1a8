"""Workload job lists, their inputs and their output checks.

Every input comes from the workload seed; the program only receives the
generated boards or argv. A job is a call into gbswitch's public API plus a
check that runs outside the timed region and returns the bytes that go
into the job's digest.

Why these workloads:

- ``exact-large``: ``solvers.exact_max`` on boards with 2**14 to 2**19
  assignments each, so the enumeration kernel is nearly all of the time
  and per-call overhead is close to zero. m runs from 2 to 5, so a kernel
  tuned for m=2 that slows m>=3 shows in the per-m rates.
- ``board-sweep``: six CLI commands run in-process, about 72k tiny exact
  solves on the unchunked path plus the ``experiments`` thread pool;
  validation, witness re-evaluation and dispatch dominate, the kernel does
  little. ``constants`` and ``region`` keep ``bounds`` on the path.
- ``ascent``: ``lp.alternating_max`` (float64 contractions) next to
  ``random_restart_greedy`` and ``local_search`` (int64 contractions); the
  exact kernel never runs. Every ascent job has a fixed budget of
  ``ASCENT_SWEEPS`` sweeps per start, below the sweeps any start needed to
  converge in trial runs, so each job does the same amount of work at every
  seed; how often a start converges is the per-layer
  ``converged_ratio``, not part of ``wall_s``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from gbswitch import cli, lp, solvers, tensor

EXACT_SIZES = ((2, 16), (2, 18), (2, 20), (3, 8), (3, 9), (4, 5), (4, 6), (5, 4))
EXACT_BOARDS = 3

ASCENT_SIZES = ((2, 256), (3, 20), (3, 32))
ASCENT_P = (2, 3)
ASCENT_BOARDS = 4
ASCENT_SWEEPS = 16
HEURISTIC_SIZES = ((2, 64), (2, 128), (3, 16))
HEURISTIC_BOARDS = 6
RESTARTS = 64

# Kept from before tracing is installed, so checks never add spans.
_evaluate = tensor.evaluate
_evaluate_real = tensor.evaluate_real


class JobFailed(Exception):
    """A job's output did not pass its check."""


class Job(NamedTuple):
    label: str
    call: Callable[[], object]
    #: Raises JobFailed on a wrong output; returns the bytes to digest.
    check: Callable[[object], bytes]
    #: False when the output does not depend on the seed.
    seeded: bool = True


def _rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed, *parts])


def _board(seed: int, tag: int, m: int, n: int, i: int) -> tensor.SignTensor:
    entries = _rng(seed, tag, m, n, i).integers(0, 2, size=n ** m, dtype=np.int8) * 2 - 1
    return tensor.make_tensor(tensor.DimSpec(m, n), entries)


def _call_seed(seed: int, *parts: int) -> int:
    return int(_rng(seed, *parts).integers(1 << 62))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise JobFailed(what)


def _solve_digest(board, res, method) -> bytes:
    _require(res.method is method, f"method {res.method} is not {method}")
    _require(_evaluate(board, res.witness) == res.value, "witness does not re-evaluate to the value")
    return f"{res.value}|".encode() + res.witness.vectors.tobytes()


# --- exact-large -------------------------------------------------------------


def _exact_job(board, i: int) -> Job:
    m, n = board.dims.m, board.dims.n
    assignments = 1 << (n * (m - 1) - 1)

    def check(res) -> bytes:
        _require(res.evaluations == assignments, f"enumerated {res.evaluations} of {assignments}")
        return _solve_digest(board, res, solvers.Method.EXACT)

    return Job(f"exact m={m} n={n} #{i}", lambda: solvers.exact_max(board), check)


def exact_large(seed: int, workdir: Path) -> tuple[list[Job], list[Job]]:
    jobs = [_exact_job(_board(seed, 1, m, n, i), i) for m, n in EXACT_SIZES for i in range(EXACT_BOARDS)]
    # the sizes with the largest temporaries, so that the allocator has
    # settled before timing (the first pass otherwise spends ~0.7 s
    # faulting in fresh pages)
    warm = [_exact_job(_board(0, 1, m, n, 0), 0) for m, n in ((3, 9), (4, 6), (5, 4))]
    return jobs, warm


# --- ascent ------------------------------------------------------------------


def _ascent_job(board, i: int, p, call_seed: int, sweeps_max: int = ASCENT_SWEEPS) -> Job:
    m, n = board.dims.m, board.dims.n

    def call():
        return lp.alternating_max(board, p, sweeps_max=sweeps_max, seed=call_seed)

    def check(res) -> bytes:
        _require(len(res.points) == m and res.trace.sweeps <= sweeps_max, "malformed ascent result")
        achieved = _evaluate_real(board, [pt.coords for pt in res.points])
        _require(math.isclose(achieved, res.value, rel_tol=1e-9), f"witness gives {achieved}, not {res.value}")
        # float64 sums may differ in the last bits between BLAS kernels
        return f"{res.value:.10g}".encode()

    return Job(f"alt m={m} n={n} p={p} #{i}", call, check)


def _greedy_job(board, i: int, call_seed: int) -> Job:
    m, n = board.dims.m, board.dims.n

    def check(res) -> bytes:
        _require(res.evaluations == RESTARTS, f"{res.evaluations} restarts, not {RESTARTS}")
        return _solve_digest(board, res, solvers.Method.RANDOM_RESTART)

    return Job(f"greedy m={m} n={n} #{i}", lambda: solvers.random_restart_greedy(board, RESTARTS, call_seed), check)


def _local_job(board, i: int, start) -> Job:
    m, n = board.dims.m, board.dims.n
    start_value = _evaluate(board, start)

    def check(res) -> bytes:
        _require(res.value >= start_value, "local search ended below its start")
        return _solve_digest(board, res, solvers.Method.LOCAL_SEARCH)

    return Job(f"local m={m} n={n} #{i}", lambda: solvers.local_search(board, start), check)


def _start(seed: int, i: int, board) -> tensor.SwitchAssignment:
    m, n = board.dims.m, board.dims.n
    signs = _rng(seed, 4, m, n, i).integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1
    return tensor.make_assignment(board.dims, signs)


def ascent(seed: int, workdir: Path) -> tuple[list[Job], list[Job]]:
    jobs = []
    for m, n in ASCENT_SIZES:
        for i in range(ASCENT_BOARDS):
            board = _board(seed, 2, m, n, i)
            jobs += [_ascent_job(board, i, p, _call_seed(seed, 2, m, n, i, p)) for p in ASCENT_P]
    for m, n in HEURISTIC_SIZES:
        for i in range(HEURISTIC_BOARDS):
            board = _board(seed, 3, m, n, i)
            jobs.append(_greedy_job(board, i, _call_seed(seed, 3, m, n, i)))
            jobs.append(_local_job(board, i, _start(seed, i, board)))
    small = _board(0, 2, 2, 16, 0)
    warm = [
        _ascent_job(small, 0, 2, 0, sweeps_max=2),
        _greedy_job(small, 0, 0),
        _local_job(small, 0, _start(0, 0, small)),
    ]
    return jobs, warm


# --- board-sweep -------------------------------------------------------------

#: Methods whose verdict must be PASS because the bound behind them is
#: proven. The ksz slope is a statistical fit: its verdict may be FAIL at
#: some seeds, and then the expected exit code is 1.
_CERTIFIED = {"norm-lower-bound", "blowup-check", "sampled-bound", "min-value", "extremal-count", "min-norm"}
#: The CLI's default ``ksz --tol``.
_SLOPE_TOL = 0.2


def _sweep_commands(seed: int) -> list[tuple[list[str], int, bool]]:
    """(argv, rows printed, whether the output depends on the seed) per command."""
    s = str(seed)
    return [
        (["verify-bound", "--max-n", "4", "--m3-samples", "2000", "--seed", s], 7, True),
        (["verify-extremal"], 2, False),
        (["ksz", "--m", "2", "--n", "3:7", "--samples", "500", "--seed", s], 6, True),
        (["ksz", "--m", "3", "--n", "2:4", "--samples", "500", "--seed", s], 4, True),
        (["constants", "--m", "2,5,10,100,1000"], 5, False),
        (["region", "--m", "2", "--boundary", "--grid-points", "80"], 160, False),
    ]


def _check_csv(text: str, rows_expected: int, code: int) -> None:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == cli.CSV_HEADER, "missing CSV header")
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == rows_expected, f"{len(rows)} rows, expected {rows_expected}")
    for row in rows:
        verdict = row["verdict"]
        if row["method"] in _CERTIFIED:
            _require(verdict == cli.PASS, f"{row['method']} verdict {verdict}")
        elif row["method"] == "slope":
            within = abs(float(row["value"]) - float(row["reference"])) <= _SLOPE_TOL
            _require(verdict == (cli.PASS if within else cli.FAIL), f"slope verdict {verdict} disagrees")
        else:
            _require(verdict == cli.INFO, f"{row['method']} verdict {verdict}")
    expected_code = 1 if any(row["verdict"] == cli.FAIL for row in rows) else 0
    _require(code == expected_code, f"exit code {code}, expected {expected_code}")


def _cli_job(argv: list[str], rows_expected: int, seeded: bool, out: Path) -> Job:
    def check(code) -> bytes:
        data = out.read_bytes()
        _check_csv(data.decode("ascii"), rows_expected, code)
        out.unlink()
        return f"{code}|".encode() + data

    return Job(" ".join(argv[:1] + argv[1:3]), lambda: cli.run(["--output", str(out), *argv]), check, seeded)


def board_sweep(seed: int, workdir: Path) -> tuple[list[Job], list[Job]]:
    jobs = [
        _cli_job(argv, rows, seeded, workdir / f"job{i}.csv")
        for i, (argv, rows, seeded) in enumerate(_sweep_commands(seed))
    ]
    warm = [
        _cli_job(["verify-extremal"], 2, False, workdir / "warm0.csv"),
        _cli_job(["ksz", "--m", "2", "--n", "2:3", "--samples", "8", "--seed", "0"], 3, False, workdir / "warm1.csv"),
    ]
    return jobs, warm


WORKLOADS = {"exact-large": exact_large, "board-sweep": board_sweep, "ascent": ascent}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]
