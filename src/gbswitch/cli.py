"""Command-line harness: the only module with side effects.

Emits one CSV (or JSON-lines) record per result. All randomized
subcommands require --seed and are bit-reproducible; GB_THREADS must be a
positive integer if set, but schedules nothing. runtime_ms is wall time;
set GB_FIXED_RUNTIME_MS to pin it for byte-exact output comparisons (the
same role SOURCE_DATE_EPOCH plays in reproducible builds).

Exit codes: 0 success (no FAIL verdicts), 1 at least one FAIL, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import bounds, experiments, lp, solvers
from . import tensor as tz
from .errors import BudgetExceeded, DimMismatch, InvalidExponent
from .rng import mix, sign_draws

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"

CSV_HEADER = "command,m,n,p,r,seed,method,value,reference,verdict,runtime_ms"

#: Errors reported with exit 2; the package's input errors all subclass ValueError.
_HANDLED_ERRORS = (BudgetExceeded, OSError, ValueError)


@dataclass
class ExperimentRecord:
    """One harness output row; verdict PASS/FAIL only under a reference bound."""

    command: str
    m: Optional[int] = None
    n: Optional[int] = None
    p: Optional[object] = None
    r: Optional[object] = None
    seed: Optional[int] = None
    method: str = ""
    value: Optional[object] = None
    reference: Optional[object] = None
    verdict: str = INFO
    runtime_ms: int = 0
    witness: Optional[str] = None


def _fmt_exponent(x) -> str:
    if x is None:
        return ""
    if x == math.inf:
        return "inf"
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


def _fmt_number(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


def _runtime_ms(elapsed: float) -> int:
    fixed = os.environ.get("GB_FIXED_RUNTIME_MS")
    if fixed is not None:
        try:
            return int(fixed)
        except ValueError:
            raise ValueError(f"GB_FIXED_RUNTIME_MS must be an integer, got {fixed!r}") from None
    return int(round(elapsed * 1000.0))


def witness_to_str(assignment: tz.SwitchAssignment) -> str:
    """Compact per-axis sign string, axes joined by '|': e.g. '+-|++'."""
    return "|".join(
        "".join("+" if v > 0 else "-" for v in assignment.vectors[a])
        for a in range(assignment.dims.m)
    )


def witness_from_str(text: str, dims: tz.DimSpec) -> tz.SwitchAssignment:
    parts = text.split("|")
    if len(parts) != dims.m or any(len(part) != dims.n for part in parts):
        raise DimMismatch(f"witness {text!r} does not match m={dims.m}, n={dims.n}")
    vectors = [[1 if ch == "+" else -1 for ch in part] for part in parts]
    return tz.make_assignment(dims, vectors)


def render(records: list[ExperimentRecord], as_json: bool) -> str:
    if as_json:
        lines = []
        for rec in records:
            lines.append(json.dumps({
                "command": rec.command,
                "m": rec.m,
                "n": rec.n,
                "p": _fmt_exponent(rec.p) or None,
                "r": _fmt_exponent(rec.r) or None,
                "seed": rec.seed,
                "method": rec.method,
                "value": None if rec.value is None else float(rec.value),
                "reference": None if rec.reference is None else float(rec.reference),
                "verdict": rec.verdict,
                "runtime_ms": rec.runtime_ms,
                "witness": rec.witness,
            }, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    has_witness = any(rec.witness is not None for rec in records)
    lines = [CSV_HEADER + (",witness" if has_witness else "")]
    for rec in records:
        fields = [
            rec.command,
            "" if rec.m is None else str(rec.m),
            "" if rec.n is None else str(rec.n),
            _fmt_exponent(rec.p),
            _fmt_exponent(rec.r),
            "" if rec.seed is None else str(rec.seed),
            rec.method,
            _fmt_number(rec.value),
            _fmt_number(rec.reference),
            rec.verdict,
            str(rec.runtime_ms),
        ]
        if has_witness:
            fields.append(rec.witness or "")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


# --- argument parsing --------------------------------------------------------


def parse_exponent(text: str):
    """'inf', an exact rational 'a/b', or a decimal; decimals parse exactly."""
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return math.inf
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid exponent {text!r}") from exc


def parse_n_values(text: str) -> list[int]:
    """'2:6' (inclusive range), '2,3,5', or a single integer."""
    t = text.strip()
    try:
        if ":" in t:
            lo_s, hi_s = t.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo or lo < 1:
                raise ValueError
            return list(range(lo, hi + 1))
        if "," in t:
            values = [int(x) for x in t.split(",")]
        else:
            values = [int(t)]
        if any(v < 1 for v in values):
            raise ValueError
        return values
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid n specification {text!r}") from exc


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer list {text!r}") from exc


def parse_exponent_list(text: str) -> list:
    return [parse_exponent(x) for x in text.split(",")]


def _add_solver_options(sp: argparse.ArgumentParser, default_method: str) -> None:
    """The options ``solve`` and ``scan`` share, in the order their usage lists them."""
    sp.add_argument("--p", type=parse_exponent, default=math.inf)
    sp.add_argument("--method", choices=tuple(_SOLVERS), default=default_method)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--restarts", type=int, default=64)
    sp.add_argument("--starts", type=int, default=8)
    sp.add_argument("--sweeps-max", type=int, default=1000)
    sp.add_argument("--max-flips", type=int, default=10_000)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--force", action="store_true", help="override the exact enumeration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbswitch",
        description="Switching-game solvers, lp ascent, exponent formulas, and sharpness experiments.",
    )
    parser.add_argument("--output", help="write records to this file instead of stdout")
    parser.add_argument("--json", action="store_true", help="emit JSON lines instead of CSV")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one tensor instance from a JSON file")
    sp.add_argument("--input", required=True, help="tensor JSON file")
    _add_solver_options(sp, default_method="exact")

    sp = sub.add_parser("scan", help="value versus n for one solver on random boards")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=parse_n_values, required=True)
    _add_solver_options(sp, default_method="greedy")

    sp = sub.add_parser("ksz", help="random-tensor minimum-norm sharpness experiment")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=parse_exponent, default=math.inf)
    sp.add_argument("--n", type=parse_n_values, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tol", type=float, default=0.2)
    sp.add_argument("--starts", type=int, default=8)

    sp = sub.add_parser("verify-bound", help="exhaustive lower-bound and blow-up checks")
    sp.add_argument("--max-n", type=int, default=4, help="exhaust all 2x2..max-n boards (m=2)")
    sp.add_argument("--blowup-n", type=int, default=3)
    sp.add_argument("--r", type=parse_exponent_list, default=[Fraction(1), Fraction(4, 3), Fraction(2)])
    sp.add_argument("--m3-samples", type=int, default=0, help="also sample m=3, n=3 boards")
    sp.add_argument("--seed", type=int)

    sub.add_parser("verify-extremal", help="check the eight minimal 2x2 boards exhaustively")

    sp = sub.add_parser("constants", help="asymptotic constant table")
    sp.add_argument("--m", type=parse_int_list, required=True)

    sp = sub.add_parser("region", help="sharp-exponent region classifier")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=parse_exponent)
    sp.add_argument("--r", type=parse_exponent)
    sp.add_argument("--conjecture", action="store_true", help="also emit the conjectured exponent (UNVERIFIED)")
    sp.add_argument("--boundary", action="store_true", help="emit the region-boundary polylines as rows")
    sp.add_argument("--p-max", type=parse_exponent, default=Fraction(12))
    sp.add_argument("--grid-points", type=int, default=40)

    sp = sub.add_parser("gen", help="write a random sign tensor JSON file")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", required=True)

    return parser


def _random_board(dims: tz.DimSpec, seed: int) -> tz.SignTensor:
    """The board ``tz.random_tensor(dims, np.random.Generator(np.random.PCG64(seed)))`` draws."""
    return tz.make_tensor(dims, sign_draws([seed], 1, dims.size)[0, 0])


def _require_seed(args, parser) -> int:
    if args.seed is None:
        parser.error(f"--seed is required for randomized subcommand {args.command!r}")
    return args.seed


# --- subcommands -------------------------------------------------------------


def _reference_bound(m: int, n: int, p) -> Optional[float]:
    try:
        return lp.g_lower_bound_formula(m, n, p)
    except InvalidExponent:
        return None


#: Solver per --method. All but alt maximise over sign vectors, so need p = inf.
_SOLVERS = {
    "exact": lambda T, args, seed: solvers.exact_max(T, allow_large=args.force),
    "greedy": lambda T, args, seed: solvers.random_restart_greedy(T, args.restarts, seed),
    "local": lambda T, args, seed: solvers.local_search(
        T, tz.make_assignment(T.dims, sign_draws([mix(seed)], T.dims.m, T.dims.n)[0]), args.max_flips
    ),
    "alt": lambda T, args, seed: lp.alternating_max(
        T, args.p, starts=args.starts, sweeps_max=args.sweeps_max, tol=args.tol, seed=seed
    ),
}


def _solve_one(T, args, parser, seed) -> ExperimentRecord:
    if args.method != "alt" and args.p != math.inf:
        parser.error(f"--method {args.method} requires --p inf")
    m, n = T.dims.m, T.dims.n
    t0 = time.perf_counter()
    res = _SOLVERS[args.method](T, args, seed)
    witness = None if args.method == "alt" else witness_to_str(res.witness)
    reference = _reference_bound(m, n, args.p)
    if args.method == "exact" and reference is not None:
        verdict = PASS if res.value >= reference else FAIL
    else:
        verdict = INFO
    return ExperimentRecord(
        command=args.command, m=m, n=n, p=args.p, seed=seed, method=args.method,
        value=res.value, reference=reference, verdict=verdict,
        runtime_ms=_runtime_ms(time.perf_counter() - t0), witness=witness,
    )


def _cmd_solve(args, parser) -> list[ExperimentRecord]:
    seed = None if args.method == "exact" else _require_seed(args, parser)
    T = tz.read_tensor(args.input)
    return [_solve_one(T, args, parser, seed)]


def _cmd_scan(args, parser) -> list[ExperimentRecord]:
    seed = _require_seed(args, parser)
    records = []
    for n in args.n:
        T = _random_board(tz.DimSpec(args.m, n), mix(seed, n))
        rec = _solve_one(T, args, parser, seed)
        rec.witness = None
        records.append(rec)
    return records


def _cmd_ksz(args, parser) -> list[ExperimentRecord]:
    seed = _require_seed(args, parser)
    t0 = time.perf_counter()
    result = experiments.sharpness_experiment(
        args.m, args.p, args.n, args.samples, seed, tol=args.tol, starts=args.starts
    )
    elapsed = _runtime_ms(time.perf_counter() - t0)
    records = []
    for s in result.samples:
        reference = _reference_bound(s.m, s.n, s.p)
        if s.exact and reference is not None:
            verdict = PASS if s.min_norm >= reference else FAIL
        else:
            verdict = INFO
        records.append(ExperimentRecord(
            command="ksz", m=s.m, n=s.n, p=s.p, seed=seed, method="min-norm",
            value=s.min_norm, reference=reference, verdict=verdict, runtime_ms=elapsed,
        ))
    passed = result.passed
    records.append(ExperimentRecord(
        command="ksz", m=args.m, p=args.p, seed=seed, method="slope",
        value=result.fit.slope, reference=result.reference,
        verdict=INFO if passed is None else (PASS if passed else FAIL),
        runtime_ms=elapsed,
    ))
    return records


#: verify-bound tabulates every n x n board at once, so n*n stays within this many bits.
_SWEEP_BITS = 16


def _all_boards(n: int) -> np.ndarray:
    """Every n x n sign board; bit j of the board's index drives flat entry j."""
    return solvers.sign_rows(n * n)[:, ::-1]


def _cmd_verify_extremal(args, parser) -> list[ExperimentRecord]:
    t0 = time.perf_counter()
    boards = _all_boards(2)
    values = solvers.exact_max_batch(2, 2, boards)[0]
    classified = [solvers.classify_extremal(tz.make_tensor(tz.DimSpec(2, 2), row)) for row in boards]
    elapsed = _runtime_ms(time.perf_counter() - t0)
    ok_sets = (values == 2).tolist() == classified and classified.count(True) == 8
    return [
        ExperimentRecord(
            command="verify-extremal", m=2, n=2, p=math.inf, method="min-value",
            value=int(values.min()), reference=2,
            verdict=PASS if values.min() >= 2 else FAIL, runtime_ms=elapsed,
        ),
        ExperimentRecord(
            command="verify-extremal", m=2, n=2, p=math.inf, method="extremal-count",
            value=int((values == 2).sum()), reference=8,
            verdict=PASS if ok_sets else FAIL, runtime_ms=elapsed,
        ),
    ]


def _cmd_verify_bound(args, parser) -> list[ExperimentRecord]:
    if args.max_n ** 2 > _SWEEP_BITS:
        raise BudgetExceeded(f"--max-n {args.max_n} would tabulate all 2**{args.max_n ** 2} boards; "
                             f"the limit is 2**{_SWEEP_BITS} boards (--max-n {math.isqrt(_SWEEP_BITS)})")
    if args.m3_samples > 0:
        _require_seed(args, parser)
    records = []
    min_by_n = {}
    for n in range(2, args.max_n + 1):
        t0 = time.perf_counter()
        min_by_n[n] = best = int(solvers.exact_max_batch(2, n, _all_boards(n))[0].min())
        reference = n ** 1.5 / bounds.km_constant(2)
        records.append(ExperimentRecord(
            command="verify-bound", m=2, n=n, p=math.inf, method="norm-lower-bound",
            value=best, reference=reference,
            verdict=PASS if best >= reference else FAIL,
            runtime_ms=_runtime_ms(time.perf_counter() - t0),
        ))
    n = args.blowup_n
    if n not in min_by_n:
        parser.error("--blowup-n must be within --max-n")
    for r in args.r:
        # every sign board has sum |a|^r = n^2 exactly, so the worst ratio
        # over boards is attained at the minimum exact value
        t0 = time.perf_counter()
        expo = bounds.blowup_exponent(2, math.inf, r)
        lhs = float(n * n) ** (1.0 / float(r))
        worst = lhs / (float(n) ** float(expo) * min_by_n[n])
        reference = bounds.km_constant(2)
        records.append(ExperimentRecord(
            command="verify-bound", m=2, n=n, p=math.inf, r=r, method="blowup-check",
            value=worst, reference=reference,
            verdict=PASS if worst <= reference else FAIL,
            runtime_ms=_runtime_ms(time.perf_counter() - t0),
        ))
    if args.m3_samples > 0:
        t0 = time.perf_counter()
        boards = sign_draws(mix(args.seed, 3, np.arange(args.m3_samples, dtype=np.uint64)), 1, 3 ** 3)[:, 0]
        best = int(solvers.exact_max_batch(3, 3, boards)[0].min())
        reference = 3.0 ** 2 / bounds.km_constant(3)
        records.append(ExperimentRecord(
            command="verify-bound", m=3, n=3, p=math.inf, seed=args.seed, method="sampled-bound",
            value=best, reference=reference,
            verdict=PASS if best >= reference else FAIL,
            runtime_ms=_runtime_ms(time.perf_counter() - t0),
        ))
    return records


def _cmd_constants(args, parser) -> list[ExperimentRecord]:
    records = []
    for m in args.m:
        t0 = time.perf_counter()
        value = bounds.bh_asymptotic_constant(m)
        records.append(ExperimentRecord(
            command="constants", m=m, method="bh-constant", value=value,
            verdict=INFO, runtime_ms=_runtime_ms(time.perf_counter() - t0),
        ))
    return records


def _cmd_region(args, parser) -> list[ExperimentRecord]:
    if args.p is None and not args.boundary:
        parser.error("region requires --p and/or --boundary")
    records = []
    m = args.m
    if args.boundary:
        t0 = time.perf_counter()
        points = max(2, args.grid_points)
        threshold = Fraction(2 * m, m + 1)
        p_max = args.p_max if args.p_max != math.inf else Fraction(12)
        for i in range(1, points + 1):
            p_i = 1 + i * Fraction(1, points)  # lower curve lives on (1, 2]
            records.append(ExperimentRecord(
                command="region", m=m, p=p_i, method="lower-curve",
                value=float(m * p_i / (p_i - 1)), verdict=INFO,
                runtime_ms=_runtime_ms(time.perf_counter() - t0),
            ))
        step = (Fraction(p_max) - threshold) / points
        for i in range(1, points + 1):
            p_i = threshold + i * step
            records.append(ExperimentRecord(
                command="region", m=m, p=p_i, method="sharp-curve",
                value=float(2 * m * p_i / (m * p_i + p_i - 2 * m)), verdict=INFO,
                runtime_ms=_runtime_ms(time.perf_counter() - t0),
            ))
    if args.p is not None:
        t0 = time.perf_counter()
        verdict = bounds.unimodular_sharp_exponent(m, args.p)
        if args.r is not None:
            kind = bounds.classify_point(m, args.p, args.r)
            method = kind.value
        else:
            method = verdict.kind.value
        if verdict.sharp_exponent is not None:
            value, reference = float(verdict.sharp_exponent), float(verdict.sharp_exponent)
        else:
            lo, hi = verdict.interval
            value = float(lo)
            reference = math.inf if hi == math.inf else float(hi)
        records.append(ExperimentRecord(
            command="region", m=m, p=args.p, r=args.r, method=method,
            value=value, reference=reference, verdict=INFO,
            runtime_ms=_runtime_ms(time.perf_counter() - t0),
        ))
        if args.conjecture:
            conj = bounds.conjecture_exponent(m, args.p)
            records.append(ExperimentRecord(
                command="region", m=m, p=args.p, method="conjecture-UNVERIFIED",
                value=None if conj == math.inf else float(conj),
                reference=None, verdict=INFO,
                runtime_ms=_runtime_ms(time.perf_counter() - t0),
            ))
    return records


def _cmd_gen(args, parser) -> list[ExperimentRecord]:
    seed = _require_seed(args, parser)
    t0 = time.perf_counter()
    T = _random_board(tz.DimSpec(args.m, args.n), mix(seed))
    tz.write_tensor(args.out, T)
    return [ExperimentRecord(
        command="gen", m=args.m, n=args.n, seed=seed, method="gen",
        verdict=INFO, runtime_ms=_runtime_ms(time.perf_counter() - t0),
    )]


_COMMANDS = {
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "ksz": _cmd_ksz,
    "verify-bound": _cmd_verify_bound,
    "verify-extremal": _cmd_verify_extremal,
    "constants": _cmd_constants,
    "region": _cmd_region,
    "gen": _cmd_gen,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        records = _COMMANDS[args.command](args, parser)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    except _HANDLED_ERRORS as exc:
        print(f"gbswitch: error: {exc}", file=sys.stderr)
        return 2
    text = render(records, args.json)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if any(rec.verdict == FAIL for rec in records) else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
