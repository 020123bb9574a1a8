"""Command-line harness: the only module with side effects.

Emits one CSV (or JSON-lines) record per result. All randomized
subcommands require --seed and are bit-reproducible; every command runs on
one thread. runtime_ms is wall time; set GB_FIXED_RUNTIME_MS to pin it for
byte-exact output comparisons (the same role SOURCE_DATE_EPOCH plays in
reproducible builds).

Exit codes: 0 success (no FAIL verdicts), 1 at least one FAIL, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from . import bounds, experiments, lp, solvers
from . import tensor as tz
from .errors import BudgetExceeded, DimMismatch, InvalidExponent
from .rng import generator, sign_vector

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"

#: Errors reported with exit 2; the package's input errors all subclass ValueError.
_HANDLED_ERRORS = (BudgetExceeded, OSError, ValueError)


@dataclass
class ExperimentRecord:
    """One harness output row; verdict PASS/FAIL only under a reference bound.

    The field order is the CSV column order and the JSON key order.
    """

    command: str = ""  # run() writes the subcommand's name into every record
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


_FIELDS = tuple(field.name for field in fields(ExperimentRecord))
#: Every column but witness, which is added only when some record has one.
CSV_HEADER = ",".join(_FIELDS[:-1])

#: Text of a field by its exact type: "" for None, exact integers and rationals, else repr of the float.
_TEXT = {type(None): lambda x: "", int: str, float: repr, Fraction: str}


def _text(x) -> str:
    """A non-str field as CSV text; every record field is None, an int, a float or a Fraction."""
    return _TEXT[type(x)](x)


def _verdict(ok: Optional[bool]) -> str:
    """PASS or FAIL for a checked claim, INFO when there is nothing to check."""
    return INFO if ok is None else PASS if ok else FAIL


def _runtime_ms(t0: float) -> int:
    """Milliseconds since the perf_counter reading t0, or GB_FIXED_RUNTIME_MS when set."""
    fixed = os.environ.get("GB_FIXED_RUNTIME_MS")
    if fixed is not None:
        try:
            return int(fixed)
        except ValueError:
            raise ValueError(f"GB_FIXED_RUNTIME_MS must be an integer, got {fixed!r}") from None
    return int(round((time.perf_counter() - t0) * 1000.0))


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
    """JSON lines with p and r as strings, or CSV under CSV_HEADER (plus witness when some record has one)."""
    if as_json:
        lines = [json.dumps({
            **vars(rec),
            "p": _text(rec.p) or None,
            "r": _text(rec.r) or None,
            "value": None if rec.value is None else float(rec.value),
            "reference": None if rec.reference is None else float(rec.reference),
        }, separators=(",", ":")) for rec in records]
    else:
        width = len(_FIELDS) if any(rec.witness is not None for rec in records) else len(_FIELDS) - 1
        lines = [",".join(_FIELDS[:width])]
        # None and str inline: a call for every field would cost a long table a third more
        lines += (",".join(["" if x is None else x if type(x) is str else _text(x)
                            for x in list(vars(rec).values())[:width]]) for rec in records)
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


#: The most n values one --n option takes, and the most points of each ``region --boundary`` curve.
MAX_N_VALUES = 1 << 16


def parse_n_values(text: str) -> list[int]:
    """'2:6' (inclusive range), '2,3,5', or a single integer; a nonempty list of n >= 1, at most MAX_N_VALUES long."""
    lo, colon, hi = text.partition(":")
    try:
        count = int(hi) - int(lo) + 1 if colon else text.count(",") + 1  # counted before any list is built
        if count > MAX_N_VALUES:
            raise argparse.ArgumentTypeError(f"n specification {text!r} has {count} values; "
                                             f"the limit is {MAX_N_VALUES}")
        values = list(range(int(lo), int(hi) + 1)) if colon else [int(x) for x in lo.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"invalid n specification {text!r}")
    return values


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer list {text!r}") from exc


def parse_exponent_list(text: str) -> list:
    return [parse_exponent(x) for x in text.split(",")]


def _add_solver_options(sp: argparse.ArgumentParser, default_method: str) -> None:
    """The options ``solve`` and ``scan`` share, in usage order; a method's own options are in args only if given."""
    sp.add_argument("--p", type=parse_exponent, default=math.inf)
    sp.add_argument("--method", choices=tuple(_METHODS), default=default_method)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--starts", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--sweeps-max", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--max-flips", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--force", action="store_true", default=argparse.SUPPRESS,
                    help=f"exact: run past 2**{solvers.EXACT_BUDGET_BITS} assignments")


@functools.cache  # parsing never changes the parser, so one per process serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbswitch",
        description="Switching-game solvers, lp ascent, exponent formulas, and sharpness experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one tensor instance from a JSON file")
    sp.set_defaults(handler=_cmd_solve)
    sp.add_argument("--input", required=True, help="tensor JSON file")
    _add_solver_options(sp, default_method="exact")

    sp = sub.add_parser("scan", help="value versus n for one solver on random boards")
    sp.set_defaults(handler=_cmd_scan)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=parse_n_values, required=True)
    _add_solver_options(sp, default_method="greedy")

    sp = sub.add_parser("ksz", help="random-tensor minimum-norm sharpness experiment")
    sp.set_defaults(handler=_cmd_ksz)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=parse_exponent, default=math.inf)
    sp.add_argument("--n", type=parse_n_values, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tol", type=float, default=0.2)
    sp.add_argument("--starts", type=int, default=argparse.SUPPRESS)

    sp = sub.add_parser("verify-bound", help="exhaustive lower-bound and blow-up checks")
    sp.set_defaults(handler=_cmd_verify_bound)
    sp.add_argument("--max-n", type=int, default=4, help="exhaust 2x2..max-n boards up to switching (m=2, at most 5)")
    sp.add_argument("--blowup-n", type=int, default=3)
    sp.add_argument("--r", type=parse_exponent_list, default=[Fraction(1), Fraction(4, 3), Fraction(2)])
    sp.add_argument("--m3-samples", type=int, default=0, help="also sample m=3, n=3 boards")
    sp.add_argument("--seed", type=int)

    sp = sub.add_parser("verify-extremal", help="check the eight minimal 2x2 boards exhaustively")
    sp.set_defaults(handler=_cmd_verify_extremal)

    sp = sub.add_parser("constants", help="asymptotic constant table")
    sp.set_defaults(handler=_cmd_constants)
    sp.add_argument("--m", type=parse_int_list, required=True)

    sp = sub.add_parser("region", help="sharp-exponent region classifier")
    sp.set_defaults(handler=_cmd_region)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=parse_exponent)
    sp.add_argument("--r", type=parse_exponent)
    sp.add_argument("--conjecture", action="store_true", help="also emit the conjectured exponent (UNVERIFIED)")
    sp.add_argument("--boundary", action="store_true", help="emit the region-boundary polylines as rows")
    sp.add_argument("--p-max", type=parse_exponent)
    sp.add_argument("--grid-points", type=int)

    sp = sub.add_parser("gen", help="write a random sign tensor JSON file")
    sp.set_defaults(handler=_cmd_gen)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", required=True)

    for sp in (parser, *sub.choices.values()):  # SUPPRESS keeps a value given before the subcommand
        default = {} if sp is parser else {"default": argparse.SUPPRESS}
        sp.add_argument("--output", help="write records to this file instead of stdout", **default)
        sp.add_argument("--json", action="store_true", help="emit JSON lines instead of CSV", **default)
    return parser


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValueError(f"--seed is required for randomized subcommand {args.command!r}")
    return args.seed


# --- subcommands -------------------------------------------------------------


def _bound_check(m: int, n: int, p, value, exact: bool) -> tuple[Optional[float], str]:
    """The proven lower bound at (m, n, p), None off its domain, and the verdict on value if it is exact."""
    try:
        reference = bounds.g_lower_bound_formula(m, n, p)
    except InvalidExponent:
        return None, INFO
    return reference, _verdict(value >= reference if exact else None)


#: Per --method: its options with their defaults (None: required) and its solver; all but alt need p = inf.
_METHODS = {
    "exact": ({"force": False}, lambda T, p, force: solvers.exact_max(T, allow_large=force)),
    "greedy": ({"seed": None, "restarts": 64}, lambda T, p, **kw: solvers.random_restart_greedy(T, **kw)),
    # local's start: m sign vectors drawn in turn from one generator(seed)
    "local": ({"seed": None, "max_flips": 10_000}, lambda T, p, seed, max_flips: solvers.local_search(
        T, tz.make_assignment(T.dims, [sign_vector(g, T.dims.n) for g in [generator(seed)] * T.dims.m]), max_flips)),
    "alt": ({"seed": None, "starts": 8, "sweeps_max": 1000, "tol": 1e-10},
            lambda T, p, **kw: lp.alternating_max(T, p, **kw)),
}


def _method_options(args, *reads: str) -> dict:
    """args.method's options, given or default; refuses any given that only other methods (not ``reads``) take."""
    row = _METHODS[args.method][0]
    for name in (name for other, _ in _METHODS.values() for name in other if name not in (*row, *reads)):
        if getattr(args, name, None) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --method {args.method}")
    if args.method != "alt" and args.p != math.inf:
        raise ValueError(f"--method {args.method} requires --p inf")
    return {k: _require_seed(args) if k == "seed" else getattr(args, k, v) for k, v in row.items()}


def _solve_one(T, args, seed, options) -> ExperimentRecord:
    m, n = T.dims.m, T.dims.n
    t0 = time.perf_counter()
    res = _METHODS[args.method][1](T, args.p, **options)
    witness = None if args.method == "alt" else witness_to_str(res.witness)
    reference, verdict = _bound_check(m, n, args.p, res.value, args.method == "exact")
    return ExperimentRecord(m=m, n=n, p=args.p, seed=seed, method=args.method, value=res.value,
                            reference=reference, verdict=verdict, runtime_ms=_runtime_ms(t0), witness=witness)


def _cmd_solve(args) -> list[ExperimentRecord]:
    options = _method_options(args)
    return [_solve_one(tz.read_tensor(args.input), args, options.get("seed"), options)]


def _cmd_scan(args) -> list[ExperimentRecord]:
    seed, options = _require_seed(args), _method_options(args, "seed")  # boards are drawn from --seed
    records = []
    for n in args.n:
        rec = _solve_one(tz.random_tensor(tz.DimSpec(args.m, n), generator(seed, n)), args, seed, options)
        rec.witness = None
        records.append(rec)
    return records


def _cmd_ksz(args) -> list[ExperimentRecord]:
    seed = _require_seed(args)
    starts = {"starts": args.starts} if "starts" in args else {}  # only the ascent estimates read it
    if starts and all(experiments.norm_is_exact(tz.DimSpec(args.m, n), args.p) for n in args.n):
        raise ValueError("--starts does not apply when every norm is exact")
    t0 = time.perf_counter()
    result = experiments.sharpness_experiment(args.m, args.p, args.n, args.samples, seed, tol=args.tol, **starts)
    elapsed = _runtime_ms(t0)
    records = []
    for s in result.samples:
        reference, verdict = _bound_check(s.m, s.n, s.p, s.min_norm, s.exact)
        records.append(ExperimentRecord(m=s.m, n=s.n, p=s.p, seed=seed, method="min-norm", value=s.min_norm,
                                        reference=reference, verdict=verdict, runtime_ms=elapsed))
    records.append(ExperimentRecord(m=args.m, p=args.p, seed=seed, method="slope", value=result.fit.slope,
                                    reference=result.reference, verdict=_verdict(result.passed), runtime_ms=elapsed))
    return records


#: The largest n verify-bound sweeps: it scores all 2**F n x n normal forms, F = (n-1)**2 (n = 6: ~13 s).
_SWEEP_MAX_N = 5


def _cmd_verify_extremal(args) -> list[ExperimentRecord]:
    t0 = time.perf_counter()
    boards = solvers.sign_rows(4)
    values = solvers.exact_max_batch(2, 2, boards)[0]
    classified = [solvers.classify_extremal(tz.make_tensor(tz.DimSpec(2, 2), row)) for row in boards]
    elapsed = _runtime_ms(t0)
    ok_sets = (values == 2).tolist() == classified and classified.count(True) == 8
    return [
        ExperimentRecord(m=2, n=2, p=math.inf, method="min-value", value=int(values.min()),
                         reference=2, verdict=_verdict(values.min() >= 2), runtime_ms=elapsed),
        ExperimentRecord(m=2, n=2, p=math.inf, method="extremal-count",
                         value=int((values == 2).sum()), reference=8, verdict=_verdict(ok_sets), runtime_ms=elapsed),
    ]


def _cmd_verify_bound(args) -> list[ExperimentRecord]:
    if args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    if args.max_n > _SWEEP_MAX_N:
        bits, limit = (solvers._free_entries(2, n) for n in (args.max_n, _SWEEP_MAX_N))
        raise BudgetExceeded(f"--max-n {args.max_n} would tabulate 2**{bits} normal-form boards; "
                             f"the limit is 2**{limit} boards (--max-n {_SWEEP_MAX_N})")
    if args.m3_samples < 0:
        raise ValueError(f"--m3-samples must be >= 0, got {args.m3_samples}")
    if args.m3_samples > 0:
        _require_seed(args)
    elif args.seed is not None:
        raise ValueError("--seed requires --m3-samples > 0")
    if not 2 <= args.blowup_n <= args.max_n:
        raise ValueError(f"--blowup-n must be in 2..{args.max_n} (--max-n), got {args.blowup_n}")
    records = []
    min_by_n = {}
    for n in range(2, args.max_n + 1):
        t0 = time.perf_counter()
        min_by_n[n] = best = min(solvers.value_census(2, n))
        reference, verdict = _bound_check(2, n, math.inf, best, True)
        records.append(ExperimentRecord(m=2, n=n, p=math.inf, method="norm-lower-bound", value=best,
                                        reference=reference, verdict=verdict, runtime_ms=_runtime_ms(t0)))
    n = args.blowup_n
    for r in args.r:
        # every sign board has sum |a|^r = n^2 exactly, so the worst ratio
        # over boards is attained at the minimum exact value
        t0 = time.perf_counter()
        expo = bounds.blowup_exponent(2, math.inf, r)
        rf = bounds.as_float(r, "--r is too large for a float (above about 1.8e308)")
        try:  # 1/r and n**expo grow together, so a small r overflows one or the other
            worst = float(n * n) ** (1.0 / rf) / (float(n) ** float(expo) * min_by_n[n])
        except (OverflowError, ZeroDivisionError):
            raise InvalidExponent("--r is too small for a float: n**(2/r) is above about 1.8e308") from None
        reference = bounds.km_constant(2)
        records.append(ExperimentRecord(m=2, n=n, p=math.inf, r=r, method="blowup-check", value=worst,
                                        reference=reference, verdict=_verdict(worst <= reference),
                                        runtime_ms=_runtime_ms(t0)))
    if args.m3_samples > 0:
        t0 = time.perf_counter()
        best = int(experiments.sample_min_norm(3, 3, math.inf, args.m3_samples, args.seed).min_norm)
        reference, verdict = _bound_check(3, 3, math.inf, best, True)
        records.append(ExperimentRecord(m=3, n=3, p=math.inf, seed=args.seed, method="sampled-bound", value=best,
                                        reference=reference, verdict=verdict, runtime_ms=_runtime_ms(t0)))
    return records


def _cmd_constants(args) -> list[ExperimentRecord]:
    records = []
    for m in args.m:
        t0 = time.perf_counter()
        value = bounds.bh_asymptotic_constant(m)
        records.append(ExperimentRecord(m=m, method="bh-constant", value=value, runtime_ms=_runtime_ms(t0)))
    return records


def _cmd_region(args) -> list[ExperimentRecord]:
    if args.p is None and not args.boundary:
        raise ValueError("region requires --p and/or --boundary")
    if not args.boundary and (args.grid_points is not None or args.p_max is not None):
        raise ValueError("--grid-points and --p-max require --boundary")
    if args.p is None and (args.r is not None or args.conjecture):
        raise ValueError("--r and --conjecture require --p")
    records = []
    m = args.m
    too_large = "region exponent is too large for a float (above about 1.8e308)"  # --m or 1/--r near 1e308
    if args.boundary:
        t0 = time.perf_counter()
        bounds._check_degree(m, 2)
        points = 40 if args.grid_points is None else args.grid_points
        p_max = Fraction(12) if args.p_max is None else args.p_max
        if points < 2:
            raise ValueError(f"--grid-points must be >= 2, got {points}")
        if points > MAX_N_VALUES:  # each point builds a row of ~1.3 KB
            raise ValueError(f"--grid-points must be <= {MAX_N_VALUES}, got {points}")
        if p_max == math.inf:
            raise InvalidExponent("--p-max must be finite, got inf")
        bounds._above_threshold(m, p_max, "--p-max must be")
        # the lower curve lives on (1, 2], the sharp curve on (2m/(m+1), p_max]
        for method, lo, hi, formula in (("lower-curve", Fraction(1), Fraction(2), bounds._lower),
                                        ("sharp-curve", bounds._unimodular_threshold(m), p_max, bounds._sharp)):
            step = (hi - lo) / points
            for i in range(1, points + 1):
                p_i = lo + i * step
                value = bounds.as_float(formula(m, bounds._inverse(p_i)), too_large)
                records.append(ExperimentRecord(m=m, p=p_i, method=method, value=value, runtime_ms=_runtime_ms(t0)))
    if args.p is not None:
        t0 = time.perf_counter()
        verdict = bounds.unimodular_sharp_exponent(m, args.p)
        kind = verdict.kind if args.r is None else bounds.classify_point(m, args.p, args.r)
        lo, hi = verdict.interval if verdict.sharp_exponent is None else (verdict.sharp_exponent,) * 2
        records.append(ExperimentRecord(m=m, p=args.p, r=args.r, method=kind.value,
                                        value=bounds.as_float(lo, too_large),
                                        reference=bounds.as_float(hi, too_large), runtime_ms=_runtime_ms(t0)))
        if args.conjecture:
            conj = bounds.conjecture_exponent(m, args.p, args.r)
            value = None if conj == math.inf else bounds.as_float(conj, too_large)
            records.append(ExperimentRecord(m=m, p=args.p, r=args.r, method="conjecture-UNVERIFIED", value=value,
                                            runtime_ms=_runtime_ms(t0)))
    return records


def _cmd_gen(args) -> list[ExperimentRecord]:
    seed = _require_seed(args)
    t0 = time.perf_counter()
    T = tz.random_tensor(tz.DimSpec(args.m, args.n), generator(seed))
    tz.write_tensor(args.out, T)
    return [ExperimentRecord(m=args.m, n=args.n, seed=seed, method="gen", runtime_ms=_runtime_ms(t0))]


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        records = args.handler(args)
        for rec in records:
            rec.command = args.command
        text = render(records, args.json)
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except _HANDLED_ERRORS as exc:
        print(f"gbswitch: error: {exc}", file=sys.stderr)
        return 2
    return 1 if any(rec.verdict == FAIL for rec in records) else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
