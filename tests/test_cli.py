import argparse
import ast
import hashlib
import io
import itertools
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alternating_max_loop, sign_draws_loop
from gbswitch import (DimMismatch, DimSpec, conjecture_exponent, evaluate, km_constant, make_assignment, random_tensor,
                      read_tensor)
from gbswitch import bounds, cli, experiments, lp, rng, solvers
from gbswitch.cli import (
    CSV_HEADER,
    MAX_N_VALUES,
    build_parser,
    parse_exponent,
    parse_exponent_list,
    parse_int_list,
    parse_n_values,
    run,
    witness_from_str,
    witness_to_str,
)


def invoke(argv, monkeypatch=None, fixed_runtime=True):
    if monkeypatch is not None and fixed_runtime:
        monkeypatch.setenv("GB_FIXED_RUNTIME_MS", "0")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.fixture
def cf_file(tmp_path):
    path = tmp_path / "cf.json"
    path.write_text('{"m":2,"n":2,"entries":[1,1,1,-1]}\n')
    return str(path)


def test_parse_exponent():
    assert parse_exponent("inf") == math.inf
    assert parse_exponent("4/3") == Fraction(4, 3)
    assert parse_exponent("2.5") == Fraction(5, 2)
    assert parse_exponent("3") == Fraction(3)
    with pytest.raises(Exception):
        parse_exponent("nope")


def test_parse_n_values():
    assert parse_n_values("2:6") == [2, 3, 4, 5, 6]
    assert parse_n_values("2,5,9") == [2, 5, 9]
    assert parse_n_values("4") == [4]
    with pytest.raises(Exception):
        parse_n_values("6:2")


@pytest.mark.parametrize("text, values", [
    ("2:6", [2, 3, 4, 5, 6]), ("2,3,5", [2, 3, 5]), (" 3 ", [3]), ("1:1", [1]),
    ("3:2", None), ("0:2", None), ("2,0", None), ("2:3:4", None), ("", None), ("2,,3", None), ("-1", None),
])
def test_parse_n_values_accepts_and_rejects(text, values):
    if values is not None:
        assert parse_n_values(text) == values
    else:
        with pytest.raises(argparse.ArgumentTypeError, match="invalid n specification"):
            parse_n_values(text)


def test_parse_n_values_counts_before_listing():
    assert parse_n_values(f"1:{MAX_N_VALUES}") == list(range(1, MAX_N_VALUES + 1))
    assert parse_n_values(",".join(["2"] * MAX_N_VALUES)) == [2] * MAX_N_VALUES
    for text in (f"1:{MAX_N_VALUES + 1}", ",".join(["2"] * (MAX_N_VALUES + 1)), "1:" + "9" * 40):
        with pytest.raises(argparse.ArgumentTypeError, match=f"values; the limit is {MAX_N_VALUES}$"):
            parse_n_values(text)


def test_long_n_range_exits_2_fast(monkeypatch, capsys):
    t0 = time.perf_counter()
    code, out = invoke(["scan", "--m", "2", "--n", "1:1000000000000000", "--seed", "1"], monkeypatch)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.splitlines()[-1] == (
        "gbswitch scan: error: argument --n: n specification '1:1000000000000000' has 1000000000000000 values; "
        "the limit is 65536")


def test_solve_exact_minimal_board(cf_file, monkeypatch):
    code, out = invoke(["solve", "--input", cf_file, "--p", "inf", "--method", "exact"], monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER + ",witness"
    fields = lines[1].split(",")
    assert fields[0] == "solve"
    assert fields[7] == "2"
    assert fields[9] == "PASS"
    # the witness column re-validates against the printed value
    witness = witness_from_str(fields[11], DimSpec(2, 2))
    assert evaluate(read_tensor(cf_file), witness) == 2


def test_solve_requires_seed_for_randomized(cf_file):
    code, _ = invoke(["solve", "--input", cf_file, "--method", "greedy"])
    assert code == 2


def test_solve_exact_rejects_finite_p(cf_file):
    code, _ = invoke(["solve", "--input", cf_file, "--p", "2", "--method", "exact"])
    assert code == 2


def test_solve_alt_finite_p(cf_file, monkeypatch):
    code, out = invoke(
        ["solve", "--input", cf_file, "--p", "2", "--method", "alt", "--seed", "3", "--starts", "4"],
        monkeypatch,
    )
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    assert float(fields[7]) == pytest.approx(math.sqrt(2), rel=1e-9)
    assert fields[9] == "INFO"


def test_solve_greedy_witness_revalidates(tmp_path, monkeypatch):
    board_path = tmp_path / "b.json"
    code, _ = invoke(["gen", "--m", "2", "--n", "5", "--seed", "2", "--out", str(board_path)], monkeypatch)
    assert code == 0
    code, out = invoke(
        ["solve", "--input", str(board_path), "--method", "greedy", "--seed", "8"], monkeypatch
    )
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    witness = witness_from_str(fields[11], DimSpec(2, 5))
    assert evaluate(read_tensor(board_path), witness) == int(fields[7])


def test_verify_bound_m3_sampled(monkeypatch):
    code, out = invoke(["verify-bound", "--max-n", "2", "--blowup-n", "2", "--m3-samples", "50", "--seed", "4"], monkeypatch)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    sampled = [row for row in rows if row[6] == "sampled-bound"]
    assert len(sampled) == 1
    assert sampled[0][9] == "PASS"
    code, _ = invoke(["verify-bound", "--max-n", "2", "--blowup-n", "2", "--m3-samples", "5"])
    assert code == 2  # sampling without --seed


@pytest.mark.parametrize("samples, seed", [(1, 0), (50, 4), (700, 7)])
def test_verify_bound_m3_value_is_sample_min_norm(samples, seed, monkeypatch):
    argv = ["verify-bound", "--max-n", "2", "--blowup-n", "2", "--m3-samples", str(samples), "--seed", str(seed)]
    code, out = invoke(argv, monkeypatch)
    row = out.strip().split("\n")[-1].split(",")
    assert (code, row[6]) == (0, "sampled-bound")
    assert int(row[7]) == int(experiments.sample_min_norm(3, 3, math.inf, samples, seed).min_norm)


@pytest.mark.parametrize("blowup_n", ["1", "4"])
def test_verify_bound_checks_blowup_n_before_any_sweep(blowup_n, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("exact_max_batch reached")

    monkeypatch.setattr(solvers, "exact_max_batch", unreachable)
    code, out = invoke(["verify-bound", "--max-n", "3", "--blowup-n", blowup_n], monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.endswith(f"error: --blowup-n must be in 2..3 (--max-n), got {blowup_n}\n")


def test_missing_input_file(tmp_path):
    code, _ = invoke(["solve", "--input", str(tmp_path / "none.json")])
    assert code == 2


def test_oversized_input_file_exits_2_unparsed(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("json.load reached")

    monkeypatch.setattr(json, "load", unreachable)
    path = tmp_path / "huge.json"
    with open(path, "wb") as fh:
        fh.truncate(8 * rng.MAX_DRAW_ENTRIES + 4097)  # sparse: no disk, no memory
    assert invoke(["solve", "--input", str(path)], monkeypatch) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("gbswitch: error: tensor file ") and err.count("\n") == 1


def test_invalid_subcommand():
    code, _ = invoke(["frobnicate"])
    assert code == 2


def test_gen_roundtrip(tmp_path, monkeypatch):
    out_path = tmp_path / "g.json"
    code, out = invoke(["gen", "--m", "3", "--n", "2", "--seed", "5", "--out", str(out_path)], monkeypatch)
    assert code == 0
    t = read_tensor(out_path)
    assert t.dims == DimSpec(3, 2)
    code2, _ = invoke(["gen", "--m", "3", "--n", "2", "--out", str(out_path)])
    assert code2 == 2  # seed mandatory


def test_constants_table(monkeypatch):
    code, out = invoke(["constants", "--m", "2,5,10,100,1000"], monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    values = [round(float(line.split(",")[7]), 4) for line in lines[1:]]
    assert values == [1.2533, 1.9895, 3.0555, 15.2457, 81.1974]


def test_verify_extremal(monkeypatch):
    code, out = invoke(["verify-extremal"], monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.split(",")[9] == "PASS" for line in lines[1:])


def test_verify_bound_small(monkeypatch):
    code, out = invoke(["verify-bound", "--max-n", "3"], monkeypatch)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    by_method = {}
    for row in rows:
        by_method.setdefault(row[6], []).append(row)
    assert len(by_method["norm-lower-bound"]) == 2
    assert len(by_method["blowup-check"]) == 3
    for row in by_method["blowup-check"]:
        assert float(row[8]) == pytest.approx(km_constant(2), rel=1e-12)
        assert float(row[7]) <= km_constant(2)


def test_region_point_and_boundary(monkeypatch):
    code, out = invoke(["region", "--m", "2", "--p", "4/3"], monkeypatch)
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    assert fields[6] == "unknown"
    assert float(fields[7]) == 8.0
    assert fields[8] == "inf"

    code, out = invoke(["region", "--m", "2", "--p", "4", "--r", "2"], monkeypatch)
    fields = out.strip().split("\n")[1].split(",")
    assert fields[6] == "admissible"

    code, out = invoke(
        ["region", "--m", "2", "--boundary", "--grid-points", "5", "--p-max", "6"], monkeypatch
    )
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    curves = {row[6] for row in rows}
    assert curves == {"lower-curve", "sharp-curve"}
    # polyline rows expose exact rational p with a plottable value column
    assert any("/" in row[3] for row in rows)
    for row in rows:
        assert float(row[7]) > 0


@pytest.mark.parametrize("args, message", [
    pytest.param(["--m", "2", "--p-max", "4/3"], "--p-max must be > 2m/(m+1) = 4/3, got 4/3", id="p-max-at-pole"),
    pytest.param(["--m", "2", "--p-max", "1", "--grid-points", "3"], "--p-max must be > 2m/(m+1) = 4/3, got 1",
                 id="p-max-below-pole"),
    pytest.param(["--m", "0"], "degree m must be an integer >= 2, got 0", id="m-0"),
    pytest.param(["--m", "1"], "degree m must be an integer >= 2, got 1", id="m-1"),
    pytest.param(["--m", "2", "--grid-points", "0"], "--grid-points must be >= 2, got 0", id="grid-0"),
    pytest.param(["--m", "2", "--grid-points", "-5"], "--grid-points must be >= 2, got -5", id="grid-negative"),
    pytest.param(["--m", "3", "--p", "3", "--grid-points", "1"], "--grid-points must be >= 2, got 1",
                 id="grid-1-with-point-query"),
])
def test_region_boundary_bad_input_exits_2(args, message, monkeypatch, capsys):
    code, out = invoke(["region", "--boundary", *args], monkeypatch)
    assert (code, out) == (2, "")
    assert f"gbswitch: error: {message}\n" == capsys.readouterr().err


def test_region_grid_points_cap_before_any_row(monkeypatch, capsys):
    # each point builds a row (~1.3 KB), so the cap is checked before the curve formulas that build the first rows
    def unreachable(*args, **kwargs):
        raise AssertionError("a curve row was built")

    monkeypatch.setattr(bounds, "_lower", unreachable)
    monkeypatch.setattr(bounds, "_sharp", unreachable)
    with pytest.raises(AssertionError, match="a curve row was built"):
        invoke(["region", "--m", "2", "--boundary", "--grid-points", "2"], monkeypatch)
    code, out = invoke(["region", "--m", "2", "--boundary", "--grid-points", str(MAX_N_VALUES + 1)], monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.endswith("gbswitch: error: --grid-points must be <= 65536, got 65537\n")


@pytest.mark.parametrize("args", [
    ["--grid-points", "-5", "--p-max", "1"], ["--grid-points", "40"], ["--p-max", "12"],
])
def test_region_grid_options_without_boundary_exit_2(args, monkeypatch, capsys):
    code, out = invoke(["region", "--m", "2", "--p", "3", *args], monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.endswith("gbswitch: error: --grid-points and --p-max require --boundary\n")


def test_region_conjecture_tagged(monkeypatch):
    code, out = invoke(["region", "--m", "2", "--p", "3/2", "--conjecture"], monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert any("conjecture-UNVERIFIED" in line for line in lines[1:])


@pytest.mark.parametrize("m, p, r, printed", [
    ("2", "3/2", "1", "1.6666666666666667"),  # 5/3, not the summability conjecture 6.0
    ("3", "3/2", "2", "1.1666666666666667"), ("2", "inf", "4/3", "0.0"), ("3", "3", "1", "2.0"),
])
def test_region_conjecture_with_r_is_the_blowup_power(m, p, r, printed, monkeypatch):
    code, out = invoke(["region", "--m", m, "--p", p, "--r", r, "--conjecture"], monkeypatch)
    row = out.strip().split("\n")[-1].split(",")
    assert (code, row[4], row[6]) == (0, r, "conjecture-UNVERIFIED")
    assert row[7] == printed == repr(float(conjecture_exponent(int(m), parse_exponent(p), parse_exponent(r))))


@pytest.mark.parametrize("command, m, n", [
    pytest.param("scan", 10 ** 30, 2, id="scan"), pytest.param("gen", 10 ** 30, 2, id="gen"),
    pytest.param("scan", 10 ** 30, 1, id="scan-n1"), pytest.param("scan", 100, 1, id="scan-m100-n1"),
    pytest.param("gen", 70, 1, id="gen-m70-n1"),
])
def test_huge_degree_exits_2_fast(command, m, n, tmp_path, monkeypatch, capsys):
    argv = [command, "--m", str(m), "--n", str(n), "--seed", "1"]
    argv += ["--out", str(tmp_path / "g.json")] if command == "gen" else ["--method", "greedy"]
    t0 = time.perf_counter()
    code, out = invoke(argv, monkeypatch)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"gbswitch: error: n**m = {n}**{m} exceeds 2**40 entries or 40 axes\n"


def test_ksz_rows(monkeypatch):
    code, out = invoke(
        ["ksz", "--m", "2", "--p", "inf", "--n", "2:3", "--samples", "25", "--seed", "7", "--tol", "10"],
        monkeypatch,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    slope_rows = [line for line in lines[1:] if ",slope," in line]
    assert len(slope_rows) == 1
    assert slope_rows[0].split(",")[9] == "PASS"  # huge tol; exact norms gate
    min_rows = [line for line in lines[1:] if ",min-norm," in line]
    assert [row.split(",")[2] for row in min_rows] == ["2", "3"]


def test_ksz_starts_reaches_the_estimated_norms(monkeypatch):
    argv = ["ksz", "--m", "2", "--p", "3", "--n", "3:4", "--samples", "2", "--seed", "2"]
    rows = {}
    for starts, given in ((8, []), (1, ["--starts", "1"])):
        code, out = invoke([*argv, *given], monkeypatch)
        rows[starts] = [row.split(",")[7] for row in out.splitlines() if ",min-norm," in row]
        assert (code, rows[starts]) == (0, [repr(experiments.sample_min_norm(2, n, 3, 2, 2, starts=starts).min_norm)
                                            for n in (3, 4)])
    assert all(a != b for a, b in zip(rows[8], rows[1]))  # one start finds a smaller maximum on these boards


def test_scan_rows(monkeypatch):
    code, out = invoke(
        ["scan", "--m", "2", "--n", "2:4", "--method", "exact", "--seed", "1"], monkeypatch
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[2] for row in rows] == ["2", "3", "4"]
    assert all(row[9] == "PASS" for row in rows)  # exact values respect the bound


def test_json_mirror(cf_file, monkeypatch):
    code, out = invoke(["--json", "solve", "--input", cf_file, "--method", "exact"], monkeypatch)
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["command"] == "solve"
    assert obj["value"] == 2.0
    assert obj["verdict"] == "PASS"
    assert obj["witness"]


def test_output_file(cf_file, tmp_path, monkeypatch):
    target = tmp_path / "rows.csv"
    code, out = invoke(
        ["--output", str(target), "solve", "--input", cf_file, "--method", "exact"], monkeypatch
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(CSV_HEADER)


@pytest.mark.parametrize("command", [
    ["solve", "--input", "{board}", "--method", "exact"],
    ["verify-extremal"],
    ["ksz", "--m", "2", "--n", "2:3", "--samples", "20", "--seed", "7", "--tol", "10"],
])
def test_output_options_after_the_subcommand(command, cf_file, tmp_path, monkeypatch):
    command = [arg.format(board=cf_file) for arg in command]
    before = invoke(["--json", *command], monkeypatch)
    assert before[0] == 0 and before[1].startswith("{")
    assert invoke([*command, "--json"], monkeypatch) == before
    assert invoke(["--json", *command, "--json"], monkeypatch) == before
    csv_out = invoke(command, monkeypatch)
    for n, argv in enumerate([["--output", "{out}", *command], [*command, "--output", "{out}"]]):
        target = tmp_path / f"rows{n}.csv"
        assert invoke([arg.format(out=target) for arg in argv], monkeypatch) == (0, "")
        assert target.read_text() == csv_out[1]
    target = tmp_path / "rows.json"
    assert invoke([*command, "--output", str(target), "--json"], monkeypatch) == (0, "")
    assert target.read_text() == before[1]


@pytest.mark.parametrize("target", ["missing/rows.csv", "."], ids=["missing-directory", "directory"])
def test_unwritable_output_exits_2(target, cf_file, tmp_path, monkeypatch, capsys):
    argv = ["solve", "--input", cf_file, "--output", str(tmp_path / target)]
    assert invoke(argv, monkeypatch) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("gbswitch: error: ") and err.count("\n") == 1


def test_witness_string_roundtrip():
    import numpy as np

    from gbswitch import make_assignment

    dims = DimSpec(3, 4)
    vecs = np.array([[1, -1, 1, 1], [-1, -1, 1, -1], [1, 1, -1, 1]], dtype=np.int8)
    s = make_assignment(dims, vecs)
    assert witness_from_str(witness_to_str(s), dims) == s
    with pytest.raises(DimMismatch, match=r"^witness '\+-\|\+\+' does not match m=3, n=4$"):
        witness_from_str("+-|++", dims)


def test_determinism_across_workers(cf_file, monkeypatch, tmp_path):
    outputs = {}
    for workers in ("1", "4"):
        monkeypatch.setenv("GB_THREADS", workers)
        monkeypatch.setenv("GB_FIXED_RUNTIME_MS", "0")
        code, out = invoke(
            ["ksz", "--m", "2", "--p", "inf", "--n", "2:4", "--samples", "30", "--seed", "11"],
            fixed_runtime=False,
        )
        assert code in (0, 1)
        outputs[workers] = out
    assert outputs["1"] == outputs["4"]


def test_src_reads_no_environment_variable_but_the_fixed_runtime():
    """Every os.environ or os.getenv access in src/gbswitch names GB_FIXED_RUNTIME_MS."""
    reads = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {alias.name for alias in node.names} & {"environ", "getenv", "*"}, path.name
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"
                    and node.attr in ("environ", "getenv")):
                continue
            use = parents[node]
            if isinstance(use, ast.Attribute) and use.attr == "get":  # os.environ.get(name, ...)
                use = parents[use]
            if isinstance(use, ast.Call) and use.args:
                key = use.args[0]
            elif isinstance(use, ast.Subscript):  # os.environ[name]
                key = use.slice
            else:
                key = None
            name = key.value if isinstance(key, ast.Constant) else None
            assert name == "GB_FIXED_RUNTIME_MS", f"{path.name}:{node.lineno} reads {ast.unparse(use)}"
            reads.append(name)
    assert reads  # the runtime pin itself is found


def test_bad_fixed_runtime_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GB_FIXED_RUNTIME_MS", "abc")
    code, out = invoke(["verify-extremal"], monkeypatch, fixed_runtime=False)
    assert code == 2
    assert out == ""
    assert "GB_FIXED_RUNTIME_MS" in capsys.readouterr().err


def test_verify_bound_size_guard_before_any_board(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a board table was built")

    monkeypatch.setattr(solvers, "_signs_at", unreachable)  # every board table starts with its sign rows
    code, out = invoke(["verify-bound", "--max-n", "6"], monkeypatch)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.endswith("error: --max-n 6 would tabulate 2**25 normal-form boards; "
                        "the limit is 2**16 boards (--max-n 5)\n")


def test_verify_bound_max_n_past_dimspec_is_size_overflow(monkeypatch, capsys):
    # the guard's message counts F = (n-1)**2 with solvers._free_entries, so an n x n board past DimSpec's 2**40
    # entries is refused with DimSpec's own text
    code, out = invoke(["verify-bound", "--max-n", str(2**20 + 1)], monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.endswith("gbswitch: error: n**m = 1048577**2 exceeds 2**40 entries or 40 axes\n")


def test_verify_bound_n5_row_matches_sorted_row_representatives(monkeypatch):
    code4, out4 = invoke(["verify-bound", "--max-n", "4"], monkeypatch)
    code5, out5 = invoke(["verify-bound", "--max-n", "5"], monkeypatch)
    rows5 = out5.splitlines()
    n5 = [row for row in rows5 if row.startswith("verify-bound,2,5,")]
    assert (code4, code5, len(n5)) == (0, 0, 1)
    assert [row for row in rows5 if row not in n5] == out4.splitlines()
    # a second reduction: row 0 and column 0 are +1, rows 1..4 in nondecreasing order
    patterns = np.hstack([np.ones((16, 1), dtype=np.int8), solvers.sign_rows(4)])
    picks = np.array(list(itertools.combinations_with_replacement(range(16), 4)))
    boards = np.concatenate([np.ones((len(picks), 1, 5), dtype=np.int8), patterns[picks]], axis=1).reshape(-1, 25)
    assert len(boards) == 3876
    assert int(n5[0].split(",")[7]) == int(solvers.exact_max_batch(2, 5, boards)[0].min()) == 11


def test_stacked_ascent_output_matches_per_start_loop(tmp_path, monkeypatch):
    board_path = tmp_path / "board.json"
    assert invoke(["gen", "--m", "3", "--n", "3", "--seed", "6", "--out", str(board_path)], monkeypatch)[0] == 0
    commands = [
        ["ksz", "--m", "2", "--p", "2", "--n", "2:4", "--samples", "6", "--seed", "7"],
        ["solve", "--input", str(board_path), "--method", "alt", "--p", "3/2", "--starts", "5", "--seed", "3"],
        ["--json", "solve", "--input", str(board_path), "--method", "alt", "--p", "3", "--seed", "3"],
    ]
    shipped = [invoke(argv, monkeypatch) for argv in commands]
    monkeypatch.setattr(lp, "alternating_max", alternating_max_loop)
    monkeypatch.setattr(experiments, "alternating_max", alternating_max_loop)
    assert [invoke(argv, monkeypatch) for argv in commands] == shipped


def test_draw_size_guard_before_any_array(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a board was drawn")

    monkeypatch.setattr(cli.tz, "sign_vector", unreachable)  # gen and scan draw through tz.random_tensor
    big = tmp_path / "big.json"
    for argv in (["gen", "--m", "2", "--n", "100000", "--seed", "1", "--out", str(big)],
                 ["scan", "--m", "2", "--n", "100000", "--method", "greedy", "--seed", "1"]):
        code, out = invoke(argv, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "1 x 1 x 10000000000 = 10000000000 signs exceeds the 2**27 entry limit" in err
    assert not big.exists()


def test_stacked_draws_output_matches_per_seed_loop(tmp_path, monkeypatch):
    commands = [
        ["verify-bound", "--max-n", "3", "--m3-samples", "40", "--seed", "7"],
        ["ksz", "--m", "2", "--n", "3:5", "--samples", "30", "--seed", "7"],
        ["ksz", "--m", "3", "--n", "2:3", "--samples", "30", "--seed", "7"],
        ["ksz", "--m", "2", "--p", "2", "--n", "3:4", "--samples", "4", "--seed", "7"],
        ["ksz", "--m", "3", "--p", "2", "--n", "2:3", "--samples", "3", "--seed", "7"],
        ["scan", "--m", "2", "--n", "3:6", "--method", "greedy", "--seed", "5"],
        ["scan", "--m", "3", "--n", "2:4", "--method", "local", "--seed", "5"],
        ["scan", "--m", "2", "--n", "3:5", "--method", "alt", "--p", "3", "--seed", "5"],
        ["gen", "--m", "3", "--n", "4", "--seed", "-6", "--out", str(tmp_path / "board.json")],
    ]
    commands += [["--json", *argv] for argv in commands]

    def outputs():
        results = []
        for argv in commands:
            results.append(invoke(argv, monkeypatch))
            if argv[-2] == "--out":
                results.append((tmp_path / "board.json").read_bytes())
        return results

    shipped = outputs()
    calls = {}
    for module in (experiments, lp, solvers):
        def loop(seeds, count, n, name=module.__name__):
            calls[name] = calls.get(name, 0) + 1
            return sign_draws_loop(seeds, count, n)

        monkeypatch.setattr(module, "sign_draws", loop)
    assert outputs() == shipped
    assert sorted(calls) == ["gbswitch.experiments", "gbswitch.lp", "gbswitch.solvers"]


#: sha256 of stdout with GB_FIXED_RUNTIME_MS=0; any change to a printed byte shows here.
_PINNED_STDOUT = {
    ("constants", "--m", "2,5,10,100,1000"):
        "4f7ab5ecb293e2105e1cedc6c6eb2d9f3c4dbe21cdc23e92eda6a941f7c12d07",
    ("region", "--m", "2", "--boundary", "--grid-points", "80"):
        "8d8197f61a83d14bae9d550a3d003a5cfd17ef4a0a6da661191c8c011948565e",
    ("verify-extremal",):
        "fcc9338567a2e9ea38b46e9ff3a66a4c11ff0842d1e675a6b3a9ae3d4513e5da",
    ("verify-bound", "--max-n", "4", "--m3-samples", "2000", "--seed", "7"):
        "a5b1947054533b9a680f728a7f795ded1599191852b0eab42e37c37ce8a9b8bb",
    ("--json", "solve", "--method", "exact", "--input", "{board}"):
        "7c8eba7de9e4d9780525f178fac7945c90ad53415827fbae771f36042c66e660",
    ("ksz", "--m", "2", "--n", "3:7", "--samples", "500", "--seed", "7"):
        "75e28d8d5e74e9cd9a088627d0e2c6e10de2e4243750b14637857679a03343be",
    ("ksz", "--m", "3", "--n", "2:4", "--samples", "500", "--seed", "7"):
        "4d43f57a01cfe57c7efeb710baa018f63a77eb00a76c1166a68e3ac7247e231f",
    ("scan", "--m", "3", "--n", "8", "--method", "greedy", "--seed", "7"):
        "7df25cdcb2f1a761af132c3d9c34e675cf8bbbabbce0bb575ec3e8f833aa9b34",
    ("region", "--m", "3", "--p", "3/2", "--r", "2", "--conjecture"):
        "c4533ba97fea2ce9b787b7ac748113de5b17023d5404714e484ce61644275d0c",
    ("--json", "region", "--m", "2", "--p", "inf", "--r", "4/3", "--conjecture"):
        "a752619cb93c65f37991d89e0fe45a10382ad2ffc87876d3d60f45f317f49dc5",
    ("region", "--m", "4", "--p", "5/3", "--boundary", "--grid-points", "7", "--p-max", "9/2"):
        "548d3a2969630c46cd406f071da9d0390c244e2ebb1eb05d83f281f01c66d01f",
    ("verify-bound", "--max-n", "3", "--r", "1,4/3,2,5/2"):
        "a8bda2fbd052bd7c630b3ba59937e4fa989afe2b3261db9dcabfbf510bdd7759",
    ("scan", "--m", "2", "--n", "32,128", "--method", "local", "--seed", "7"):
        "ca2c87a7831e883ff8c48fc311595bef6ea47d6278f52eabaa28f30d94d858ba",
    ("--json", "scan", "--m", "4", "--n", "5", "--method", "greedy", "--seed", "7"):
        "fad7b748b1e771a5bef748fd53c636c24472a209db4ce4fc2e61e78ce0af2d65",
    ("solve", "--method", "greedy", "--seed", "5", "--input", "{board}"):
        "3f8bd02b9c11bb4cbb9982b680c7b63c676c0ff51483d4fd9c5c8dfa82dc5111",
    ("--json", "verify-bound", "--max-n", "3", "--r", "1,5/2"):
        "8bc8957d151a46fc41c82bdf9e542857daf0cf7b38279ce9a19926507258fa37",
    ("--json", "ksz", "--m", "2", "--n", "3:4", "--samples", "20", "--seed", "7"):
        "5da653fa5254bf41c149ca0b83cbd6b01f3bde1a5c147d9b0182e70b7e9fb34c",
    ("--json", "constants", "--m", "1,2"):
        "ee31ecedf4e0188bf7dda05b0f66cf6e813c6b7f7a42114a13ca505da4c4f401",
    # lp ascent: repr'd float64 values, so a change in the order of any sum shows here
    ("scan", "--m", "3", "--n", "2:9", "--method", "alt", "--p", "2", "--seed", "7"):
        "d08536304ad29590c4a9ccdf4d364f1874fae38abe09391343430e8812ce03d2",
    ("--json", "scan", "--m", "4", "--n", "2:5", "--method", "alt", "--p", "3/2", "--seed", "3"):
        "a75679e7f0a6078924e374f177a4b4429b0dafff16376e93ec2417e889c6aee9",
    ("ksz", "--m", "3", "--p", "3", "--n", "2:5", "--samples", "20", "--seed", "7"):
        "e34d7080a95799f086cd0939afe917cf2aaaf8183f87e43d094c8523103f25bb",
}


def test_pinned_output_bytes(tmp_path, monkeypatch):
    # the parser is built once per process: a usage error must leave nothing behind for the next run
    assert invoke(["--json", "scan", "--m", "2", "--n", "4", "--method", "nope"], monkeypatch)[0] == 2
    board = str(tmp_path / "board.json")
    assert invoke(["gen", "--m", "3", "--n", "4", "--seed", "7", "--out", board], monkeypatch)[0] == 0
    for argv, digest in _PINNED_STDOUT.items():
        code, out = invoke([arg.format(board=board) for arg in argv], monkeypatch)
        assert (code, hashlib.sha256(out.encode("ascii")).hexdigest()) == (0, digest), argv


_TOO_LARGE_FOR_A_FLOAT = "lp exponent p is too large for a float (above about 1.8e308); use inf"
_R_TOO_SMALL = "--r is too small for a float: n**(2/r) is above about 1.8e308"
_REGION_TOO_LARGE = "region exponent is too large for a float (above about 1.8e308)"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["scan", "--m", "2", "--n", "3", "--method", "alt", "--p", "1e400", "--seed", "1"],
                 _TOO_LARGE_FOR_A_FLOAT, id="scan-p-1e400"),
    pytest.param(["ksz", "--m", "2", "--p", "1e400", "--n", "2:3", "--samples", "2", "--seed", "1"],
                 _TOO_LARGE_FOR_A_FLOAT, id="ksz-p-1e400"),
    # an exact exponent of more than 40 characters is shown by its sign and power of ten
    pytest.param(["ksz", "--m", "2", "--p", "1e-400", "--n", "2", "--samples", "2", "--seed", "1"],
                 "lp exponent must satisfy p >= 1, got about 1e-400", id="ksz-p-1e-400"),
    pytest.param(["region", "--m", "2", "--p", "1e-400"],
                 "unimodular_sharp_exponent requires p > 1, got about 1e-400", id="region-p-1e-400"),
    pytest.param(["verify-bound", "--max-n", "3", "--r", "1e400"],
                 "--r is too large for a float (above about 1.8e308)", id="verify-bound-r-1e400"),
    # float(r) underflows to 0, float(expo) overflows, and (n*n)**(1/r) overflows
    pytest.param(["verify-bound", "--max-n", "2", "--blowup-n", "2", "--r", "1e-400"],
                 _R_TOO_SMALL, id="verify-bound-r-1e-400"),
    pytest.param(["verify-bound", "--max-n", "2", "--blowup-n", "2", "--r", "1e-320"],
                 _R_TOO_SMALL, id="verify-bound-r-1e-320"),
    pytest.param(["verify-bound", "--max-n", "2", "--blowup-n", "2", "--r", "1/1000"],
                 _R_TOO_SMALL, id="verify-bound-r-1/1000"),
    pytest.param(["region", "--m", "2", "--p", "3", "--r", "1e-400", "--conjecture"],
                 _REGION_TOO_LARGE, id="region-conjecture-r-1e-400"),
    pytest.param(["region", "--m", str(10 ** 400), "--p", "3/2"], _REGION_TOO_LARGE, id="region-m-1e400"),
    pytest.param(["region", "--m", str(10 ** 400), "--boundary", "--grid-points", "2"],
                 _REGION_TOO_LARGE, id="region-boundary-m-1e400"),
    pytest.param(["scan", "--m", "2", "--n", "4", "--seed", "1", "--method", "local", "--max-flips", "-1"],
                 "max_sweeps must be >= 0, got -1", id="local-max-flips-negative"),
    pytest.param(["scan", "--m", "2", "--n", "4", "--seed", "1", "--method", "alt", "--p", "2", "--tol", "-1"],
                 "tol must be >= 0, got -1.0", id="alt-tol-negative"),
    pytest.param(["scan", "--m", "2", "--n", "4", "--seed", "1", "--method", "alt", "--p", "2", "--tol", "nan"],
                 "tol must be >= 0, got nan", id="alt-tol-nan"),
    pytest.param(["ksz", "--m", "2", "--n", "2:3", "--samples", "4", "--seed", "1", "--tol", "-1"],
                 "tol must be >= 0, got -1.0", id="ksz-tol-negative"),
    pytest.param(["ksz", "--m", "2", "--n", "2:3", "--samples", "4", "--seed", "1", "--tol", "nan"],
                 "tol must be >= 0, got nan", id="ksz-tol-nan"),
    pytest.param(["verify-bound", "--max-n", "2", "--blowup-n", "2", "--m3-samples", "-5"],
                 "--m3-samples must be >= 0, got -5", id="m3-samples-negative"),
    pytest.param(["region", "--m", "2", "--boundary", "--p-max", "inf"],
                 "--p-max must be finite, got inf", id="p-max-inf"),
    # a threshold 2m/(m+1) of more than 40 characters is left out
    pytest.param(["region", "--m", str(10 ** 30), "--boundary", "--p-max", "1"],
                 "--p-max must be > 2m/(m+1), got 1", id="region-p-max-huge-m"),
    pytest.param(["scan", "--m", "2", "--n", "3"],
                 "--seed is required for randomized subcommand 'scan'", id="scan-no-seed"),
    pytest.param(["scan", "--m", "2", "--n", "3", "--seed", "1", "--p", "2"],
                 "--method greedy requires --p inf", id="greedy-finite-p"),
    pytest.param(["verify-bound", "--max-n", "3", "--blowup-n", "4"],
                 "--blowup-n must be in 2..3 (--max-n), got 4", id="blowup-n-above-max-n"),
    pytest.param(["verify-bound", "--max-n", "4", "--blowup-n", "1"],
                 "--blowup-n must be in 2..4 (--max-n), got 1", id="blowup-n-below-2"),
    pytest.param(["verify-bound", "--max-n", "-5"], "--max-n must be >= 2, got -5", id="max-n-negative"),
    pytest.param(["verify-bound", "--max-n", "1", "--blowup-n", "1"], "--max-n must be >= 2, got 1", id="max-n-1"),
    pytest.param(["region", "--m", "2"], "region requires --p and/or --boundary", id="region-no-p"),
    pytest.param(["region", "--m", "2", "--p", "2", "--grid-points", "5"],
                 "--grid-points and --p-max require --boundary", id="grid-points-without-boundary"),
    pytest.param(["region", "--m", "2", "--boundary", "--grid-points", "2", "--r", "2", "--conjecture"],
                 "--r and --conjecture require --p", id="region-r-conjecture-without-p"),
    pytest.param(["verify-bound", "--max-n", "3", "--seed", "5"],
                 "--seed requires --m3-samples > 0", id="verify-bound-seed-without-m3-samples"),
    pytest.param(["scan", "--m", "2", "--n", "32", "--method", "exact", "--seed", "1"],
                 "2**31 assignments exceed the 2**30 budget of exact enumeration", id="scan-exact-over-budget"),
    # ksz checks --starts and the n count before its first draw
    pytest.param(["ksz", "--m", "2", "--n", "2:3", "--samples", "4", "--seed", "1", "--starts", "99"],
                 "--starts does not apply when every norm is exact", id="ksz-starts-all-exact"),
    pytest.param(["ksz", "--m", "2", "--n", "2:3", "--samples", "4", "--seed", "1", "--starts", "-5"],
                 "--starts does not apply when every norm is exact", id="ksz-starts-negative-all-exact"),
    pytest.param(["ksz", "--m", "0", "--n", "2:3", "--samples", "4", "--seed", "1", "--starts", "3"],
                 "m and n must be positive, got m=0 n=2", id="ksz-starts-m-0"),
    pytest.param(["ksz", "--m", "2", "--p", "2", "--n", "2:3", "--samples", "4", "--seed", "1", "--starts", "-5"],
                 "starts must be >= 1, got -5", id="ksz-starts-negative"),
    pytest.param(["ksz", "--m", "2", "--p", "2", "--n", "7", "--samples", "500", "--seed", "1"],
                 "need at least two distinct n values", id="ksz-one-n"),
    pytest.param(["ksz", "--m", "2", "--p", "2", "--n", "5,5", "--samples", "500", "--seed", "1"],
                 "need at least two distinct n values", id="ksz-repeated-n"),
])
def test_out_of_range_input_exits_2(argv, message, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "sign_draws", unreachable)  # ksz and --m3-samples refuse before drawing
    code, out = invoke(argv, monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"gbswitch: error: {message}\n"


#: Each method's own solver options, as args names; scan also reads --seed under every method.
_METHOD_OPTIONS = {"exact": {"force"}, "greedy": {"seed", "restarts"}, "local": {"seed", "max_flips"},
                   "alt": {"seed", "starts", "sweeps_max", "tol"}}
#: A non-default argv value for each method-only option.
_OPTION_ARGV = {"force": ["--force"], "restarts": ["--restarts", "5"], "max_flips": ["--max-flips", "2"],
                "starts": ["--starts", "3"], "sweeps_max": ["--sweeps-max", "4"], "tol": ["--tol", "1e-3"]}


def _scan_start(board, seed):
    return make_assignment(board.dims, rng.sign_draws([rng.mix(seed)], board.dims.m, board.dims.n)[0])


@pytest.mark.parametrize("method, defaults, solver", [
    pytest.param("exact", [], lambda board, seed: solvers.exact_max(board, allow_large=True), id="exact"),
    pytest.param("greedy", [], lambda board, seed: solvers.random_restart_greedy(board, 5, seed), id="greedy"),
    pytest.param("local", [], lambda board, seed: solvers.local_search(board, _scan_start(board, seed), 2), id="local"),
    pytest.param("alt", ["--p", "3"], lambda board, seed: lp.alternating_max(
        board, Fraction(3), starts=3, sweeps_max=4, tol=1e-3, seed=seed), id="alt"),
])
def test_scan_passes_each_method_option_to_its_solver(method, defaults, solver, monkeypatch):
    monkeypatch.setattr(solvers, "EXACT_BUDGET_BITS", 4)  # the 2**5 assignments of a 6 x 6 board need --force
    argv = ["scan", "--m", "2", "--n", "6", "--seed", "3", "--method", method, *defaults]
    own = [arg for name in sorted(_METHOD_OPTIONS[method] - {"seed"}) for arg in _OPTION_ARGV[name]]
    code, out = invoke([*argv, *own], monkeypatch)
    expected = repr(solver(random_tensor(DimSpec(2, 6), rng.generator(3, 6)), 3).value)
    assert (code, out.splitlines()[1].split(",")[7]) == (0, expected)
    code, out = invoke(argv, monkeypatch)  # at the defaults the value differs, or exact refuses the board
    assert code == 2 if method == "exact" else out.splitlines()[1].split(",")[7] != expected


@pytest.mark.parametrize("method, option", [
    (method, option) for method in _METHOD_OPTIONS for option in _OPTION_ARGV if option not in _METHOD_OPTIONS[method]
])
def test_option_of_another_method_exits_2_before_any_board(method, option, cf_file, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a board was read or drawn")

    monkeypatch.setattr(cli.tz, "random_tensor", unreachable)
    monkeypatch.setattr(cli.tz, "read_tensor", unreachable)
    seeded = [] if method == "exact" else ["--seed", "1"]  # solve reads a seed only for the methods that draw
    for command in (["scan", "--m", "2", "--n", "3", "--seed", "1"], ["solve", "--input", cf_file, *seeded]):
        argv = [*command, "--method", method, *_OPTION_ARGV[option]]
        code, out = invoke(argv, monkeypatch)
        assert (code, out) == (2, ""), argv
        message = f"{_OPTION_ARGV[option][0]} does not apply to --method {method}"
        assert capsys.readouterr().err == f"gbswitch: error: {message}\n", argv


def test_solve_exact_refuses_seed(cf_file, monkeypatch, capsys):
    code, out = invoke(["solve", "--input", cf_file, "--method", "exact", "--seed", "4"], monkeypatch)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "gbswitch: error: --seed does not apply to --method exact\n"
    assert invoke(["scan", "--m", "2", "--n", "3", "--method", "exact", "--seed", "4"], monkeypatch)[0] == 0


_HUGE = str(10 ** 30)
#: Odd values tried for one option per run: zero, negatives, nan, infinities, a fraction, huge and tiny numbers.
_ODD_VALUES = ("0", "-1", "-3", "nan", "inf", "-inf", "1/2", "1e400", "1e-400", "-1e400", "-" + _HUGE, _HUGE)
#: Ordinary values for the other options, by option type.
_USUAL_VALUES = {
    int: ("0", "1", "2", "5", _HUGE),
    float: ("0", "0.2", "10", "inf"),
    parse_exponent: ("inf", "1", "4/3", "2", "3", "12", "1e400"),
    parse_n_values: ("2:4", "3", "2,5"),
    parse_int_list: ("1,2", "3"),
    parse_exponent_list: ("1,4/3", "2"),
}
#: Options that set the work done, with the largest size drawn for each; none is drawn huge.
_SIZE_CAPS = {"m": 3, "n": 5, "samples": 8, "restarts": 8, "starts": 8, "sweeps_max": 8,
              "grid_points": 10, "m3_samples": 8, "max_n": 4}
_SUBPARSERS = next(action for action in build_parser()._actions if action.dest == "command").choices


def _option_value(data, action, odd: bool) -> str:
    cap = _SIZE_CAPS.get(action.dest)
    if odd:
        return data.draw(st.sampled_from([v for v in _ODD_VALUES if cap is None or v != _HUGE]))
    if cap is not None and action.type is int:
        return str(data.draw(st.integers(1, cap)))
    return data.draw(st.sampled_from(_USUAL_VALUES[action.type]))


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(command, data, tmp_path_factory):
    """No argv drawn from the parser's own options escapes run(), and each exit code keeps its contract.

    solve and scan draw --method first and then that method's own options (with --p inf unless it is alt); one
    draw in four adds one option of another method, which must exit 2.
    """
    folder = tmp_path_factory.mktemp("fuzz")
    board = folder / "board.json"
    board.write_text('{"m":2,"n":3,"entries":[1,1,-1,1,-1,1,-1,1,1]}\n')
    method = data.draw(st.sampled_from(sorted(_METHOD_OPTIONS))) if command in ("solve", "scan") else None
    own = set() if method is None else _METHOD_OPTIONS[method] | ({"seed"} if command == "scan" else set())
    others = set() if method is None else set().union(*_METHOD_OPTIONS.values()) - own
    foreign = data.draw(st.sampled_from(sorted(others))) if others and data.draw(st.integers(0, 3)) == 0 else None
    options = [action for action in _SUBPARSERS[command]._actions if action.option_strings
               and action.dest not in ("help", "json", "output") and action.dest not in others - {foreign}]
    odd = data.draw(st.sampled_from([None, *(action.dest for action in options if action.type)]))
    argv = ["--json", command] if data.draw(st.booleans()) else [command]
    kept = {odd, foreign, "method"} | (own & {"seed"})  # the drawn method and the seed it needs are always given
    for action in options:
        if not action.required and action.dest not in kept and data.draw(st.integers(0, 3)) == 0:
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        if action.dest in ("input", "out"):
            value = str(board if action.dest == "input" else folder / "gen.json")
        elif action.dest == "method":
            value = method
        elif action.dest == "p" and method in ("exact", "greedy", "local") and odd != "p":
            value = "inf"  # the methods that maximise over sign vectors need p = inf
        elif action.choices:
            value = data.draw(st.sampled_from(list(action.choices)))
        else:
            value = _option_value(data, action, odd=action.dest == odd)
        argv += [action.option_strings[0], value]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert foreign is None or code == 2, argv
    text = out.getvalue()
    if code == 2:
        assert text == "" and err.getvalue(), argv
    elif argv[0] == "--json":
        assert text and all(json.loads(line) for line in text.splitlines()), argv
    else:
        assert text.startswith(CSV_HEADER), argv
