import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from conftest import alternating_max_loop, sign_draws_loop
from gbswitch import DimSpec, evaluate, km_constant, read_tensor
from gbswitch import cli, experiments, lp, rng, solvers
from gbswitch.cli import (
    CSV_HEADER,
    parse_exponent,
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


def test_missing_input_file(tmp_path):
    code, _ = invoke(["solve", "--input", str(tmp_path / "none.json")])
    assert code == 2


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


def test_region_conjecture_tagged(monkeypatch):
    code, out = invoke(["region", "--m", "2", "--p", "3/2", "--conjecture"], monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert any("conjecture-UNVERIFIED" in line for line in lines[1:])


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


def test_witness_string_roundtrip():
    import numpy as np

    from gbswitch import make_assignment

    dims = DimSpec(3, 4)
    vecs = np.array([[1, -1, 1, 1], [-1, -1, 1, -1], [1, 1, -1, 1]], dtype=np.int8)
    s = make_assignment(dims, vecs)
    assert witness_from_str(witness_to_str(s), dims) == s


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


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_gb_threads_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("GB_THREADS", value)
    code, out = invoke(["ksz", "--m", "2", "--n", "2:3", "--samples", "4", "--seed", "1"], monkeypatch)
    assert code == 2
    assert out == ""
    assert "GB_THREADS" in capsys.readouterr().err


def test_bad_fixed_runtime_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GB_FIXED_RUNTIME_MS", "abc")
    code, out = invoke(["verify-extremal"], monkeypatch, fixed_runtime=False)
    assert code == 2
    assert out == ""
    assert "GB_FIXED_RUNTIME_MS" in capsys.readouterr().err


def test_verify_bound_size_guard_before_any_board(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a board table was built")

    monkeypatch.setattr(solvers, "sign_rows", unreachable)
    code, out = invoke(["verify-bound", "--max-n", "5"], monkeypatch)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert "--max-n 5" in err and "2**16 boards (--max-n 4)" in err


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
    class Unreachable:
        def __getattr__(self, name):
            raise AssertionError(f"sign_draws reached np.{name}")

    monkeypatch.setattr(rng, "np", Unreachable())
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
    for module in (cli, experiments, lp, solvers):
        def loop(seeds, count, n, name=module.__name__):
            calls[name] = calls.get(name, 0) + 1
            return sign_draws_loop(seeds, count, n)

        monkeypatch.setattr(module, "sign_draws", loop)
    assert outputs() == shipped
    assert sorted(calls) == ["gbswitch.cli", "gbswitch.experiments", "gbswitch.lp", "gbswitch.solvers"]


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
}


def test_pinned_output_bytes(tmp_path, monkeypatch):
    board = str(tmp_path / "board.json")
    assert invoke(["gen", "--m", "3", "--n", "4", "--seed", "7", "--out", board], monkeypatch)[0] == 0
    for argv, digest in _PINNED_STDOUT.items():
        code, out = invoke([arg.format(board=board) for arg in argv], monkeypatch)
        assert (code, hashlib.sha256(out.encode("ascii")).hexdigest()) == (0, digest), argv
