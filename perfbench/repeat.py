"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py [--seeds 1,2,...] [--out FILE]

For every workload, runs ``perfbench/run.py --trace 0`` once per seed and
reports the median and quartiles of each end-to-end metric, with the
spread (q3 - q1) / median next to the metric's bound; then one
``--trace 1`` run at the first seed gives the per-layer numbers (layers the
workload never reaches are stored as null). With ``--out`` the summary is
written as JSON; perfbench/baseline.json was made this way. Run it from the
root of a checkout, like run.py.

Seed 7 has committed digests; seed 1801 is held out, never used while the
benchmark was tuned, for re-checking a claim on inputs it was not fitted to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} reported incorrect output:\n{proc.stdout}{proc.stderr}")
    saved = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    result["env"] = saved["env"]
    for name in saved["absent"]:
        result["metrics"][name]["value"] = None
    return result


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": seeds, "end_to_end": {}, "per_layer": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result = _run(workload, seed, seconds, 0)
            summary["env"] = {k: v for k, v in result["env"].items() if k != "seed"}
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = summary["end_to_end"][workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload} {name}: median {median:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                  f"spread {spread:.3f} (bound {bounds[name]})", flush=True)
        traced = _run(workload, seeds[0], seconds, 1)
        summary["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
