"""gbswitch benchmark: three workloads driven through the package's public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {exact-large,board-sweep,ascent} \\
        --seed N --seconds S --trace {0,1}

Workloads are described in jobs.py. The benchmark starts one workload
process (worker.py) with ``GB_THREADS=2`` and the BLAS thread count capped
at the number of usable cores; that process runs the job list in a closed
loop until S seconds have elapsed and checks every output. Set-up is
measured over several fresh processes.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``, ``cpu_s``: wall and CPU (user + system, all threads) time of
  one pass over the job list, as the sum over jobs of each job's median
  over the passes;
- ``setup_s``: process start to the first timed job (import, inputs from
  the seed, warm-up), median of ``SETUP_SAMPLES`` processes;
- ``peak_rss_mb``: peak resident memory of the workload process;
- ``fail_ratio`` is printed but not part of the JSON metrics, which hold
  only nonzero metrics: it equals the result's ``failed / attempted``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of spans.py, medians over the traced passes, plus
``trace.overhead_s`` (traced minus untraced pass time). A layer the
workload never reaches is printed as absent and carries 0 in the JSON.

A job fails if it raises, if its output check fails (witness
re-evaluation, CLI exit code and verdicts; see jobs.py), if a later pass
gives a different output digest than the first, or if its digest differs
from the one in digests.json. digests.json holds every job's digest at
seed 7, taken from the ``digests`` of a seed-7 result file in
perfbench/out/; at other seeds only the jobs whose output does not depend
on the seed are compared with it.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the environment is printed
before it, and everything is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact-large", "board-sweep", "ascent")
SETUP_SAMPLES = 5
GB_THREADS = "2"
#: Every run must end within this many seconds.
DEADLINE_S = 170.0


def _commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Child:
    """A worker process whose set-up time is measured to its ``ready`` line."""

    def __init__(self, argv: list[str], env: dict, deadline: float) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
        self._timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "ready"

    def finish(self) -> tuple[int, str]:
        try:
            out = self.proc.stdout.read()
            return self.proc.wait(), out
        finally:
            self.close()

    def close(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7, help="seed 7 has committed digests (digests.json)")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "gbswitch" / "__init__.py").is_file():
        print(f"perfbench: no gbswitch source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["GB_THREADS"] = GB_THREADS
    env["GB_FIXED_RUNTIME_MS"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cap = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            cap = nproc
        env[var] = str(max(1, cap))
    out_dir = HERE / "out"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(worker + ["--setup-only"], env, deadline)
            code, _ = child.finish()
            if not child.ready or code != 0:
                print(f"perfbench: set-up process failed with exit code {code}", file=sys.stderr)
                return 1
            setup.append(child.setup_s)
    child = Child(worker, env, deadline)
    code, out = child.finish()
    lines = out.strip().splitlines()
    if not child.ready or code != 0 or not lines:
        print(f"perfbench: workload process failed with exit code {code}", file=sys.stderr)
        return 1
    setup.append(child.setup_s)
    result = json.loads(lines[-1])

    environment = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas": result["blas"],
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "GB_THREADS": GB_THREADS,
        "seed": args.seed,
        "commit": _commit(root),
        "src_sha256": _src_digest(src),
    }
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {}
    absent = []
    print("env " + json.dumps(environment))
    print(f"workload {args.workload}: {result['jobs']} jobs, {result['passes']} passes, "
          f"{result['digests_compared']} jobs checked against committed digests")
    for m in declared:
        value = values[m["name"]]
        if value is None:
            absent.append(m["name"])
            print(f"{m['name']} absent")
            value = 0
        else:
            print(f"{m['name']} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")

    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({
        **record, "workload": args.workload, "env": environment, "absent": absent,
        "setup_samples_s": setup, "passes": result["passes"], "digests": result["digests"],
    }, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
