"""One workload process: set up, then run the job list in a closed loop.

Started by run.py with the checkout's ``src`` on PYTHONPATH. Prints
``ready`` once set-up (import, inputs, warm-up) is done, then runs passes
over the job list until ``--seconds`` have elapsed, each job starting when
the previous one finishes, and prints one JSON line with the results.
With ``--trace 1`` untraced and traced passes alternate.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import gbswitch

import jobs
import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


class Runner:
    """Runs passes over one job list and keeps per-job times and failures."""

    def __init__(self, job_list: list[jobs.Job], committed: list[str | None]) -> None:
        self.jobs = job_list
        self.reference = committed
        self.first: list[str | None] | None = None
        self.wall: list[list[float]] = [[] for _ in job_list]
        self.cpu: list[list[float]] = [[] for _ in job_list]
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def _fail(self, job: jobs.Job, reason: str) -> None:
        self.failed += 1
        if job.label not in self._reported:
            self._reported.add(job.label)
            print(f"job failed: {job.label}: {reason}", file=sys.stderr)

    def run_pass(self, record: bool) -> float:
        """One pass over the job list; returns its summed job wall time."""
        digests: list[str | None] = []
        total = 0.0
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = job.call()
            except Exception:
                out = None
                error = traceback.format_exc(limit=3)
            else:
                error = None
            w1, c1 = time.perf_counter(), time.process_time()
            total += w1 - w0
            if record:
                self.wall[i].append(w1 - w0)
                self.cpu[i].append(c1 - c0)
            digest = None
            if error is None:
                try:
                    digest = jobs.digest(job.check(out))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            digests.append(digest)
            if error is not None:
                self._fail(job, error)
            elif self.first is not None and digest != self.first[i]:
                self._fail(job, "output differs from the first pass")
            elif self.reference[i] is not None and digest != self.reference[i]:
                self._fail(job, f"digest {digest} differs from committed {self.reference[i]}")
        if self.first is None:
            self.first = digests
        return total

    def medians(self) -> tuple[float, float]:
        """Summed per-job medians of wall and CPU time over recorded passes."""
        wall = sum(statistics.median(t) for t in self.wall)
        cpu = sum(statistics.median(t) for t in self.cpu)
        return wall, cpu


def _committed(workload: str, seed: int, job_list: list[jobs.Job]) -> list[str | None]:
    """Committed digest per job where one applies at this seed, else None.

    At the default seed every job has one; at any other seed only the jobs
    whose output does not depend on the seed do.
    """
    data = json.loads((HERE / "digests.json").read_text())
    committed = data["digests"].get(workload)
    if committed is None:
        return [None] * len(job_list)
    if len(committed) != len(job_list):
        raise SystemExit(f"digests.json has {len(committed)} digests for {workload}, the job list {len(job_list)}")
    return [d if seed == data["seed"] or not job.seeded else None for d, job in zip(committed, job_list)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    src = (Path.cwd() / "src").resolve()
    if src not in Path(gbswitch.__file__).resolve().parents:
        print(f"gbswitch was imported from {gbswitch.__file__}, not from {src}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        job_list, warm = jobs.WORKLOADS[args.workload](args.seed, workdir)
        for job in warm:
            job.call()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(job_list, _committed(args.workload, args.seed, job_list))
        result = {"jobs": len(job_list), "numpy": np.__version__, "blas": _blas()}
        start = time.perf_counter()
        if args.trace:
            untraced, traced, layers = [], [], []
            while not traced or time.perf_counter() - start < args.seconds:
                untraced.append(runner.run_pass(record=False))
                with spans.Tracer() as tracer:
                    traced.append(runner.run_pass(record=False))
                layers.append(spans.summarize(tracer.spans))
                if len(traced) == 1:
                    spans.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz", tracer.spans)
                del tracer  # free this pass's spans before the next untraced pass
            per_layer = spans.median_metrics(layers)
            per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            result.update(per_layer=per_layer, passes=len(traced))
        else:
            passes = 0
            while not passes or time.perf_counter() - start < args.seconds:
                runner.run_pass(record=True)
                passes += 1
            wall, cpu = runner.medians()
            result.update(wall_s=wall, cpu_s=cpu, passes=passes)
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            digests_compared=sum(d is not None for d in runner.reference),
            digests=runner.first,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
