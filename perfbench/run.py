"""symchain benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload zloc_theorems --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27

Set-up is timed in several fresh worker processes, from process start to
inputs ready; the median is ``setup_s``.  Then one more worker measures the
job in a closed loop for ``--seconds``.  With ``--trace 0`` the last line
of standard output is the end-to-end result; with ``--trace 1`` the same
worker alternates untraced and span-traced jobs and the result holds the
per-layer metrics.  A worker that outlives its time cap is killed and every
item it did not finish counts as failed.  ``fail_ratio`` is ``failed /
attempted`` of the result line.  ``--workload all`` runs every workload in
turn and prints a table instead.

End-to-end times are scaled to a fixed host speed (see ``hostspeed.py``):
set-up by the loop samples its worker took while setting up and one taken
here just before it started, calls by the samples the worker took around
them.

Exits 2 without a result if no worker gets as far as ready, for example
when the checkout has no ``src/symchain``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import metric_names  # noqa: E402
from hostspeed import mixed_loop, scale  # noqa: E402
from worker import WORK  # noqa: E402

WORKLOADS = ("zloc_theorems", "graded_theorems_cli", "graded_homology", "integer_homology")
SETUPS = 7  # set-up samples per run: SETUPS - 1 set-up-only workers plus the measuring one
SETUP_CAP_S = 30.0
RUN_BUDGET_S = 170.0  # the whole run, set-ups included, ends within this
EXIT_NO_RESULT = 2


@dataclass
class WorkerRun:
    setup_s: float | None = None  # scaled to the reference host speed
    items_per_job: int = 0
    records: list = field(default_factory=list)
    killed: bool = False
    returncode: int | None = None


def supervise(cmd: list, cap_s: float) -> WorkerRun:
    """Run a worker, collect its JSON lines, and kill it after cap_s seconds."""
    run = WorkerRun()
    loop_before = mixed_loop()  # set-up is interpreted work on every workload
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)

    def read():
        for line in proc.stdout:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # stray output is not a progress record
            if record.get("ready") and run.setup_s is None:
                raw = time.perf_counter() - start - record["sampling_s"]
                run.setup_s = scale(raw, statistics.fmean([loop_before] + record["loops"]))
                run.items_per_job = record["items"]
            run.records.append(record)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        run.returncode = proc.wait(timeout=cap_s)
    except subprocess.TimeoutExpired:
        run.killed = True
        proc.kill()
        run.returncode = proc.wait()
    finally:
        reader.join()
        proc.stdout.close()
    return run


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Tally:
    attempted: int
    failed: int
    walls: list
    latencies_ms: dict  # item index -> scaled latency of each of its calls
    errors: list


def tally(run: WorkerRun) -> Tally:
    """Count answers; items of a job the worker never finished count as failed."""
    attempted = failed = 0
    walls, errors = [], []
    latencies = {}
    open_job = 0  # items reported since the last unfinished job_start
    in_job = False
    for record in run.records:
        if record.get("job_start"):
            in_job, open_job = True, 0
        elif "item" in record:
            attempted += 1
            open_job += 1
            if not record["ok"]:
                failed += 1
                if len(errors) < 5:
                    errors.append(record.get("error") or f"item {record['item']}: wrong answer")
        elif record.get("job_end"):
            in_job = False
            walls.append(record["wall_s"])
            for k, ms in enumerate(record["ms"]):
                latencies.setdefault(k, []).append(ms)
    finished = any(r.get("done") for r in run.records)
    if in_job or not finished:
        unfinished = max(run.items_per_job - open_job, 0) if in_job else run.items_per_job
        attempted += unfinished
        failed += unfinished
        errors.append(f"worker stopped (killed={run.killed}, exit={run.returncode}) with {unfinished} items unfinished")
    return Tally(attempted, failed, walls, latencies, errors)


def run_workload(args) -> dict | None:
    """One benchmark run of one workload; None if no worker got ready."""
    begin = time.perf_counter()
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUPS - 1):
        run = supervise(base + ["--setup-only"], SETUP_CAP_S)
        if run.setup_s is None:
            return None
        setups.append(run.setup_s)
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans:
        cmd += ["--spans", str(Path(args.spans).resolve())]
    cap = RUN_BUDGET_S - (time.perf_counter() - begin)
    run = supervise(cmd, cap)
    if run.setup_s is None:
        return None
    setups.append(run.setup_s)
    counts = tally(run)
    for error in counts.errors:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    done = next((r for r in run.records if r.get("done")), {})
    # a killed worker finished no job: its wall time is at least what it ran
    wall = statistics.median(counts.walls) if counts.walls else cap
    print(
        f"perfbench: {args.workload}: {len(counts.walls)} jobs, percentiles over {len(counts.latencies_ms)} calls",
        file=sys.stderr,
    )
    jobs = [r for r in run.records if r.get("job_end")]
    if jobs:
        print(
            f"perfbench: {args.workload}: unscaled median wall {statistics.median(r['raw_wall_s'] for r in jobs):.4f} s,"
            f" host speed loop median {statistics.median(r['loop_ms'] for r in jobs):.4f} ms",
            file=sys.stderr,
        )
    if args.trace:
        trace = done.get("trace") or {}
        per_job = trace.get("per_job", {})
        for name in trace.get("absent", []):
            print(f"perfbench: boundary {name} is absent", file=sys.stderr)
        values = {
            **per_job,
            "trace.overhead_s": trace.get("overhead_s", 0.0),
            "trace.absent": len(trace.get("absent", [])),
        }
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in per_layer_units().items()}
    else:
        # each call's median over the run's jobs, so one slow moment moves one sample
        latencies = [statistics.median(ms) for ms in counts.latencies_ms.values()] or [wall * 1000.0]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "item_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
            "item_p90_ms": {"value": percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": done.get("peak_rss_mb", children_peak_mb()), "unit": "MB"},
        }
    return {
        "correct": counts.failed == 0,
        "attempted": max(counts.attempted, 1),
        "failed": counts.failed if counts.attempted else 1,
        "metrics": metrics,
    }


def children_peak_mb() -> float:
    """Largest peak RSS of any waited-for worker, for one killed before it reported."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def per_layer_units() -> dict:
    """Name and unit of every metric a traced run reports, in order."""
    units = {"self_s": "s", "max_bits": "bits"}
    out = {name: units.get(name.rsplit(".", 1)[-1], "count") for name in metric_names()}
    out.update({"trace.overhead_s": "s", "trace.absent": "count"})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="symchain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced run only: write its spans here as JSON lines")
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(args)
            if result is None:
                print(f"perfbench: {args.workload}: no worker got ready", file=sys.stderr)
                return EXIT_NO_RESULT
            print(json.dumps(result))
            return 0
        for name in WORKLOADS:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            if result is None:
                print(f"perfbench: {name}: no worker got ready", file=sys.stderr)
                return EXIT_NO_RESULT
            fail_ratio = result["failed"] / result["attempted"]
            print(f"{name:22} fail_ratio {fail_ratio:.4f} ({result['failed']}/{result['attempted']})")
            for metric, m in result["metrics"].items():
                print(f"{name:22} {metric:40} {m['value']:.6g} {m['unit']}")
        return 0
    finally:
        try:
            WORK.rmdir()  # only when empty: every worker removes its own directory
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
