"""One workload in one fresh, single-threaded process.

Imports symchain from the checkout's ``src``, builds the seeded inputs,
reports ready, then runs the job in a closed loop: each call starts only
after the previous one returned.  Progress goes to standard output as JSON
lines, one per event, so the supervising ``run.py`` can count finished
items even if it has to kill this process.

Every time it reports is scaled to a fixed host speed by a
``hostspeed.Sampler`` that runs from the start of the process; the
unscaled job time and the loop time are reported beside the scaled ones.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace 1]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
EXIT_NO_PROGRAM = 3


def emit(stream, **record) -> None:
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def run_job(items, report, sampler, tracer=None) -> float:
    """Run every item once, in order; returns the job's scaled call time in seconds.

    An exception in a call or oracle counts as a wrong answer.  Items are
    reported as they finish; their scaled times come with the job's end.
    """
    report(job_start=True)
    sampler.sample()
    spans = []  # (start, end, seconds without sampling) of each call
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = k
        error = None
        spent = sampler.spent
        start = time.perf_counter()
        try:
            result = item.call()
            end = time.perf_counter()
            ok = bool(item.check(result))
        except Exception as exc:  # a failed item is counted, not fatal
            end = time.perf_counter()
            ok = False
            error = f"{type(exc).__name__}: {exc}"
        spans.append((start, end, end - start - (sampler.spent - spent)))
        report(item=k, ok=ok, error=error)
    sampler.sample()
    ms = [1000.0 * hostspeed.scale(t, sampler.loop_s(a, b)) for a, b, t in spans]
    wall = sum(ms) / 1000.0
    report(
        job_end=True,
        wall_s=wall,
        ms=ms,
        raw_wall_s=sum(t for _, _, t in spans),
        loop_ms=1000.0 * sampler.loop_s(spans[0][0], spans[-1][1]),
    )
    return wall


def measure(items, seconds: float, report, sampler) -> None:
    """Untraced jobs until the next one would pass the time window (at least one)."""
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        run_job(items, report, sampler)
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return


def measure_traced(items, seconds: float, report, sampler, spans_path: str | None) -> dict:
    """Alternate untraced and traced jobs; per-layer numbers come from the traced ones.

    Per-layer times are not scaled, and include the sampler's share (about 4%).
    """
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        plain.append(run_job(items, report, sampler))
        tracer.install()
        try:
            traced.append(run_job(items, report, sampler, tracer))
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            break
    per_job = {
        name: value if name.endswith(".max_bits") else value / len(traced)
        for name, value in tracer.totals().items()
    }
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps([span.item, span.span_id, span.parent, span.name, span.start, span.end]) + "\n")
    return {
        "per_job": per_job,
        "absent": tracer.absent,
        "overhead_s": statistics.median(traced) - statistics.median(plain),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = sys.stdout  # the CLI workload redirects sys.stdout while it runs
    setup = hostspeed.Sampler()  # set-up is interpreted work on every workload
    setup.start()
    try:
        return run(args, out, setup)
    finally:
        setup.stop()  # or the sampler that replaced it: both use the one timer


def run(args, out, setup) -> int:
    """Set up, report ready with the set-up's host speed, then measure."""
    sys.path.insert(0, str(SRC))
    try:
        import symchain
    except ImportError as exc:
        print(f"perfbench: cannot import symchain from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if Path(symchain.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: symchain was imported from {symchain.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        items = workloads.build(args.workload, args.seed, workdir)
        setup.sample()
        emit(out, ready=True, items=len(items), loops=setup.loops, sampling_s=setup.spent)
        if args.setup_only:
            return 0
        sampler = hostspeed.Sampler(hostspeed.loop_for(args.workload))
        sampler.start()
        report = functools.partial(emit, out)
        trace = None
        if args.trace:
            trace = measure_traced(items, args.seconds, report, sampler, args.spans)
        else:
            measure(items, args.seconds, report, sampler)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit(out, done=True, peak_rss_mb=peak_mb, trace=trace)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
