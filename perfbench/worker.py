"""One fresh benchmark process; prints one JSON object as its last line.

Modes:

``build``
    Load (compiling on first use) the native loop and report the host
    and program identity.
``prep``
    Run the workload's untimed data preparation.
``setup``
    Import, load the native loop and construct the workload's context,
    then stop: a set-up time sample.
``pass``
    Set up, then run timed passes (one, or repeated until ``--budget``
    seconds for workloads that repeat), then check the outputs.  With
    ``--trace 1`` the passes run under the per-layer spans of
    :mod:`tracing`.

The parent passes ``--work``, the run's private directory: the result
cache and trace store live under it, never under ``results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for.

    The maximum of ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN``, not their
    sum: ``RUSAGE_CHILDREN`` reports the largest single descendant, so
    moving work into process-pool workers cannot read as a saving.
    """
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


def isolate(trace_dir: Path):
    """Point the process-wide trace store at ``trace_dir``.

    Returns the process-wide compiled-trace cache, whose counters the
    traced run reports.  Both names are reached into directly, so a
    rename in the program stops the benchmark here instead of letting
    it write to the default store or report empty counters.
    """
    import repro.sim.engine as engine
    from repro.uarch.compiled_trace import TraceStore

    for name in ("_TRACE_STORE", "_TRACE_MEMO"):
        if not hasattr(engine, name):
            raise SystemExit(f"repro.sim.engine.{name} no longer exists")
    engine._TRACE_STORE = TraceStore(
        directory=trace_dir, memo_entries=engine._TRACE_STORE.memo_entries
    )
    memo = engine._TRACE_MEMO
    for counter in ("hits", "misses", "evictions"):
        if not hasattr(memo, counter):
            raise SystemExit(f"repro.sim.engine._TRACE_MEMO.{counter} no longer exists")
    return memo


def identity(hotpath) -> dict:
    import platform

    import numpy

    from repro.uarch.native import compiler_info
    from workloads import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": compiler_info(),
        "native_loaded": hotpath is not None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("build", "prep", "setup", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Set-up proper: imports, native-loop load, context construction.
    import workloads
    from repro.uarch.native import load_hotpath

    hotpath = load_hotpath()
    if hotpath is None:
        print("native loop did not load; the Python fallback is a different "
              "program, so the benchmark refuses to run", file=sys.stderr)
        return 3
    if args.mode == "build":
        print(json.dumps(identity(hotpath)))
        return 0

    # The benchmark's own preparation, excluded from set-up time.
    prep_start = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]()
    memo = isolate(workload.trace_dir(args.work))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, hotpath)
    prep_s = time.monotonic() - prep_start

    # Seeds without pinned digests are checked against the oracle.
    oracle_k = 0
    if args.oracle and args.seed != workloads.DEFAULT_SEED:
        oracle_k = workloads.ORACLE_SAMPLE[args.workload]
    if args.mode == "prep":
        print(json.dumps(workload.prepare(args.work, args.seed, oracle_k)))
        return 0

    workload.open(args.work, args.seed)
    first_call = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"first_call": first_call, "prep_s": prep_s}))
        return 0

    counters = ("hits", "misses", "evictions")
    memo_before = [getattr(memo, c) for c in counters]
    walls, outputs = [], []
    if tracer is not None:
        tracer.active = True
    while True:
        start = time.perf_counter()
        outputs.append(workload.run())
        walls.append(time.perf_counter() - start)
        if not workload.repeat or time.monotonic() - first_call >= args.budget:
            break
    if tracer is not None:
        tracer.active = False
    memo_delta = {
        c: getattr(memo, c) - before for c, before in zip(counters, memo_before)
    }
    rss = peak_rss_mb()
    report = {
        "first_call": first_call,
        "prep_s": prep_s,
        "walls": walls,
        "rss_mb": rss,
        "workers": workload.workers,
        "trace_cache": memo_delta,
        "trace": tracer.totals() if tracer is not None else None,
    }
    report.update(workload.check(outputs, oracle_k))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
