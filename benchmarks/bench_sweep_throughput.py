"""End-to-end sweep throughput — runs/sec across orchestrator backends.

The paper's tables are cross-products (benchmarks x controllers x
seeds), so fleet throughput — not single-run speed — is what decides
how long a full reproduction takes.  This bench executes one
closed-loop sweep (the Attack/Decay controller, the configuration
behind the headline numbers) through each orchestrator backend:

* ``serial``  — one run at a time in the calling thread;
* ``process`` — the multiprocessing pool: spawn cost, per-worker npz
  trace loads, registry snapshots, results round-tripped through disk;
* ``thread``  — the thread pool over the GIL-releasing native loop:
  one process, shared compiled-trace cache, write-through result
  front (skipped when no C compiler is available).

Every backend must produce byte-identical ``ResultSet`` dictionaries —
a faster sweep that computes different numbers would be worthless.

Results land in ``results/bench_sweep_throughput.json`` and the
baseline table in ``docs/performance.md``.  Knobs: ``REPRO_SCALE``,
``REPRO_BENCHMARKS``, ``REPRO_WORKERS``, ``REPRO_BATCH`` (batch-cell
size; recorded runs carry it in their spec hash, so different batch
settings are separate trajectories in the result database).  The
acceptance floors (thread backend at least ``THREAD_FLOOR``x the
process backend, and process at least ``PROCESS_FLOOR``x serial, at
>= 4 workers) are asserted under pytest and by ``--check-floor``:

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_throughput.py -s
    PYTHONPATH=src REPRO_WORKERS=4 \
        python benchmarks/bench_sweep_throughput.py --check-floor
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import save_bench

from repro.experiments import Orchestrator, Suite
from repro.experiments.executor import (
    benchmark_scale,
    default_batch,
    default_workers,
    quick_benchmarks,
)
from repro.uarch.native import load_hotpath

#: Representative closed-loop slice: compute-bound, branchy,
#: FP-phased and memory-bound applications.
SWEEP_BENCHMARKS = ["adpcm", "gsm", "epic", "mcf", "gcc", "swim"]

#: The closed-loop configuration behind the paper's headline tables.
SWEEP_CONFIGURATIONS = ["attack_decay"]

#: Two seeds double the matrix without re-generating traces — exactly
#: the reuse pattern the shared trace cache exists for.
SWEEP_SEEDS = [1, 2]

#: Acceptance floor: thread-backend throughput over the process
#: backend on the closed-loop sweep at >= FLOOR_WORKERS workers.
THREAD_FLOOR = 1.5
#: Acceptance floor: batched process-backend throughput over serial.
#: Binds on multi-core hosts (CI runners), where batch cells (one
#: GIL-free native entry and one warm-up per cell) plus the workers'
#: fork-inherited trace cache and on-disk trace store must at least pay
#: for the pool's fixed costs; on a single core a pool can only ever
#: approach serial from below, so the floor is skipped there.
PROCESS_FLOOR = 1.0
FLOOR_WORKERS = 4


def _sweep(backend: str, workers: int, suite: Suite, repeats: int = 2):
    """Fastest of ``repeats`` sweeps on ``backend``; returns (results, s)."""
    best = None
    results = None
    for _ in range(repeats):
        orchestrator = Orchestrator(
            workers=workers, backend=backend, use_cache=False
        )
        start = time.perf_counter()
        results = orchestrator.run(suite)
        elapsed = time.perf_counter() - start
        assert not results.errors, [o.error for o in results.errors]
        if best is None or elapsed < best:
            best = elapsed
    return results, best


def run_bench(check_floor: bool = False) -> dict:
    """Measure every available backend; returns the saved payload."""
    scale = benchmark_scale()
    native = load_hotpath() is not None
    if check_floor and not native:
        raise SystemExit(
            "bench_sweep_throughput: --check-floor needs the native loop, "
            "but no C compiler is available"
        )
    workers = default_workers()
    if check_floor:
        workers = max(workers, FLOOR_WORKERS)
    names = quick_benchmarks(default=SWEEP_BENCHMARKS)
    suite = Suite(
        benchmarks=names,
        configurations=SWEEP_CONFIGURATIONS,
        seeds=SWEEP_SEEDS,
        scale=scale,
        name="closed-loop-throughput",
    )
    total = len(suite.expand())

    backends = ["serial", "process"] + (["thread"] if native else [])
    seconds: dict[str, float] = {}
    reference = None
    for backend in backends:
        results, seconds[backend] = _sweep(
            backend, workers if backend != "serial" else 1, suite
        )
        payload = results.to_dict()
        if reference is None:
            reference = payload
        else:
            assert payload == reference, (
                f"{backend} backend diverged from the serial result set"
            )

    # default_batch() validates REPRO_BATCH; the orchestrators above
    # already resolved the same setting per backend.
    batch_setting = default_batch()
    batch_label = "auto" if batch_setting is None else str(batch_setting)
    # Recorded so the gate can tell whether the process-vs-serial
    # floor is meaningful for this run (it binds at >= 2 cores).
    cores = os.cpu_count() or 1
    aggregate = {
        "scenarios": total,
        "workers": workers,
        "scale": scale,
        "native": native,
        "batch": batch_label,
        "cores": cores,
    }
    for backend in backends:
        aggregate[f"{backend}_rps"] = total / seconds[backend]
        aggregate[f"{backend}_seconds"] = seconds[backend]
    aggregate["process_vs_serial"] = seconds["serial"] / seconds["process"]
    if native:
        aggregate["thread_vs_process"] = seconds["process"] / seconds["thread"]
        aggregate["thread_vs_serial"] = seconds["serial"] / seconds["thread"]

    print(
        f"\nClosed-loop sweep throughput ({total} runs, {workers} workers, "
        f"batch {batch_label}, best of 2):"
    )
    for backend in backends:
        print(
            f"  {backend:8s} {aggregate[f'{backend}_rps']:8.2f} runs/sec"
            f"  ({seconds[backend]:.2f}s)"
        )
    print(f"  process/serial: {aggregate['process_vs_serial']:.2f}x")
    if native:
        print(f"  thread/process: {aggregate['thread_vs_process']:.2f}x")

    # The batch setting is part of the measurement's identity: runs at
    # different cell sizes are separate trajectories in the result
    # database, never compared against each other by `repro check`.
    payload = save_bench(
        "bench_sweep_throughput",
        aggregate=aggregate,
        backend=f"batch={batch_label}",
    )

    if check_floor and native:
        assert workers >= FLOOR_WORKERS
        ratio = aggregate["thread_vs_process"]
        assert ratio >= THREAD_FLOOR, (
            f"thread backend is {ratio:.2f}x the process backend; "
            f"expected >= {THREAD_FLOOR}x at {workers} workers"
        )
        if cores > 1:
            ratio = aggregate["process_vs_serial"]
            assert ratio >= PROCESS_FLOOR, (
                f"process backend is {ratio:.2f}x serial; expected >= "
                f"{PROCESS_FLOOR}x at {workers} workers on {cores} cores"
            )
    return payload


def test_sweep_throughput():
    # The floor only binds when the native loop exists; without it the
    # bench still measures serial vs process and checks determinism.
    run_bench(check_floor=load_hotpath() is not None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-floor",
        action="store_true",
        help=(
            f"fail unless the thread backend >= {THREAD_FLOOR}x the "
            f"process backend (and, on multi-core hosts, process >= "
            f"{PROCESS_FLOOR}x serial) at >= {FLOOR_WORKERS} workers"
        ),
    )
    args = parser.parse_args(argv)
    run_bench(check_floor=args.check_floor)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
