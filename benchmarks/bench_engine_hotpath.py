"""Engine hot-path baseline — instructions/sec, generator vs compiled.

Measures the simulator's innermost loop on a representative slice of
the catalog (compute-bound, phased FP, memory-bound, stream and
pointer-chase behaviour) and records the result so the repository's
performance trajectory has a baseline (``results/bench_engine_hotpath
.json``, summarised in ``docs/performance.md``).

Three measurements per benchmark:

* ``generator`` — the pre-compilation reference path: per-instruction
  cursor over the lazily generated block trace;
* ``compiled`` — the core over the compiled columnar trace (the
  native C loop when a compiler is available, else the same generator
  loop over the compiled columns);
* equivalence — the two paths' ``RunSummary`` dictionaries must be
  byte-identical, every time.

Environment knobs: ``REPRO_SCALE``, ``REPRO_BENCHMARKS`` (subset),
``REPRO_NATIVE=0`` (disable the native loop).  The acceptance floor is
asserted under pytest and by ``--check-floor``; both exit non-zero
when the native loop is unavailable:

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_hotpath.py -s
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --check-floor
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import save_bench

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.experiments.executor import benchmark_scale, quick_benchmarks
from repro.metrics.summary import summarize
from repro.sim.engine import compiled_trace_for, scaled_mcd_config
from repro.uarch.core import CoreOptions, MCDCore
from repro.uarch.native import load_hotpath
from repro.workloads.catalog import get_benchmark

#: Compute-bound, phased-FP, memory-bound, streaming and pointer-chase
#: representatives — the hot path's behaviour differs across them.
HOTPATH_BENCHMARKS = ["adpcm", "epic", "gcc", "swim", "mcf"]

#: Required speedup of the compiled (native) path over the generator
#: path: the acceptance floor.
NATIVE_FLOOR = 3.0


def _single_run(bench, trace, time_warmup: bool):
    """One warmed run over ``trace``; returns (CoreResult, seconds)."""
    options = CoreOptions(
        mcd=True,
        seed=1,
        interval_instructions=bench.interval_instructions,
    )
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=AttackDecayController(SCALED_OPERATING_POINT),
        options=options,
    )
    start = time.perf_counter()
    core.warm_up(trace, limit=trace.total_instructions)
    if not time_warmup:
        start = time.perf_counter()
    result = core.run()
    return result, time.perf_counter() - start


def _best_of(bench, trace, repeats: int = 3):
    """Fastest of ``repeats`` timed runs (noise-robust)."""
    best = None
    result = None
    for _ in range(repeats):
        result, elapsed = _single_run(bench, trace, time_warmup=False)
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def run_bench(check_floor: bool = False) -> dict:
    """Measure both paths on every benchmark; returns the saved payload."""
    scale = benchmark_scale()
    names = quick_benchmarks(default=HOTPATH_BENCHMARKS)
    native = load_hotpath() is not None
    if check_floor and not native:
        raise SystemExit(
            "bench_engine_hotpath: --check-floor needs the native loop, "
            "but no C compiler is available"
        )
    line_shift = ProcessorConfig().line_bytes.bit_length() - 1

    rows = []
    total_instr = 0
    total_gen = 0.0
    total_comp = 0.0
    for name in names:
        bench = get_benchmark(name)
        generator_trace = bench.build_trace(scale=scale)
        compiled = compiled_trace_for(bench, scale=scale, line_shift=line_shift)
        gen_result, gen_s = _best_of(bench, generator_trace)
        comp_result, comp_s = _best_of(bench, compiled)
        assert summarize(comp_result).to_dict() == summarize(gen_result).to_dict(), (
            f"{name}: compiled path diverged from the generator path"
        )
        instructions = gen_result.instructions
        total_instr += instructions
        total_gen += gen_s
        total_comp += comp_s
        rows.append(
            {
                "benchmark": name,
                "instructions": instructions,
                "generator_ips": instructions / gen_s,
                "compiled_ips": instructions / comp_s,
                "speedup": gen_s / comp_s,
            }
        )

    aggregate = {
        "generator_ips": total_instr / total_gen,
        "compiled_ips": total_instr / total_comp,
        "speedup": total_gen / total_comp,
        "native": native,
        "scale": scale,
    }

    print("\nEngine hot path (instructions/sec, best of 3):")
    for row in rows:
        print(
            f"  {row['benchmark']:8s} generator {row['generator_ips']:>11,.0f}"
            f"  compiled {row['compiled_ips']:>12,.0f}"
            f"  speedup {row['speedup']:5.1f}x"
        )
    print(
        f"  {'TOTAL':8s} generator {aggregate['generator_ips']:>11,.0f}"
        f"  compiled {aggregate['compiled_ips']:>12,.0f}"
        f"  speedup {aggregate['speedup']:5.1f}x"
        f"  (native loop: {native})"
    )

    payload = save_bench("bench_engine_hotpath", runs=rows, aggregate=aggregate)

    if check_floor:
        assert aggregate["speedup"] >= NATIVE_FLOOR, (
            f"compiled hot path is {aggregate['speedup']:.2f}x the generator "
            f"path; expected >= {NATIVE_FLOOR}x"
        )
    return payload


def test_engine_hotpath():
    # The floor is the point of this bench: without the native loop it
    # fails loudly instead of passing on the generator path alone.
    run_bench(check_floor=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-floor",
        action="store_true",
        help=f"fail unless compiled (native) >= {NATIVE_FLOOR}x generator",
    )
    args = parser.parse_args(argv)
    run_bench(check_floor=args.check_floor)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
