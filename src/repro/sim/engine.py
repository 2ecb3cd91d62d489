"""Single-run simulation driver.

:class:`SimulationSpec` names everything that determines a run —
benchmark, processor/MCD configuration, clocking mode, controller — and
:func:`run_spec` executes it.  Specs are deterministic: the same spec
always produces the same :class:`~repro.uarch.core.CoreResult`.

A spec runs over the benchmark's *compiled* trace
(:mod:`repro.uarch.compiled_trace`): the workload is generated once,
content-hash-cached on disk next to the experiment result cache, and
every subsequent run of the same (benchmark, scale, seed) — across
processes, orchestrator workers and sessions — reuses the columnar
form.  The native C loop over it is byte-identical to the
per-instruction generator path (``path="generator"``), just faster;
see ``benchmarks/bench_engine_hotpath.py`` for the measured ratio.
Without the C loop a compiled trace runs through the generator loop.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.concurrency import SingleFlight
from repro.config.mcd import Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.control.base import FrequencyController
from repro.errors import ExperimentError
from repro.uarch.compiled_trace import (
    CompiledTrace,
    TraceStore,
    from_columns,
    trace_columns,
)
from repro.uarch.core import CoreOptions, CoreResult, MCDCore
from repro.workloads.catalog import BenchmarkSpec, get_benchmark

logger = logging.getLogger(__name__)

#: Regulator slew rate used with the scaled catalog workloads.  The
#: paper's 49.1 ns/MHz makes a full-range transition take ~3.7 of its
#: 10,000-instruction control intervals; our catalog compresses run
#: length (and interval length) by roughly 20-30x, so the slew rate is
#: compressed alongside to preserve the ratio of actuation delay to
#: control interval — otherwise the regulator, not the algorithm, would
#: dominate the scaled results (docs/architecture.md, Modelling
#: substitutions #2).
SCALED_SLEW_NS_PER_MHZ = 1.5


def scaled_mcd_config() -> MCDConfig:
    """Table 1 electricals with the time-compression-matched slew rate."""
    return MCDConfig(slew_ns_per_mhz=SCALED_SLEW_NS_PER_MHZ)


#: Byte budget of the in-process compiled-trace cache.  The 30-trace
#: catalog's compiled columns total 5.3 MiB at scale 0.02, 53.3 MiB at
#: 0.2, 133.2 MiB at 0.5 and 266.4 MiB at 1.0 (the largest single
#: trace is 14.65 MiB at 1.0), so 160 MiB holds the whole catalog up to
#: scale 0.5: a cold Table 6 then builds or loads each trace once.
TRACE_CACHE_BYTES = 160 * 2**20


def _trace_bytes(trace: CompiledTrace) -> int:
    """Bytes held by a compiled trace's columns."""
    return sum(a.nbytes for a in trace.arrays.values())


class TraceCache:
    """Process-wide, thread-safe, byte-bounded cache of compiled traces.

    Keyed by (content hash, line shift); one instance is shared by
    every run in the process, so N thread-pool workers sweeping the
    same benchmarks load and compile each trace once instead of N
    times.  Lookups are LRU and evict the least recently used traces
    while their columns exceed ``budget_bytes``; the newest trace is
    always kept, even alone over budget.  Concurrent misses on one key
    are single-flighted — the first thread builds while the others
    wait on an event and then reuse the result, because building a
    trace (generate + columnise) is exactly the expensive work the
    cache exists to avoid repeating.
    """

    def __init__(self, budget_bytes: int = TRACE_CACHE_BYTES) -> None:
        self.budget_bytes = budget_bytes
        self._items: OrderedDict[tuple[str, int], CompiledTrace] = OrderedDict()
        self._bytes = 0
        self._flight = SingleFlight()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key: tuple[str, int], build) -> CompiledTrace:
        """The cached trace under ``key``, building it at most once."""

        def lookup():
            # Runs under the flight lock, which guards _items too.
            item = self._items.get(key)
            if item is not None:
                self._items.move_to_end(key)
                self.hits += 1
            return item

        def publish(item):
            self._items[key] = item
            self._bytes += _trace_bytes(item)
            while self._bytes > self.budget_bytes and len(self._items) > 1:
                _, evicted = self._items.popitem(last=False)
                self._bytes -= _trace_bytes(evicted)
                self.evictions += 1
            self.misses += 1

        item, _ = self._flight.run(key, lookup, build, publish)
        return item

    def clear(self) -> None:
        """Drop every cached trace (testing/maintenance hook)."""
        with self._flight.lock:
            self._items.clear()
            self._bytes = 0


#: Shared on-disk store of compiled traces plus the process-wide
#: compiled-trace cache above.  The store's column memo is kept small:
#: for a single cache-line geometry the TraceCache already answers
#: repeat lookups, so the memo only needs to cover the re-derivation
#: window (same key, different line_shift, or a TraceCache eviction)
#: without pinning every benchmark's raw columns in memory twice.
_TRACE_STORE = TraceStore(memo_entries=2)
_TRACE_MEMO = TraceCache()


def compiled_trace_for(
    bench: BenchmarkSpec,
    scale: float = 1.0,
    line_shift: int = 6,
    seed_offset: int = 0,
) -> CompiledTrace:
    """The benchmark's compiled trace, through cache layers.

    Lookup order: the process-wide :class:`TraceCache`, then the
    on-disk ``TraceStore`` (disabled by ``REPRO_CACHE=0``), then
    generate-and-compile.  The content-hash key joins the full trace
    identity
    (:meth:`~repro.workloads.catalog.BenchmarkSpec.trace_payload`),
    ``COMPILED_TRACE_VERSION``, and the experiment cache's
    ``CACHE_VERSION``, so bumping either version invalidates stale
    compiled traces alongside stale results.  The cache line geometry
    stays *out* of the disk key — the store persists only the
    geometry-independent base columns and re-derives for
    ``line_shift`` on load, so one stored trace serves every geometry;
    only the in-process cache is keyed per shift.

    Thread-safe: concurrent callers for one trace wait on a single
    build, and the returned instance is safely shared across threads
    (every execution path treats it read-only).
    """
    # Deferred import: repro.experiments imports this module.
    from repro.experiments.cache import CACHE_VERSION

    payload = bench.trace_payload(scale, seed_offset)
    payload["cache_version"] = CACHE_VERSION
    key = _TRACE_STORE.key(payload)

    def build() -> CompiledTrace:
        from repro.experiments.executor import cache_enabled

        use_disk = cache_enabled()
        compiled = _TRACE_STORE.load(key, line_shift) if use_disk else None
        if compiled is None:
            trace = bench.build_trace(scale=scale, seed_offset=seed_offset)
            columns = trace_columns(trace)
            if use_disk:
                _TRACE_STORE.store(key, columns)
            compiled = from_columns(columns, line_shift)
        return compiled

    return _TRACE_MEMO.get_or_build((key, line_shift), build)


@dataclass
class SimulationSpec:
    """A fully specified simulation run.

    Parameters
    ----------
    benchmark:
        Catalog name (see :mod:`repro.workloads.catalog`).
    mcd:
        MCD clocking (True) or the fully synchronous baseline (False).
    controller:
        Frequency controller, or None for fixed initial frequencies.
    global_frequency_mhz:
        When set, every on-chip domain starts (and stays, absent a
        controller) at this frequency — the global-DVFS operating
        point.
    scale:
        Workload length scale (1.0 = the catalog's scaled windows).
    seed:
        Clock phase/jitter seed (and trace seed offset).
    record_intervals:
        Keep the per-interval log (Figures 2/3).
    warmup:
        Replay the head of the trace through predictor/caches before
        timing, approximating the paper's warm mid-execution windows.
    path:
        Explicit execution-path selection: ``"auto"`` (default) runs
        the native C loop over the compiled trace when it loads, else
        the generator loop over the same compiled trace; ``"native"``
        requires the C loop; ``"generator"`` forces the per-instruction
        reference path over the lazy generator trace.  All paths are
        byte-identical — this knob exists for equivalence tests and
        the path benchmarks (``benchmarks/bench_control_loop.py``).
    memory_tracks_global:
        Scale main-memory latency with ``global_frequency_mhz``
        (latency constant in processor cycles, SimpleScalar-style).
        The paper's global-DVFS analysis exhibits exactly this
        behaviour — every application's run time stretches roughly
        proportionally with the global clock, yielding the reported
        power/performance ratio of ~2 — so the ``Global(...)`` rows
        reproduce it.  MCD runs always keep the external domain at
        fixed wall-clock latency (it is independently clocked at
        maximum, Section 2).
    """

    benchmark: str
    mcd: bool = True
    controller: FrequencyController | None = None
    global_frequency_mhz: float | None = None
    scale: float = 1.0
    seed: int = 1
    record_intervals: bool = False
    warmup: bool = True
    memory_tracks_global: bool = False
    path: str = "auto"
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    mcd_config: MCDConfig = field(default_factory=scaled_mcd_config)


def _build_core(spec: SimulationSpec) -> tuple[MCDCore, object]:
    """Build the (cold) core and trace one spec describes."""
    if spec.path not in ("auto", "native", "generator"):
        raise ExperimentError(
            f"unknown execution path {spec.path!r}; "
            "expected auto, native or generator"
        )
    bench = get_benchmark(spec.benchmark)
    if spec.path != "generator":
        line_shift = spec.processor.line_bytes.bit_length() - 1
        trace = compiled_trace_for(bench, scale=spec.scale, line_shift=line_shift)
    else:
        trace = bench.build_trace(scale=spec.scale)
    initial = None
    processor = spec.processor
    if spec.global_frequency_mhz is not None:
        f = spec.global_frequency_mhz
        cfg = spec.mcd_config
        if not cfg.min_frequency_mhz <= f <= cfg.max_frequency_mhz:
            raise ExperimentError(f"global frequency {f} MHz out of range")
        initial = {
            Domain.FRONT_END: f,
            Domain.INTEGER: f,
            Domain.FLOATING_POINT: f,
            Domain.LOAD_STORE: f,
        }
        if spec.memory_tracks_global:
            from dataclasses import replace

            processor = replace(
                processor,
                memory_latency_ns=processor.memory_latency_ns
                * cfg.max_frequency_mhz
                / f,
            )
    options = CoreOptions(
        mcd=spec.mcd,
        seed=spec.seed,
        interval_instructions=bench.interval_instructions,
        record_interval_trace=spec.record_intervals,
        initial_frequencies_mhz=initial,
    )
    core = MCDCore(
        processor=processor,
        mcd_config=spec.mcd_config,
        trace=trace,
        controller=spec.controller,
        options=options,
    )
    return core, trace


def run_spec(spec: SimulationSpec) -> CoreResult:
    """Execute one simulation run."""
    core, trace = _build_core(spec)
    if spec.warmup:
        # The timed trace doubles as the warm-up stream: the C loop
        # replays a compiled trace's head itself, and a generator
        # trace is deterministic (each blocks() call replays it from
        # the seed), so building a second copy would only duplicate
        # the phase bookkeeping.
        core.warm_up(trace, limit=trace.total_instructions)
    return core.run(path=spec.path)


class _NotBatchable(Exception):
    """Internal: this spec vector must run through run_spec per run."""


#: Exception types whose batch fallback this process has already
#: logged at WARNING; later fallbacks of the same type log at DEBUG.
_FALLBACK_WARNED: set[type] = set()


def run_specs_batch(specs: list[SimulationSpec]) -> list[CoreResult]:
    """Execute several runs through one native ``run_batch`` call.

    Byte-identity contract: the returned list equals
    ``[run_spec(s) for s in specs]`` exactly — same ``CoreResult``
    values, same final controller/regulator diagnostics.  The batch
    amortises the C entry and the GIL release over the whole vector:
    every run, its warm-up replay included, computes under one
    release.  Each run warms up on its own: a C replay of a whole
    scale-1.0 trace costs a few milliseconds (3.3 ms for gcc's 120,000
    instructions, table allocation included), less than copying warm
    state between the cell's runs would.

    Anything that cannot take the native compiled path (no C loop,
    generator specs) and any error during batch assembly or execution
    falls back to per-run :func:`run_spec` execution, which re-raises
    per-spec errors with their normal semantics.  The first fallback
    per process and exception type is logged at WARNING with the
    exception, so a batch path that keeps failing does not quietly
    turn every cell into per-run execution.
    """
    from repro.uarch.native import load_hotpath

    if len(specs) <= 1:
        return [run_spec(spec) for spec in specs]
    hotpath = load_hotpath()
    if hotpath is None or getattr(hotpath, "run_batch", None) is None:
        return [run_spec(spec) for spec in specs]
    try:
        cores = []
        args_vector = []
        finishes = []
        for spec in specs:
            if spec.path == "generator":
                raise _NotBatchable
            core, trace = _build_core(spec)
            if spec.warmup:
                core.warm_up(trace, limit=trace.total_instructions)
            args, finish = core.native_marshal()
            cores.append(core)
            args_vector.append(args)
            finishes.append(finish)
        raw = hotpath.run_batch(args_vector)
        return [finish(res) for finish, res in zip(finishes, raw)]
    except _NotBatchable:
        return [run_spec(spec) for spec in specs]
    except Exception as exc:
        # A failed batch (callback exception, trace-exhausted run,
        # marshal error) falls back to per-run execution on fresh
        # cores: controllers re-``begin`` from scratch, so results
        # stay byte-identical and the failing spec raises with its
        # own per-run error semantics.
        first = type(exc) not in _FALLBACK_WARNED
        _FALLBACK_WARNED.add(type(exc))
        logger.log(
            logging.WARNING if first else logging.DEBUG,
            "batched native run failed (%s: %s); re-running per run",
            type(exc).__name__,
            exc,
            exc_info=True,
        )
        return [run_spec(spec) for spec in specs]
