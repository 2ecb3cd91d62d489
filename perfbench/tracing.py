"""Per-layer spans for the benchmark's traced run.

The traced run wraps the public calls into each program layer from
here, from outside the program: every wrapper opens a span around the
call it replaces.  A span's *self time* is its duration minus the time
its child spans cover in the same thread, so the native compute span
excludes the Python callbacks it makes, and the trace-lookup span
excludes the derive work beneath it.  Spans are accumulated per thread
(no lock on the hot path) and merged when the pass ends.

Only the traced process imports this module; the untraced passes that
give the end-to-end numbers run the program unwrapped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter


class _ThreadState:
    """One thread's open spans and accumulated totals."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, child_seconds]``.
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Seconds covered by this thread's outermost spans.
        self.covered_s = 0.0


class Tracer:
    """Span accumulator; wrappers record only while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def inside(self, name: str) -> bool:
        """Whether the calling thread has a ``name`` span open."""
        return any(frame[0] == name for frame in self._state().stack)

    def count(self, name: str) -> None:
        """Add one to the calling thread's counter ``name``."""
        if self.active:
            self._state().counts[name] += 1

    def wrap(self, fn, name: str):
        """``fn`` wrapped in a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            frame = [name, 0.0]
            state.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                state.stack.pop()
                state.self_s[name] += elapsed - frame[1]
                state.calls[name] += 1
                if state.stack:
                    state.stack[-1][1] += elapsed
                else:
                    state.covered_s += elapsed

        return spanned

    def totals(self) -> dict:
        """Merged totals over every thread that recorded a span."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        counts: Counter = Counter()
        covered = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            self_s.update(state.self_s)
            calls.update(state.calls)
            counts.update(state.counts)
            covered += state.covered_s
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(counts),
            "covered_s": covered,
        }


def _patch_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``.

    Functions imported with ``from x import f`` live on in each
    importer's namespace, so patching the defining module alone would
    miss the call sites that matter.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, hotpath) -> None:
    """Wrap the public entry points of every traced layer.

    Every name is looked up directly, so a rename in the program makes
    the traced run fail with an ``AttributeError`` instead of silently
    reporting zeros.
    """
    from repro.execution.bus import EventBus
    from repro.experiments.cache import CacheStore
    from repro.experiments.executor import ExecutionContext
    import repro.metrics.summary as summary_mod
    import repro.sim.engine as engine
    from repro.sim.experiment import ExperimentRunner
    import repro.uarch.compiled_trace as compiled_trace
    from repro.uarch.compiled_trace import TraceStore
    from repro.uarch.core import MCDCore
    from repro.workloads.catalog import BenchmarkSpec

    def method(cls, attr: str, name: str) -> None:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))

    def function(module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        _patch_everywhere(original, tracer.wrap(original, name))

    # workloads / uarch.compiled_trace: stage 1, trace derive.
    method(BenchmarkSpec, "build_trace", "workloads.build_trace")
    function(compiled_trace, "trace_columns", "uarch.compiled_trace.trace_columns")
    function(compiled_trace, "from_columns", "uarch.compiled_trace.from_columns")
    method(TraceStore, "load_columns", "uarch.compiled_trace.store_load")
    method(TraceStore, "store", "uarch.compiled_trace.store_write")

    # sim.engine: trace lookup, per-run and batched entry points.
    function(engine, "compiled_trace_for", "sim.engine.trace_lookup")
    function(engine, "run_specs_batch", "sim.engine.run_specs_batch")
    spanned_run_spec = tracer.wrap(engine.run_spec, "sim.engine.run_spec")

    def run_spec(spec):
        # A batch that falls back runs its specs one by one through here.
        if tracer.active and tracer.inside("sim.engine.run_specs_batch"):
            tracer.count("sim.engine.batch_fallbacks")
        return spanned_run_spec(spec)

    _patch_everywhere(engine.run_spec, run_spec)

    # uarch.core: stages 2-4 and 6 (build, warm-up, marshal, writeback).
    method(MCDCore, "__init__", "uarch.core.build")
    method(MCDCore, "warm_up", "uarch.core.warm_up")
    method(MCDCore, "restore_warm_state", "uarch.core.warm_restore")
    method(MCDCore, "warm_state_snapshot", "uarch.core.warm_snapshot")
    marshal = tracer.wrap(MCDCore.native_marshal, "uarch.core.marshal")

    def native_marshal(core):
        args, finish = marshal(core)
        # The C loop calls back into Python for jitter refills and
        # interval rollovers; spanning the callbacks takes them out of
        # the compute span's self time.
        args["refill"] = tracer.wrap(args["refill"], "clocks.jitter.refill")
        args["rollover"] = tracer.wrap(args["rollover"], "uarch.native.rollover")
        return args, tracer.wrap(finish, "uarch.core.writeback")

    MCDCore.native_marshal = native_marshal

    # uarch.native: stage 5, the C loop (the GIL is released inside).
    hotpath.run_compiled = tracer.wrap(hotpath.run_compiled, "uarch.native.compute")
    hotpath.run_batch = tracer.wrap(hotpath.run_batch, "uarch.native.compute")

    # metrics: stage 7.
    function(summary_mod, "summarize", "metrics.summarize")

    # experiments: stage 8, result-cache I/O, plus the per-scenario
    # context entry points that own everything above.
    load = tracer.wrap(CacheStore.load, "experiments.cache.load")

    def cache_load(store, key):
        payload = load(store, key)
        if payload is not None:
            tracer.count("experiments.cache.load_hits")
        return payload

    CacheStore.load = cache_load
    method(CacheStore, "store", "experiments.cache.store")
    method(ExecutionContext, "run", "experiments.context.run")
    method(ExecutionContext, "run_batch", "experiments.context.run_batch")

    # sim.paper_results: the matched Global(...) bisections.
    method(ExperimentRunner, "global_suite_matched", "sim.paper_results.global_search")

    # execution: event publication.
    method(EventBus, "publish", "execution.bus.publish")
