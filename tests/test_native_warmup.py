"""The C loop's warm-up replay against the generator oracle.

The native loop allocates its own caches, predictor tables and BTB and
replays the warm-up inside the compute stage; the Python objects are
only built by the generator loop and the Python replay.  Every case
here runs the same spec both ways and requires byte-identical
:class:`~repro.metrics.summary.RunSummary` values (their ``repr``s
compared), across geometries chosen so evictions are heavy, with and
without warm-up, with a partial warm-up, with a warm-up over a
different trace, and through a mixed ``run_specs_batch`` cell.
"""

from __future__ import annotations

import logging
import types

import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.errors import SimulationError
from repro.metrics.summary import summarize
from repro.sim import engine
from repro.sim.engine import (
    SimulationSpec,
    compiled_trace_for,
    run_spec,
    run_specs_batch,
    scaled_mcd_config,
)
from repro.uarch import native
from repro.uarch.caches import SetAssociativeCache
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import BENCHMARKS, get_benchmark

pytestmark = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)

SCALE = 0.02

#: Geometries that stress the replay: LRU order in 1-way and 4-way L1s,
#: and a 16 KB L2 plus a 16-set BTB that evict on almost every miss.
GEOMETRIES = {
    "default": ProcessorConfig(),
    "l1-1way": ProcessorConfig(l1i_ways=1, l1d_ways=1),
    "l1-4way": ProcessorConfig(l1i_ways=4, l1d_ways=4),
    "small-l2-btb": ProcessorConfig(l2_kb=16, btb_sets=16),
}


def _summary(result) -> str:
    return repr(summarize(result))


def _spec(name, processor, path="auto", **kwargs) -> SimulationSpec:
    return SimulationSpec(
        benchmark=name, scale=SCALE, processor=processor, path=path, **kwargs
    )


def _core(trace, processor=None, seed=3) -> MCDCore:
    bench_interval = get_benchmark("gcc").interval_instructions
    return MCDCore(
        processor=processor or ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=AttackDecayController(SCALED_OPERATING_POINT),
        options=CoreOptions(seed=seed, interval_instructions=bench_interval),
    )


def _python_tables_built(core: MCDCore) -> bool:
    predictor = core.predictor
    return (
        "_history" in vars(predictor)
        or "_table" in vars(predictor.btb)
        or _slot_set(core.hierarchy.l2)
    )


def _slot_set(cache: SetAssociativeCache) -> bool:
    # The slot descriptor reads without falling back to __getattr__,
    # which would allocate the sets.
    try:
        SetAssociativeCache._sets.__get__(cache)
    except AttributeError:
        return False
    return True


class TestCatalogGeometries:
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_native_warm_up_matches_generator(self, geometry):
        processor = GEOMETRIES[geometry]
        for name in sorted(BENCHMARKS):
            fast = run_spec(_spec(name, processor, path="native"))
            oracle = run_spec(_spec(name, processor, path="generator"))
            assert _summary(fast) == _summary(oracle), (geometry, name)

    @pytest.mark.parametrize("name", ["gcc", "mcf", "swim"])
    def test_without_warm_up(self, name):
        processor = GEOMETRIES["small-l2-btb"]
        fast = run_spec(_spec(name, processor, path="native", warmup=False))
        oracle = run_spec(_spec(name, processor, path="generator", warmup=False))
        warm = run_spec(_spec(name, processor, path="native"))
        assert _summary(fast) == _summary(oracle)
        assert _summary(fast) != _summary(warm)


class TestCoreWarmUp:
    def _traces(self, name="gcc", processor=None):
        processor = processor or ProcessorConfig()
        bench = get_benchmark(name)
        shift = processor.line_bytes.bit_length() - 1
        compiled = compiled_trace_for(bench, scale=SCALE, line_shift=shift)
        return compiled, bench.build_trace(scale=SCALE)

    @pytest.mark.parametrize("fraction", [0, 1, 3])
    def test_partial_warm_up(self, fraction):
        processor = GEOMETRIES["l1-4way"]
        compiled, lazy = self._traces(processor=processor)
        limit = compiled.n * fraction // 7
        fast = _core(compiled, processor)
        assert fast.warm_up(compiled, limit) == limit
        oracle = _core(lazy, processor)
        assert oracle.warm_up(lazy, limit) == limit
        fast_result = fast.run(path="native")
        assert _summary(fast_result) == _summary(oracle.run())
        assert not _python_tables_built(fast)

    def test_limit_past_the_trace_replays_it_all(self):
        compiled, lazy = self._traces("adpcm")
        fast = _core(compiled)
        assert fast.warm_up(compiled, compiled.n + 100) == compiled.n
        oracle = _core(lazy)
        assert oracle.warm_up(lazy, compiled.n + 100) == compiled.n
        assert _summary(fast.run()) == _summary(oracle.run())

    def test_other_trace_takes_the_python_replay(self):
        compiled, lazy = self._traces("gcc")
        other, other_lazy = self._traces("mcf")
        fast = _core(compiled)
        replayed = fast.warm_up(other, other.n)
        assert replayed == other.n
        assert _python_tables_built(fast)
        with pytest.raises(SimulationError):
            fast.native_marshal()
        oracle = _core(lazy)
        oracle.warm_up(other_lazy, other.n)
        assert _summary(fast.run()) == _summary(oracle.run())

    def test_deferred_warm_up_replays_for_the_generator_loop(self):
        compiled, lazy = self._traces("epic")
        fast = _core(compiled)
        fast.warm_up(compiled, compiled.n)
        oracle = _core(lazy)
        oracle.warm_up(lazy, compiled.n)
        assert _summary(fast.run(path="generator")) == _summary(oracle.run())

    def test_native_run_builds_no_python_tables(self):
        compiled, _ = self._traces("gcc")
        core = _core(compiled)
        core.warm_up(compiled, compiled.n)
        result = core.run()
        assert not _python_tables_built(core)
        # The counters still fold back into the Python stats objects.
        assert core.hierarchy.l1d.stats.accesses > 0
        assert core.predictor.stats.lookups == result.branch_lookups > 0

    def test_snapshot_round_trip_between_generator_cores(self):
        _, lazy = self._traces("gsm")
        donor = _core(lazy)
        donor.warm_up(lazy, lazy.total_instructions)
        snapshot = donor.warm_state_snapshot()
        clone = _core(lazy)
        clone.restore_warm_state(snapshot)
        reference = _core(lazy)
        reference.warm_up(lazy, lazy.total_instructions)
        donor_result = _summary(donor.run())
        assert _summary(clone.run()) == donor_result
        assert _summary(reference.run()) == donor_result


def _mixed_specs() -> list[SimulationSpec]:
    """A batch cell mixing benchmarks, geometries and run options."""
    specs = []
    for i, name in enumerate(["gcc", "mcf", "adpcm", "swim", "gsm", "gcc"]):
        geometry = sorted(GEOMETRIES)[i % len(GEOMETRIES)]
        specs.append(
            _spec(
                name,
                GEOMETRIES[geometry],
                seed=1 + i,
                mcd=i != 4,
                warmup=i != 2,
                controller=(
                    AttackDecayController(SCALED_OPERATING_POINT)
                    if i % 2 == 0
                    else None
                ),
            )
        )
    return specs


class TestBatch:
    def test_mixed_cell_matches_per_run(self):
        batched = run_specs_batch(_mixed_specs())
        per_run = [run_spec(spec) for spec in _mixed_specs()]
        assert [_summary(r) for r in batched] == [_summary(r) for r in per_run]

    def test_fallback_logs_a_warning_once_per_type(self, monkeypatch, caplog):
        real = native.load_hotpath()

        def failing_batch(args_vector):
            raise RuntimeError("injected batch failure")

        fake = types.SimpleNamespace(
            run_batch=failing_batch, run_compiled=real.run_compiled
        )
        monkeypatch.setattr(native, "load_hotpath", lambda: fake)
        monkeypatch.setattr(engine, "_FALLBACK_WARNED", set())
        with caplog.at_level(logging.DEBUG, logger="repro.sim.engine"):
            first = run_specs_batch(_mixed_specs()[:2])
            run_specs_batch(_mixed_specs()[:2])
        warnings = [
            r for r in caplog.records
            if r.levelno == logging.WARNING and "batched native run failed" in r.message
        ]
        assert len(warnings) == 1
        assert "injected batch failure" in warnings[0].message
        assert warnings[0].exc_info is not None
        assert any(
            r.levelno == logging.DEBUG and "batched native run failed" in r.message
            for r in caplog.records
        )
        # The fallback still returns the per-run results.
        expected = [run_spec(spec) for spec in _mixed_specs()[:2]]
        assert [_summary(r) for r in first] == [_summary(r) for r in expected]
