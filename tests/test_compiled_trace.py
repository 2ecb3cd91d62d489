"""Compiled-trace correctness: representation, store, and equivalence.

The load-bearing guarantee of the trace compilation layer is that a
core over a compiled trace — native C loop, or the generator loop when
the C loop is unavailable — is *byte-identical* to the per-instruction
generator reference path — every benchmark, every clocking mode, every
execution backend.  These tests pin that, plus the columnar
representation itself and the on-disk store.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.errors import SimulationError
from repro.metrics.summary import summarize
from repro.sim.engine import (
    SimulationSpec,
    compiled_trace_for,
    run_spec,
    scaled_mcd_config,
)
from repro.uarch import native
from repro.uarch.compiled_trace import TraceStore, compile_trace, trace_columns
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import BENCHMARKS, get_benchmark

LINE_SHIFT = ProcessorConfig().line_bytes.bit_length() - 1
SCALE = 0.05


def _run(trace, bench, mcd=True, controller=True, record=False):
    options = CoreOptions(
        mcd=mcd,
        seed=2,
        interval_instructions=bench.interval_instructions,
        record_interval_trace=record,
    )
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=AttackDecayController(SCALED_OPERATING_POINT)
        if controller
        else None,
        options=options,
    )
    core.warm_up(trace, limit=trace.total_instructions)
    return core.run()


@pytest.fixture
def no_native(monkeypatch):
    """Disable the native extension: compiled cores take the generator loop."""
    monkeypatch.setattr(native, "_cached", None)
    monkeypatch.setattr(native, "_attempted", True)
    yield


# ---------------------------------------------------------------- columns
class TestRepresentation:
    def test_columns_match_blocks(self):
        trace = get_benchmark("epic").build_trace(scale=SCALE)
        kinds, src1, src2, pcs, addrs, taken, targets = trace_columns(trace)
        flat = {"kinds": [], "src1": [], "pcs": [], "addrs": [], "taken": [], "targets": []}
        for block in trace.blocks():
            flat["kinds"] += block.kinds
            flat["src1"] += block.src1
            flat["pcs"] += block.pcs
            flat["addrs"] += block.addrs
            flat["taken"] += block.taken
            flat["targets"] += block.targets
        assert kinds.tolist() == flat["kinds"]
        assert src1.tolist() == flat["src1"]
        assert pcs.tolist() == flat["pcs"]
        assert addrs.tolist() == flat["addrs"]
        assert [bool(x) for x in taken.tolist()] == flat["taken"]
        assert targets.tolist() == flat["targets"]

    def test_compiled_trace_is_a_trace_stream(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        assert compiled.total_instructions == trace.total_instructions
        blocks = list(compiled.blocks())
        assert sum(len(b) for b in blocks) == compiled.n

    def test_newline_marks_fetch_line_changes(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        lines = [pc >> LINE_SHIFT for pc in compiled.arrays["pcs"].tolist()]
        expect = [1] + [int(lines[i] != lines[i - 1]) for i in range(1, compiled.n)]
        assert compiled.arrays["newline"].tolist() == expect

    def test_pointers_resolve_dependencies(self):
        trace = get_benchmark("gsm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        arrays = compiled.arrays
        src1 = arrays["src1"].tolist()
        src2 = arrays["src2"].tolist()
        p1 = arrays["p1"].tolist()
        p2 = arrays["p2"].tolist()
        assert any(p1) and any(p2)
        for i in range(compiled.n):
            seq = i + 1
            assert p1[i] == (seq - src1[i] if 0 < src1[i] <= i else 0)
            assert p2[i] == (seq - src2[i] if 0 < src2[i] <= i else 0)

    def test_arrays_are_int64_and_blocks_are_private(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        assert all(a.dtype == np.int64 for a in compiled.arrays.values())
        assert all(len(a) == compiled.n for a in compiled.arrays.values())
        (first,) = compiled.blocks()
        (second,) = compiled.blocks()
        assert first == second
        assert first.kinds is not second.kinds
        assert first.src1 == trace_columns(trace)[1].tolist()

    def test_line_shift_mismatch_rejected(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT + 1)
        with pytest.raises(SimulationError):
            MCDCore(ProcessorConfig(), scaled_mcd_config(), compiled)


# ------------------------------------------------------------------ store
class TestTraceStore:
    def test_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = get_benchmark("epic").build_trace(scale=SCALE)
        columns = trace_columns(trace)
        key = store.key({"benchmark": "epic", "scale": SCALE})
        assert store.load(key, LINE_SHIFT) is None
        store.store(key, columns)
        loaded = store.load(key, LINE_SHIFT)
        fresh = compile_trace(trace, LINE_SHIFT)
        assert loaded.arrays.keys() == fresh.arrays.keys()
        for name, column in fresh.arrays.items():
            assert np.array_equal(loaded.arrays[name], column), name

    def test_disabled_store_misses(self, tmp_path):
        store = TraceStore(tmp_path, enabled=False)
        columns = trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE))
        key = store.key({"x": 1})
        store.store(key, columns)
        assert store.load(key, LINE_SHIFT) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key({"x": 2})
        (tmp_path / f"{key}.npz").write_bytes(b"not an npz")
        assert store.load(key, LINE_SHIFT) is None

    def test_keys_separate_identities(self):
        store = TraceStore()
        a = store.key({"benchmark": "epic", "scale": 1.0})
        b = store.key({"benchmark": "epic", "scale": 0.5})
        assert a != b


class TestTraceStoreCorruption:
    """Injected on-disk damage must mean recompute, never a crash.

    A truncated ``.npz`` raises ``zipfile.BadZipFile`` (not OSError)
    from ``np.load`` — the exact failure a killed orchestrator worker
    or full disk leaves behind — so these tests damage real entries in
    every representative way and assert the store falls back to a miss
    and the engine regenerates identical results.
    """

    def _stored(self, tmp_path):
        store = TraceStore(tmp_path)
        columns = trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE))
        key = store.key({"benchmark": "adpcm", "scale": SCALE})
        store.store(key, columns)
        return store, key, tmp_path / f"{key}.npz"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.load(key, LINE_SHIFT) is None

    def test_zero_length_entry_is_a_miss_then_overwritten(self, tmp_path):
        # What a power loss can leave behind now that the store skips
        # its fsyncs.
        store, key, path = self._stored(tmp_path)
        path.write_bytes(b"")
        assert store.load(key, LINE_SHIFT) is None
        columns = trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE))
        store.store(key, columns)
        assert path.stat().st_size > 0
        loaded = store.load(key, LINE_SHIFT)
        assert loaded is not None
        assert np.array_equal(loaded.arrays["pcs"], columns[3])

    def test_tail_truncated_entry_is_a_miss(self, tmp_path):
        # Cut inside the zip central directory rather than a member.
        store, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        assert store.load(key, LINE_SHIFT) is None

    def test_bitflipped_entry_is_a_miss_or_loads(self, tmp_path):
        # Flipping bytes mid-archive corrupts a member's zlib stream.
        store, key, path = self._stored(tmp_path)
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        for i in range(mid, mid + 64):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        store.load(key, LINE_SHIFT)  # must not raise

    def test_missing_column_is_a_miss(self, tmp_path):
        import numpy as np

        store, key, path = self._stored(tmp_path)
        with np.load(path) as data:
            partial = {k: data[k] for k in list(data.files)[:-1]}
        np.savez(path, **partial)
        assert store.load(key, LINE_SHIFT) is None

    def test_mismatched_lengths_are_a_miss(self, tmp_path):
        import numpy as np

        store, key, path = self._stored(tmp_path)
        with np.load(path) as data:
            damaged = {k: data[k] for k in data.files}
        damaged["pcs"] = damaged["pcs"][:-5]
        np.savez(path, **damaged)
        assert store.load(key, LINE_SHIFT) is None

    def test_empty_file_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        path.write_bytes(b"")
        assert store.load(key, LINE_SHIFT) is None

    def test_engine_recomputes_through_corruption(self, tmp_path, monkeypatch):
        """End to end: corrupt the shared store entry, run_spec still works."""
        import repro.sim.engine as engine

        store = TraceStore(tmp_path)
        monkeypatch.setattr(engine, "_TRACE_STORE", store)
        monkeypatch.setattr(engine, "_TRACE_MEMO", type(engine._TRACE_MEMO)())
        spec = SimulationSpec(benchmark="adpcm", scale=SCALE, seed=2)
        first = summarize(run_spec(spec))
        entries = list(tmp_path.glob("*.npz"))
        assert entries, "run should have populated the store"
        for entry in entries:
            data = entry.read_bytes()
            entry.write_bytes(data[: len(data) // 3])
        monkeypatch.setattr(engine, "_TRACE_MEMO", type(engine._TRACE_MEMO)())
        again = summarize(run_spec(spec))
        assert again == first


class TestResultCacheCorruption:
    """CacheStore: binary garbage and truncation are misses, not crashes."""

    def test_binary_garbage_is_a_miss(self, tmp_path):
        from repro.experiments.cache import CacheStore

        store = CacheStore(tmp_path)
        key = store.key({"x": 1})
        store.store(key, {"value": 42})
        (tmp_path / f"{key}.json").write_bytes(b"\xff\xfe\x00garbage\x80")
        assert store.load(key) is None

    def test_truncated_json_is_a_miss(self, tmp_path):
        from repro.experiments.cache import CacheStore

        store = CacheStore(tmp_path)
        key = store.key({"x": 2})
        store.store(key, {"value": [1, 2, 3]})
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:10])
        assert store.load(key) is None

    def test_zero_length_entry_is_a_miss_then_overwritten(self, tmp_path):
        from repro.experiments.cache import CacheStore

        store = CacheStore(tmp_path)
        key = store.key({"x": 4})
        path = tmp_path / f"{key}.json"
        path.write_bytes(b"")
        assert store.load(key) is None
        store.store(key, {"value": 7})
        assert CacheStore(tmp_path).load(key) == {"value": 7}

    def test_wrong_shape_is_a_miss(self, tmp_path):
        from repro.experiments.cache import CacheStore

        store = CacheStore(tmp_path)
        key = store.key({"x": 3})
        (tmp_path / f"{key}.json").write_text("[1, 2, 3]")
        assert store.load(key) is None


# ------------------------------------------------------------ equivalence
class TestEquivalence:
    """Compiled and generator paths produce identical CoreResults."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_catalog_identical(self, name):
        bench = get_benchmark(name)
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        reference = _run(trace, bench, record=True)
        fast = _run(compiled, bench, record=True)
        assert asdict(fast) == asdict(reference)

    @pytest.mark.parametrize("name", ["epic", "mcf"])
    def test_generator_fallback_identical(self, name, no_native):
        bench = get_benchmark(name)
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        assert asdict(_run(compiled, bench)) == asdict(_run(trace, bench))

    def test_synchronous_baseline_identical(self):
        bench = get_benchmark("gcc")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        reference = _run(trace, bench, mcd=False)
        assert asdict(_run(compiled, bench, mcd=False)) == asdict(reference)

    def test_no_controller_identical(self):
        bench = get_benchmark("swim")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        reference = _run(trace, bench, controller=False)
        assert asdict(_run(compiled, bench, controller=False)) == asdict(reference)

    @pytest.mark.parametrize(
        "configuration",
        ["sync", "mcd_base", "attack_decay", "global@725.000"],
    )
    def test_registered_configurations_identical(self, configuration):
        from dataclasses import replace

        from repro.experiments import CONFIGURATIONS
        from repro.experiments.executor import ExecutionContext

        factory, parsed = CONFIGURATIONS.resolve(configuration)
        context = ExecutionContext(scale=SCALE, use_cache=False)
        spec = factory(context, "epic", scale=SCALE, seed=1, **parsed)
        assert isinstance(spec, SimulationSpec)
        fast = summarize(run_spec(replace(spec, path="auto"))).to_dict()
        reference = summarize(run_spec(replace(spec, path="generator"))).to_dict()
        assert fast == reference


# ------------------------------------------------------------- engine glue
class TestCompiledTraceFor:
    def test_memoised_within_process(self):
        bench = get_benchmark("adpcm")
        a = compiled_trace_for(bench, scale=SCALE, line_shift=LINE_SHIFT)
        b = compiled_trace_for(bench, scale=SCALE, line_shift=LINE_SHIFT)
        assert a is b

    def test_run_spec_uses_compiled_by_default(self):
        fast = run_spec(SimulationSpec(benchmark="adpcm", scale=SCALE))
        reference = run_spec(
            SimulationSpec(benchmark="adpcm", scale=SCALE, path="generator")
        )
        assert asdict(fast) == asdict(reference)
