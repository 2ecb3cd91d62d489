"""Free-threaded sweep engine: determinism, reentrancy, shared caches.

The thread-pool backend only exists because three layers promise to be
concurrency-safe: the C hot loop releases the GIL over reentrant
per-call state, the compiled-trace layer shares read-only instances
across threads (the generator fallback gets private block lists per
run), and the result cache front is write-through.  These tests hold each layer to
that promise:

* a three-backend differential suite (serial / process / thread) over
  one scenario matrix, asserting byte-identical result sets;
* an N-thread stress test hammering one shared ``CompiledTrace`` with
  closed-loop runs, comparing summaries, controller diagnostics and
  regulator statistics against the serial reference, plus jittered
  open- and closed-loop runs where every thread draws its own jitter
  stream in C, and the same stress on the generator loop over one shared
  trace with the native loop disabled;
* unit coverage for the process-wide trace cache
  (single-flight, LRU bound), the ``TraceStore`` column memo, the
  ``CacheStore`` memory front, ``workers='auto'`` resolution, backend
  selection, and the build stamp (compiler identity, numpy version,
  linked ``libnpyrandom.a``).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.errors import ExperimentError
from repro.experiments import Orchestrator, Suite
from repro.experiments.cache import CacheStore
from repro.experiments.executor import default_workers, parse_workers
from repro.experiments.orchestrator import default_backend
from repro.metrics.summary import summarize
from repro.sim.engine import TraceCache, compiled_trace_for, scaled_mcd_config
from repro.uarch import native
from repro.uarch.compiled_trace import TraceStore, trace_columns
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import get_benchmark

SCALE = 0.05
LINE_SHIFT = ProcessorConfig().line_bytes.bit_length() - 1


# ---------------------------------------------------------------------------
# Three-backend differential suite
# ---------------------------------------------------------------------------


class TestBackendDeterminism:
    """serial == process == thread, byte for byte, per scenario."""

    @pytest.fixture(scope="class")
    def suite(self):
        return Suite(
            benchmarks=["adpcm", "gsm"],
            configurations=["sync", "mcd_base", "attack_decay"],
            seeds=[1],
            scale=SCALE,
            name="backend-differential",
        )

    @pytest.fixture(scope="class")
    def serial_reference(self, suite, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("serial")
        return Orchestrator(
            workers=1, backend="serial", cache_dir=cache_dir, use_cache=False
        ).run(suite)

    @pytest.mark.parametrize("backend,workers", [("thread", 4), ("process", 2)])
    def test_backend_matches_serial(
        self, suite, serial_reference, backend, workers, tmp_path
    ):
        results = Orchestrator(
            workers=workers, backend=backend, cache_dir=tmp_path, use_cache=False
        ).run(suite)
        assert not results.errors, [o.error for o in results.errors]
        # to_dict covers scenarios, order and every RunSummary field.
        assert results.to_dict() == serial_reference.to_dict()

    def test_thread_backend_isolates_failures(self, tmp_path):
        from repro.experiments import CONFIGURATIONS, Scenario, register_configuration

        @register_configuration("thread_explode")
        def exploding(ctx, benchmark, scale, seed):
            """Test entry that always fails."""
            raise RuntimeError("injected thread failure")

        try:
            scenarios = [
                Scenario("adpcm", "sync", scale=SCALE),
                Scenario("adpcm", "thread_explode", scale=SCALE),
                Scenario("gsm", "sync", scale=SCALE),
            ]
            results = Orchestrator(
                workers=3, backend="thread", cache_dir=tmp_path, use_cache=False
            ).run(scenarios)
        finally:
            CONFIGURATIONS.unregister("thread_explode")
        assert len(results) == 3
        assert len(results.errors) == 1
        assert "injected thread failure" in results.errors[0].error
        assert results.get("adpcm", "sync").summary.instructions > 0
        assert results.get("gsm", "sync").summary.instructions > 0


# ---------------------------------------------------------------------------
# Shared-trace reentrancy stress
# ---------------------------------------------------------------------------


def _closed_loop_fingerprint(
    trace, path: str, seed: int = 1, closed_loop: bool = True,
    jitter_block: int | None = None,
):
    """One warmed MCD run over ``trace``; full observable state.

    ``jitter_block`` shrinks every domain's jitter block so the run
    draws thousands of blocks (in C, on the native path).
    """
    bench = get_benchmark("adpcm")
    controller = (
        AttackDecayController(SCALED_OPERATING_POINT) if closed_loop else None
    )
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=controller,
        options=CoreOptions(
            mcd=True,
            seed=seed,
            interval_instructions=bench.interval_instructions,
        ),
    )
    if jitter_block is not None:
        for clock in core.clocks:
            clock.jitter._block = jitter_block
    core.warm_up(trace, limit=trace.total_instructions)
    result = core.run(path=path)
    return (
        summarize(result),
        {}
        if controller is None
        else {d: dataclasses.asdict(s) for d, s in controller.states.items()},
        [dataclasses.asdict(r.stats) for r in core.regulators],
    )


class TestSharedTraceStress:
    """N threads hammering one CompiledTrace stay byte-identical."""

    @pytest.fixture(scope="class")
    def shared_trace(self):
        bench = get_benchmark("adpcm")
        return compiled_trace_for(bench, scale=SCALE, line_shift=LINE_SHIFT)

    @pytest.mark.parametrize(
        "path,threads",
        [
            pytest.param(
                "native",
                8,
                marks=pytest.mark.skipif(
                    native.load_hotpath() is None, reason="no native loop"
                ),
            ),
            # Pure Python: the generator loop over the shared trace.
            pytest.param("auto", 4, id="python-4"),
        ],
    )
    def test_concurrent_runs_match_serial(
        self, shared_trace, path, threads, monkeypatch
    ):
        if path == "auto":
            # The no-compiler configuration.
            monkeypatch.setattr(native, "load_hotpath", lambda: None)
        reference = _closed_loop_fingerprint(shared_trace, path)
        outcomes: list = [None] * threads
        barrier = threading.Barrier(threads)

        def worker(i: int) -> None:
            try:
                barrier.wait()  # maximise overlap
                outcomes[i] = _closed_loop_fingerprint(shared_trace, path)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                outcomes[i] = exc

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        for i, outcome in enumerate(outcomes):
            assert not isinstance(outcome, BaseException), (
                f"thread {i} raised: {outcome!r}"
            )
            assert outcome == reference, f"thread {i} diverged on {path} path"

    @pytest.mark.skipif(native.load_hotpath() is None, reason="no native loop")
    @pytest.mark.parametrize("closed_loop", [False, True], ids=["open", "attack_decay"])
    def test_concurrent_jittered_runs_match_serial(self, shared_trace, closed_loop):
        """Each thread draws its own jitter stream in C, GIL released.

        Distinct seeds give every thread distinct generators; 7-sample
        blocks make each run draw thousands of blocks while the other
        threads do the same.  Every thread must match the serial run
        of its own seed.
        """
        threads = 6

        def fingerprint(seed):
            return _closed_loop_fingerprint(
                shared_trace, "native", seed=seed, closed_loop=closed_loop,
                jitter_block=7,
            )

        references = [fingerprint(1 + i) for i in range(threads)]
        outcomes: list = [None] * threads
        barrier = threading.Barrier(threads)

        def worker(i: int) -> None:
            try:
                barrier.wait()
                outcomes[i] = fingerprint(1 + i)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                outcomes[i] = exc

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        for i, outcome in enumerate(outcomes):
            assert not isinstance(outcome, BaseException), (
                f"thread {i} raised: {outcome!r}"
            )
            assert outcome == references[i], f"thread {i} diverged"
        assert len({ref[0] for ref in references}) > 1, "seeds did not matter"


# ---------------------------------------------------------------------------
# Process-wide trace cache
# ---------------------------------------------------------------------------


class TestTraceCache:
    def test_single_flight_builds_once(self):
        cache = TraceCache(entries=4)
        builds = []
        gate = threading.Event()

        def build():
            builds.append(threading.current_thread().name)
            gate.wait(timeout=5)  # hold every waiter on the event path
            return "trace"

        results = [None] * 6

        def worker(i: int) -> None:
            if i == 5:
                gate.set()
            results[i] = cache.get_or_build(("k", 6), build)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in pool:
            thread.start()
        gate.set()
        for thread in pool:
            thread.join()
        assert builds and len(builds) == 1
        assert results == ["trace"] * 6
        assert cache.hits == 5 and cache.misses == 1

    def test_lru_bound_evicts_oldest(self):
        cache = TraceCache(entries=2)
        for i in range(3):
            cache.get_or_build(("k", i), lambda i=i: f"t{i}")
        assert cache.evictions == 1
        # Oldest key rebuilt, newest two served from cache.
        rebuilt = []
        cache.get_or_build(("k", 0), lambda: rebuilt.append(1) or "t0")
        assert rebuilt == [1]
        cache.get_or_build(("k", 2), lambda: pytest.fail("should be cached"))

    def test_failed_build_releases_waiters(self):
        cache = TraceCache(entries=2)

        def boom():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build(("k", 6), boom)
        # The key is buildable again (no stuck in-flight marker).
        assert cache.get_or_build(("k", 6), lambda: "ok") == "ok"

    def test_malformed_env_capacity_rejected(self, monkeypatch):
        from repro.sim.engine import trace_cache_entries

        monkeypatch.setenv("REPRO_TRACE_CACHE", "plenty")
        with pytest.raises(ExperimentError, match="plenty"):
            trace_cache_entries()


# ---------------------------------------------------------------------------
# Store-level memos
# ---------------------------------------------------------------------------


class TestTraceStoreMemo:
    def _columns(self):
        bench = get_benchmark("adpcm")
        return trace_columns(bench.build_trace(scale=0.02))

    def test_memo_skips_disk_reread(self, tmp_path):
        store = TraceStore(tmp_path, memo_entries=2)
        columns = self._columns()
        key = store.key({"x": 1})
        store.store(key, columns)
        first = store.load(key, LINE_SHIFT)
        assert first is not None
        # Remove the archive: a memo hit must still serve the trace.
        (tmp_path / f"{key}.npz").unlink()
        again = store.load(key, LINE_SHIFT)
        assert again is not None
        assert np.array_equal(again.arrays["kinds"], first.arrays["kinds"])
        assert np.array_equal(again.arrays["pcs"], first.arrays["pcs"])

    def test_memo_serves_other_line_shifts(self, tmp_path):
        store = TraceStore(tmp_path, memo_entries=2)
        key = store.key({"x": 2})
        store.store(key, self._columns())
        (tmp_path / f"{key}.npz").unlink()
        narrow = store.load(key, LINE_SHIFT)
        wide = store.load(key, LINE_SHIFT + 1)
        assert narrow is not None and wide is not None
        # geometry re-derived
        assert not np.array_equal(narrow.arrays["newline"], wide.arrays["newline"])

    def test_default_store_has_no_memo(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key({"x": 3})
        store.store(key, self._columns())
        (tmp_path / f"{key}.npz").unlink()
        assert store.load(key, LINE_SHIFT) is None


class TestCacheStoreMemoryFront:
    def test_write_through_serves_from_memory(self, tmp_path):
        store = CacheStore(tmp_path, memory_entries=4)
        key = store.key({"scenario": "a"})
        store.store(key, {"value": 42})
        assert (tmp_path / f"{key}.json").exists()  # still persisted
        (tmp_path / f"{key}.json").unlink()
        assert store.load(key) == {"value": 42}

    def test_front_is_bounded(self, tmp_path):
        store = CacheStore(tmp_path, memory_entries=2)
        keys = [store.key({"scenario": i}) for i in range(3)]
        for key, i in zip(keys, range(3)):
            store.store(key, {"value": i})
        for key in keys:
            (tmp_path / f"{key}.json").unlink()
        assert store.load(keys[0]) is None  # evicted, disk gone -> miss
        assert store.load(keys[1]) == {"value": 1}
        assert store.load(keys[2]) == {"value": 2}

    def test_disk_hit_primes_the_front(self, tmp_path):
        seeded = CacheStore(tmp_path)
        key = seeded.key({"scenario": "b"})
        seeded.store(key, {"value": 7})
        fronted = CacheStore(tmp_path, memory_entries=4)
        assert fronted.load(key) == {"value": 7}  # from disk
        (tmp_path / f"{key}.json").unlink()
        assert fronted.load(key) == {"value": 7}  # from memory

    def test_default_store_has_no_front(self, tmp_path):
        store = CacheStore(tmp_path)
        key = store.key({"scenario": "c"})
        store.store(key, {"value": 1})
        (tmp_path / f"{key}.json").unlink()
        assert store.load(key) is None


# ---------------------------------------------------------------------------
# Worker/backend resolution
# ---------------------------------------------------------------------------


class TestWorkerResolution:
    def test_parse_workers_accepts_auto_and_ints(self):
        import os

        assert parse_workers(None) == 1
        assert parse_workers(3) == 3
        assert parse_workers("3") == 3
        assert parse_workers("auto") == max(1, os.cpu_count() or 1)

    def test_parse_workers_rejects_garbage(self):
        with pytest.raises(ExperimentError, match="plenty"):
            parse_workers("plenty", "REPRO_WORKERS")

    def test_repro_workers_auto(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert default_workers() == max(1, os.cpu_count() or 1)

    def test_orchestrator_accepts_auto(self):
        import os

        orchestrator = Orchestrator(workers="auto")
        assert orchestrator.workers == max(1, os.cpu_count() or 1)

    def test_cli_accepts_auto_workers(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "sweep",
                "--benchmarks",
                "adpcm",
                "--configurations",
                "sync",
                "--workers",
                "auto",
                "--backend",
                "serial",
                "--scale",
                "0.02",
                "--no-cache",
            ]
        )
        assert rc == 0
        assert "adpcm" in capsys.readouterr().out


class TestBackendSelection:
    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ExperimentError, match="warp"):
            Orchestrator(backend="warp")

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "hyperdrive")
        with pytest.raises(ExperimentError, match="hyperdrive"):
            default_backend()

    def test_serial_degenerations(self):
        orchestrator = Orchestrator(workers=4, backend="thread")
        assert orchestrator._resolve_backend(total=1) == "serial"
        assert Orchestrator(workers=1, backend="thread")._resolve_backend(4) == "serial"
        assert Orchestrator(workers=4, backend="serial")._resolve_backend(4) == "serial"

    def test_auto_with_start_method_means_processes(self):
        orchestrator = Orchestrator(workers=4, start_method="spawn")
        assert orchestrator._resolve_backend(total=4) == "process"

    @pytest.mark.skipif(native.load_hotpath() is None, reason="no native loop")
    def test_auto_picks_threads_with_native_loop(self):
        assert Orchestrator(workers=4)._resolve_backend(total=4) == "thread"

    def test_auto_falls_back_to_processes_without_native(self, monkeypatch):
        monkeypatch.setattr(native, "_cached", None)
        monkeypatch.setattr(native, "_attempted", True)
        assert Orchestrator(workers=4)._resolve_backend(total=4) == "process"


# ---------------------------------------------------------------------------
# Build-stamp compiler identity
# ---------------------------------------------------------------------------


class TestBuildStamp:
    def test_stamp_tracks_compiler_identity(self, monkeypatch):
        identities = {"ccA": b"/usr/bin/ccA\nccA 1.0", "ccB": b"/usr/bin/ccB\nccB 2.0"}
        monkeypatch.setattr(
            native, "_compiler_identity", lambda compiler: identities[compiler]
        )
        assert native._build_stamp("ccA") != native._build_stamp("ccB")
        assert native._build_stamp("ccA") == native._build_stamp("ccA")

    def test_stamp_tracks_linked_numpy_random_lib(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_compiler_identity", lambda compiler: b"cc")
        lib_a = tmp_path / "a" / "libnpyrandom.a"
        lib_b = tmp_path / "b" / "libnpyrandom.a"
        for lib, payload in ((lib_a, b"archive A"), (lib_b, b"archive B")):
            lib.parent.mkdir()
            lib.write_bytes(payload)
        monkeypatch.setattr(native, "_numpy_random_lib", lambda: lib_a)
        stamp_a = native._build_stamp("cc")
        monkeypatch.setattr(native, "_numpy_random_lib", lambda: lib_b)
        assert native._build_stamp("cc") != stamp_a

    def test_stamp_tracks_numpy_version(self, monkeypatch):
        import numpy as np

        monkeypatch.setattr(native, "_compiler_identity", lambda compiler: b"cc")
        stamp = native._build_stamp("cc")
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
        assert native._build_stamp("cc") != stamp

    def test_compile_names_missing_numpy_random_lib(
        self, monkeypatch, tmp_path, caplog
    ):
        missing = tmp_path / "nowhere" / "libnpyrandom.a"
        monkeypatch.setattr(native, "_numpy_random_lib", lambda: missing)
        with caplog.at_level("WARNING", logger=native.logger.name):
            assert native._compile(tmp_path / "x.so", "cc") is False
        assert str(missing) in caplog.text

    def test_identity_includes_resolved_path_and_banner(self):
        compiler = native._resolve_compiler()
        if compiler is None:
            pytest.skip("no C compiler on this host")
        identity = native._compiler_identity(compiler)
        import shutil

        resolved = shutil.which(compiler) or compiler
        assert identity.startswith(resolved.encode())
        assert len(identity) > len(resolved) + 1  # --version banner present
