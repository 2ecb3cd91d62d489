"""Crash-safety contract of :func:`repro.ioutil.atomic_write`.

The module docstring promises readers never observe a truncated entry,
even across a power loss.  That requires a specific syscall order:
write → flush → fsync(temp file) → rename → fsync(directory).  These
tests pin the order by instrumenting the os-level calls — a regression
that drops or reorders the fsync would silently reopen the
publish-a-partial-file window the docstring rules out.
"""

from __future__ import annotations

import os
import stat
import time

import pytest

from repro.ioutil import atomic_write


class TestAtomicWriteBasics:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "entry.json"
        with atomic_write(target, "w") as handle:
            handle.write("one")
        assert target.read_text() == "one"
        with atomic_write(target, "w") as handle:
            handle.write("two")
        assert target.read_text() == "two"

    def test_creates_missing_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "entry.bin"
        with atomic_write(target) as handle:
            handle.write(b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    def test_exception_leaves_destination_untouched(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text("intact")
        with pytest.raises(RuntimeError):
            with atomic_write(target, "w") as handle:
                handle.write("partial")
                raise RuntimeError("writer crashed")
        assert target.read_text() == "intact"
        assert list(tmp_path.glob("*.tmp")) == []


class TestFsyncOrdering:
    def test_temp_file_is_fsynced_before_replace(self, tmp_path, monkeypatch):
        """The payload must be durable before the rename publishes it."""
        events: list[tuple[str, str]] = []
        real_fsync = os.fsync
        real_replace = os.replace

        def recording_fsync(fd):
            mode = os.fstat(fd).st_mode
            kind = "dir" if stat.S_ISDIR(mode) else "file"
            events.append(("fsync", kind))
            return real_fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)

        target = tmp_path / "entry.json"
        with atomic_write(target, "w") as handle:
            handle.write("durable")

        assert target.read_text() == "durable"
        replace_at = events.index(("replace", "entry.json"))
        file_syncs = [
            i for i, e in enumerate(events) if e == ("fsync", "file")
        ]
        assert file_syncs and file_syncs[0] < replace_at, (
            f"temp file was not fsynced before os.replace: {events}"
        )
        # Best-effort directory fsync follows the rename, making the
        # rename itself durable.
        assert ("fsync", "dir") in events[replace_at + 1 :]

    def test_no_replace_without_fsync(self, tmp_path, monkeypatch):
        """If fsync fails, the entry must not be published at all."""

        def failing_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        target = tmp_path / "entry.json"
        with pytest.raises(OSError):
            with atomic_write(target, "w") as handle:
                handle.write("lost")
        assert not target.exists()


class TestNonDurableWriters:
    """Recomputable stores publish atomically but skip both fsyncs."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls: list[int] = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        return calls

    def test_non_durable_write_skips_fsyncs(self, tmp_path, fsyncs):
        target = tmp_path / "entry.json"
        with atomic_write(target, "w", durable=False) as handle:
            handle.write("recomputable")
        assert target.read_text() == "recomputable"
        assert fsyncs == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_cache_and_trace_stores_skip_fsyncs(self, tmp_path, fsyncs):
        import numpy as np

        from repro.experiments.cache import CacheStore
        from repro.uarch.compiled_trace import TraceStore

        cache = CacheStore(tmp_path / "cache")
        cache.store(cache.key({"x": 1}), {"value": 1})
        traces = TraceStore(tmp_path / "traces")
        columns = tuple(np.zeros(3, dtype=np.int64) for _ in range(7))
        traces.store(traces.key({"x": 1}), columns)
        assert fsyncs == []

    def test_result_database_keeps_fsyncs(self, tmp_path, fsyncs):
        from repro.resultdb import ResultDB

        ResultDB(tmp_path / "db").record("bench", {"metric": 1.0}, scale=1.0)
        assert len(fsyncs) == 2  # the record file, then its directory


class TestAppendLine:
    def test_appends_newline_terminated_records(self, tmp_path):
        from repro.ioutil import append_line

        journal = tmp_path / "deep" / "journal.jsonl"
        append_line(journal, "one")
        append_line(journal, "two\n")  # caller-supplied newline not doubled
        assert journal.read_text() == "one\ntwo\n"

    def test_record_is_fsynced(self, tmp_path, monkeypatch):
        from repro.ioutil import append_line

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        append_line(tmp_path / "journal.jsonl", "entry")
        assert synced, "append_line returned without fsyncing the record"


class TestStaleTmpSweep:
    """Crashed writers' *.tmp droppings are reaped, live ones spared."""

    def _plant(self, directory, name, age_seconds):
        path = directory / name
        path.write_text("partial")
        old = time.time() - age_seconds
        os.utime(path, (old, old))
        return path

    def test_removes_stale_keeps_fresh_and_non_tmp(self, tmp_path):
        from repro.ioutil import sweep_stale_tmp

        stale = self._plant(tmp_path, "entry.abc123.tmp", 7200)
        fresh = self._plant(tmp_path, "entry.def456.tmp", 5)
        data = tmp_path / "entry.json"
        data.write_text("{}")

        removed = sweep_stale_tmp(tmp_path, once_per_process=False)

        assert removed == 1
        assert not stale.exists()
        assert fresh.exists(), "a live writer's tmp file was reaped"
        assert data.exists()

    def test_swept_once_per_process_by_default(self, tmp_path):
        from repro.ioutil import sweep_stale_tmp

        self._plant(tmp_path, "first.xyz.tmp", 7200)
        assert sweep_stale_tmp(tmp_path) == 1
        # Second plant after the memoised sweep stays: the constructor
        # path scans each directory once per process.
        self._plant(tmp_path, "second.xyz.tmp", 7200)
        assert sweep_stale_tmp(tmp_path) == 0

    def test_missing_directory_is_noop(self, tmp_path):
        from repro.ioutil import sweep_stale_tmp

        assert sweep_stale_tmp(tmp_path / "nonexistent",
                               once_per_process=False) == 0

    def test_cache_store_open_sweeps(self, tmp_path):
        from repro.experiments.cache import CacheStore

        stale = self._plant(tmp_path, "deadbeef.ghi789.tmp", 7200)
        CacheStore(directory=tmp_path)
        assert not stale.exists()

    def test_resultdb_open_sweeps(self, tmp_path):
        from repro.resultdb import ResultDB

        db = ResultDB(tmp_path)
        db.runs_dir.mkdir(parents=True, exist_ok=True)
        stale = self._plant(db.runs_dir, "run.jkl012.tmp", 7200)
        # Sweeps are memoised per directory per process, so open a
        # second store on a fresh view of the same path.
        from repro.ioutil import _SWEPT_DIRS

        _SWEPT_DIRS.discard(db.runs_dir)
        ResultDB(tmp_path)
        assert not stale.exists()
