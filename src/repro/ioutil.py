"""Crash-safe filesystem publication shared by every on-disk store.

The result cache (:mod:`repro.experiments.cache`), the compiled-trace
store (:mod:`repro.uarch.compiled_trace`) and the ETF exporter
(:mod:`repro.uarch.etf`) all publish files the same way: write the full
payload to a temporary file in the destination directory, flush and
fsync it, then :func:`os.replace` it into place.  Readers — including
concurrent orchestrator workers on other processes — therefore only
ever observe complete files; the worst case under a crash is a stray
``*.tmp``, never a truncated entry.  The fsync *before* the rename is
load-bearing for that guarantee: a rename can be durable before the
data it names, so without it a power loss could publish a zero-length
or partial file under the final name.  (The containing directory is
fsynced best-effort too, so the rename itself survives the crash.)
This module is the single copy of that pattern.

Two writers skip both fsyncs (``durable=False``): the result cache's
:meth:`~repro.experiments.cache.CacheStore.store` and the trace store's
:meth:`~repro.uarch.compiled_trace.TraceStore.store`.  Every entry they
write is a pure function of its key, so the worst a power loss can do
is leave a zero-length or partial file under its final name, which
their readers already treat as a miss and the next store overwrites.
Skipping the fsyncs saved about 0.7 ms per store (0.56 → 0.23 s over
the 450 stores of a cold Table 6 reproduction on a 2-vCPU Linux
container).  The campaign journal, the result database (``results/db``) and the ETF
export hold data nothing can recompute, so they keep both fsyncs.
"""

from __future__ import annotations

import logging
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

logger = logging.getLogger(__name__)


@contextmanager
def atomic_write(
    path: Path | str, mode: str = "wb", durable: bool = True
) -> Iterator[IO]:
    """Open a handle whose contents appear at ``path`` atomically.

    The destination directory is created if missing.  The handle writes
    to a temporary sibling; on clean exit the file is flushed, fsynced
    and renamed over ``path`` in one :func:`os.replace` (followed by a
    best-effort fsync of the directory), and on any exception the
    temporary is unlinked and the destination left untouched.
    ``durable=False`` skips both fsyncs, for recomputable entries only
    (see the module docstring): readers still never see a partial
    file unless the machine itself goes down.

    >>> import tempfile as _tf
    >>> from pathlib import Path as _P
    >>> target = _P(_tf.mkdtemp()) / "out.txt"
    >>> with atomic_write(target, "w") as handle:
    ...     _ = handle.write("complete")
    >>> target.read_text()
    'complete'
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
            # Make the payload durable *before* the rename publishes
            # its name — otherwise a power loss can surface a
            # zero-length or partial file at ``path``.
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        if durable:
            _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def append_line(path: Path | str, line: str) -> None:
    """Durably append one newline-terminated record to ``path``.

    The journalling sibling of :func:`atomic_write`: where that
    publishes a whole file at once, this appends a single small record
    (one journal line) and fsyncs before returning, so a crash
    immediately after the call can never lose it.  A crash *during*
    the write can leave a truncated final line — readers of
    line-oriented journals must treat an unparsable trailing line as
    "not yet written", which mirrors how ``atomic_write`` readers
    treat a missing file.  The destination directory is created if
    missing.

    >>> import tempfile as _tf
    >>> from pathlib import Path as _P
    >>> journal = _P(_tf.mkdtemp()) / "journal.jsonl"
    >>> append_line(journal, '{"cell": 0}')
    >>> append_line(journal, '{"cell": 1}')
    >>> journal.read_text().splitlines()
    ['{"cell": 0}', '{"cell": 1}']
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not line.endswith("\n"):
        line += "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


#: Age below which a ``*.tmp`` file is presumed to belong to a live
#: writer and left alone (an in-flight :func:`atomic_write` lives
#: milliseconds; an hour is orders of magnitude past any real write).
STALE_TMP_AGE_SECONDS = 3600.0

#: Directories already swept by this process — every store constructor
#: calls :func:`sweep_stale_tmp`, and one scan per directory per
#: process is enough.
_SWEPT_DIRS: set[Path] = set()


def sweep_stale_tmp(
    directory: Path | str,
    max_age_seconds: float = STALE_TMP_AGE_SECONDS,
    once_per_process: bool = True,
) -> int:
    """Best-effort removal of crashed writers' ``*.tmp`` droppings.

    Every :func:`atomic_write` that dies between ``mkstemp`` and
    ``os.replace`` leaves a ``<name>.<random>.tmp`` sibling behind;
    harmless individually, they accumulate forever in long-lived cache
    and database directories.  Stores call this when they open a
    directory.  The age gate keeps concurrent writers safe: a tmp file
    younger than ``max_age_seconds`` may belong to a live
    ``atomic_write`` on another worker and is left untouched.  Returns
    the number of files removed; every failure (vanished file,
    permissions, unreadable directory) is non-fatal.
    """
    directory = Path(directory)
    if once_per_process:
        if directory in _SWEPT_DIRS:
            return 0
        _SWEPT_DIRS.add(directory)
    if not directory.is_dir():
        return 0
    cutoff = time.time() - max_age_seconds
    removed = 0
    try:
        candidates = list(directory.glob("*.tmp"))
    except OSError:  # pragma: no cover - unreadable directory
        return 0
    for path in candidates:
        try:
            if path.stat().st_mtime >= cutoff:
                continue
            path.unlink()
            removed += 1
        except OSError:  # a live writer renamed/removed it, or EPERM
            continue
    if removed:
        logger.info(
            "removed %d stale tmp file(s) from %s", removed, directory
        )
    return removed


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync, making a rename itself durable.

    Not every platform/filesystem supports opening a directory for
    fsync (Windows does not); failure only weakens durability of the
    *rename*, never atomicity, so it is deliberately non-fatal.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
