"""Columnar compiled traces and their on-disk store.

A :class:`CompiledTrace` is the whole dynamic instruction stream of one
workload flattened into int64 numpy columns (``arrays``), plus derived
columns the native core loop (:meth:`repro.uarch.core.MCDCore.run` on a
compiled trace) consumes directly instead of re-deriving them once per
dynamic instruction:

``dest[i]``
    Destination register type (0 integer, 1 floating point, -1 none) —
    the rename table lookup, precomputed.
``domain[i]``
    Issue-domain index (1 integer, 2 floating point, 3 load/store) —
    the steering table lookup, precomputed.
``newline[i]``
    1 when instruction ``i`` starts a new L1I fetch line given the
    compile-time ``line_shift`` (the core performs one I-cache lookup
    per new line), else 0.
``p1[i]``, ``p2[i]``
    The dependency distances ``src1``/``src2`` resolved into absolute
    1-based producer sequence numbers (0 for none; dispatch order
    equals trace order).

Compilation is a pure function of the trace, so a compiled trace can be
cached on disk and shared across every run of the same workload:
:class:`TraceStore` persists the seven *base* columns as an ``.npz``
file named by a content hash (the caller builds the identity payload;
see :func:`repro.sim.engine.compiled_trace_for`) and re-derives the
config-dependent columns on load.  Writes are atomic
(temp-file-plus-rename, like the experiment
:class:`~repro.experiments.cache.CacheStore`), so concurrent
orchestrator workers never observe a truncated trace; like the result
cache, the store skips the fsyncs, since a trace lost to a power cut
is only regenerated.

A :class:`CompiledTrace` also implements the
:class:`~repro.uarch.trace.TraceStream` protocol (one big block), so
anything that can consume a generator trace can consume a compiled one
— including the core's reference loop, which is how a compiled core
runs when the native loop is unavailable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.concurrency import LockedLRU
from repro.errors import TraceError
from repro.ioutil import atomic_write, sweep_stale_tmp
from repro.uarch.isa import DEST_REGISTER_TYPE, ISSUE_DOMAIN_INDEX, NUM_CLASSES
from repro.uarch.trace import InstructionBlock, TraceStream

#: Bump when the compiled representation or its derivation changes;
#: joined into every on-disk trace key so stale entries miss.
COMPILED_TRACE_VERSION = 1

#: Default store location, beside the experiment result cache.
DEFAULT_TRACE_DIR = (
    Path(__file__).resolve().parents[3] / "results" / "cache" / "traces"
)

_BASE_COLUMNS = ("kinds", "src1", "src2", "pcs", "addrs", "taken", "targets")

logger = logging.getLogger(__name__)

_DEST_TABLE = np.array(
    [DEST_REGISTER_TYPE[code] for code in range(NUM_CLASSES)], dtype=np.int64
)
_DOMAIN_TABLE = np.array(
    [ISSUE_DOMAIN_INDEX[code] for code in range(NUM_CLASSES)], dtype=np.int64
)


class CompiledTrace:
    """One workload's instruction stream in columnar form.

    ``arrays`` holds the int64 numpy columns the native loop consumes
    zero-copy.  Every column is read-only: the native loop only reads
    them and :meth:`blocks` hands each consumer private lists, so one
    instance serves any number of sequential or concurrent runs.
    """

    __slots__ = ("n", "line_shift", "arrays")

    def __init__(self, *, line_shift: int, arrays: dict) -> None:
        self.n = len(arrays["kinds"])
        self.line_shift = line_shift
        #: int64 numpy columns (base columns plus the derived dest,
        #: domain, newline and resolved dependency pointers p1/p2).
        self.arrays = arrays

    # --- TraceStream protocol ------------------------------------------------
    @property
    def total_instructions(self) -> int:
        """Exact trace length."""
        return self.n

    def blocks(self) -> Iterator[InstructionBlock]:
        """Yield the trace as a single block (TraceStream view).

        The block's lists are built fresh from ``arrays`` on every
        call, so each consumer owns its copy.
        """
        if self.n:
            arrays = self.arrays
            yield InstructionBlock(
                **{name: arrays[name].tolist() for name in _BASE_COLUMNS}
            )


def from_columns(columns: tuple[np.ndarray, ...], line_shift: int) -> CompiledTrace:
    """Build a :class:`CompiledTrace` from the seven base columns."""
    n = len(columns[0])
    if any(len(column) != n for column in columns[1:]):
        raise TraceError("compiled trace columns have mismatched lengths")
    arrays = {
        name: column.astype(np.int64, copy=False)
        for name, column in zip(_BASE_COLUMNS, columns)
    }
    kinds = arrays["kinds"]
    lines = arrays["pcs"] >> line_shift
    newline = np.ones(n, dtype=np.int64)
    if n > 1:
        newline[1:] = lines[1:] != lines[:-1]
    seq = np.arange(1, n + 1, dtype=np.int64)
    src1 = arrays["src1"]
    src2 = arrays["src2"]
    arrays["dest"] = _DEST_TABLE[kinds]
    arrays["domain"] = _DOMAIN_TABLE[kinds]
    arrays["newline"] = newline
    arrays["p1"] = np.where((src1 > 0) & (src1 < seq), seq - src1, 0)
    arrays["p2"] = np.where((src2 > 0) & (src2 < seq), seq - src2, 0)
    return CompiledTrace(line_shift=line_shift, arrays=arrays)


def trace_columns(trace: TraceStream) -> tuple[np.ndarray, ...]:
    """The seven base columns of any trace stream.

    Uses the stream's vectorised :meth:`columns` when it has one
    (:class:`~repro.workloads.synthetic.SyntheticTrace`), otherwise
    concatenates its blocks.
    """
    columns = getattr(trace, "columns", None)
    if callable(columns):
        return tuple(np.asarray(column) for column in columns())
    parts: list[list[np.ndarray]] = [[] for _ in _BASE_COLUMNS]
    for block in trace.blocks():
        for store, name in zip(parts, _BASE_COLUMNS):
            store.append(np.asarray(getattr(block, name), dtype=np.int64))
    if not parts[0]:
        return tuple(np.zeros(0, dtype=np.int64) for _ in _BASE_COLUMNS)
    return tuple(np.concatenate(store) for store in parts)


def compile_trace(trace: TraceStream, line_shift: int) -> CompiledTrace:
    """Compile ``trace`` into columnar form for ``2**line_shift``-byte lines.

    >>> from repro.uarch.isa import InstructionClass as IC
    >>> from repro.uarch.trace import InstructionBlock, ListTrace
    >>> block = InstructionBlock()
    >>> block.append(IC.INT_ALU, pc=64)
    >>> block.append(IC.LOAD, src1=1, pc=68, addr=4096)
    >>> compiled = compile_trace(ListTrace([block]), line_shift=6)
    >>> compiled.total_instructions, compiled.arrays["newline"].tolist()
    (2, [1, 0])
    >>> compiled.arrays["domain"].tolist(), compiled.arrays["p1"].tolist()
    ([1, 3], [0, 1])
    """
    return from_columns(trace_columns(trace), line_shift)


class TraceStore:
    """Atomic, content-addressed ``.npz`` store for compiled traces.

    Only the seven base columns are persisted (compact integer dtypes);
    the config-dependent derived columns are recomputed on load, so one
    stored trace serves every cache-line geometry.

    Parameters
    ----------
    directory:
        Where entries live; created on first store.
    enabled:
        When False every load misses and every store is a no-op.
    memo_entries:
        Size of the optional in-memory column memo (0 disables it, the
        default).  With a memo, repeated loads of one key — the same
        spec run again, or the same trace at a different cache-line
        geometry — reuse the validated base columns instead of
        re-reading and re-checksumming the ``.npz`` from disk, and a
        ``store`` immediately primes the memo for its own key.  The
        memo is thread-safe and LRU-bounded; memoised columns are
        treated as read-only (``from_columns`` never mutates its
        inputs).
    """

    def __init__(
        self,
        directory: Path | str | None = None,
        enabled: bool = True,
        memo_entries: int = 0,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None else DEFAULT_TRACE_DIR
        )
        self.enabled = enabled
        self._memo = LockedLRU(memo_entries)
        if enabled:
            # Crashed writers leave ``*.tmp`` siblings behind; reap the
            # stale ones (age-gated, so live writers are untouched).
            sweep_stale_tmp(self.directory)

    @property
    def memo_entries(self) -> int:
        """Capacity of the in-memory column memo (0 = disabled)."""
        return self._memo.entries

    def key(self, payload: dict) -> str:
        """Content-address a JSON-serialisable trace identity payload.

        Raises :class:`~repro.errors.TraceError` for non-serialisable
        payloads: stringifying unknown values (``default=str``) would
        let two distinct trace identities with equal ``str()`` collide
        into one stored trace.
        """
        try:
            text = json.dumps(
                {"trace_version": COMPILED_TRACE_VERSION, **payload},
                sort_keys=True,
            )
        except (TypeError, ValueError) as exc:
            raise TraceError(
                f"trace identity payload is not JSON-serialisable ({exc}); "
                "convert values to JSON-native types before keying"
            ) from None
        return hashlib.sha1(text.encode()).hexdigest()[:20]

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def load_columns(self, key: str) -> tuple[np.ndarray, ...] | None:
        """The validated base columns under ``key``, or None on a miss.

        A present-but-unreadable entry counts as a miss and is logged,
        never raised: a truncated ``.npz`` (``zipfile.BadZipFile`` /
        ``EOFError``), bit-rotted bytes, missing columns or mismatched
        lengths all fall back to regeneration, because every entry is
        a pure function of its key's identity payload.
        """
        if not self.enabled:
            return None
        columns = self._memo.get(key)
        if columns is not None:
            return columns
        path = self._path(key)
        try:
            with np.load(path) as data:
                columns = tuple(data[name] for name in _BASE_COLUMNS)
            n = len(columns[0])
            if any(len(column) != n for column in columns[1:]):
                raise ValueError("mismatched column lengths")
        except FileNotFoundError:
            return None
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            logger.warning(
                "trace entry %s unreadable (%s); treating as miss", path, exc
            )
            return None
        self._memo.put(key, columns)
        return columns

    def load(self, key: str, line_shift: int) -> CompiledTrace | None:
        """The stored trace under ``key`` derived for ``line_shift``."""
        columns = self.load_columns(key)
        if columns is None:
            return None
        return from_columns(columns, line_shift)

    def store(self, key: str, columns: tuple[np.ndarray, ...]) -> None:
        """Atomically persist base ``columns`` under ``key``.

        The write skips the fsyncs: after a power loss an entry may be
        empty or partial, which :meth:`load_columns` treats as a miss.
        """
        if not self.enabled:
            return
        kinds, src1, src2, pcs, addrs, taken, targets = columns
        with atomic_write(self._path(key), durable=False) as handle:
            np.savez(
                handle,
                kinds=kinds.astype(np.uint8),
                src1=src1.astype(np.uint16),
                src2=src2.astype(np.uint16),
                pcs=pcs.astype(np.int64),
                addrs=addrs.astype(np.int64),
                taken=taken.astype(np.uint8),
                targets=targets.astype(np.int64),
            )
        self._memo.put(key, columns)
