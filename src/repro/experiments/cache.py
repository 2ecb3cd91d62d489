"""Content-addressed on-disk result cache.

Every simulation outcome is stored as one small JSON file named by the
SHA-1 of its identity payload (benchmark, configuration, scale, seed,
overrides, cache version).  Writes go to a temporary file in the same
directory and are published with :func:`os.replace`, so concurrent
orchestrator workers can never leave a truncated entry behind — the
worst case under a crash is a stray ``*.tmp`` file, never a corrupt
``*.json``.  Unreadable entries are treated as misses and logged.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

from repro.concurrency import LockedLRU
from repro.errors import ExperimentError
from repro.ioutil import atomic_write, sweep_stale_tmp

#: Bump when a change invalidates previously cached results.  The
#: compiled-trace store joins this version into its own keys (see
#: :func:`repro.sim.engine.compiled_trace_for`), so bumping it also
#: invalidates every compiled trace.
#: v4: registry-driven scenario API — keys now include overrides.
#: (The compiled-trace fast path introduced alongside CACHE_VERSION 4
#: is byte-identical to the generator path, so it does not bump.)
CACHE_VERSION = 4

#: Default cache location, shared by every runner and orchestrator.
DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / "results" / "cache"

logger = logging.getLogger(__name__)


class CacheStore:
    """A concurrency-safe JSON store keyed by content hash.

    Parameters
    ----------
    directory:
        Where entries live; created on first store.
    enabled:
        When False every load misses and every store is a no-op
        (the ``REPRO_CACHE=0`` behaviour).
    memory_entries:
        Size of the optional write-through in-memory front (0 disables
        it, the default).  With a front, ``store`` publishes to memory
        *and* atomically to disk, and ``load`` serves recent keys
        without a file read — this is how thread-pool sweep workers
        share results inside one process while the on-disk store keeps
        its cross-process/cross-session role.  The front is
        thread-safe and LRU-bounded; callers must treat returned
        payloads as read-only (every repo consumer immediately
        converts them to records).
    """

    def __init__(
        self,
        directory: Path | str | None = None,
        enabled: bool = True,
        memory_entries: int = 0,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None else DEFAULT_CACHE_DIR
        )
        self.enabled = enabled
        self._memory = LockedLRU(memory_entries)
        if enabled:
            # Crashed writers leave ``*.tmp`` siblings behind; reap the
            # stale ones (age-gated, so live writers are untouched).
            sweep_stale_tmp(self.directory)

    @property
    def memory_entries(self) -> int:
        """Capacity of the write-through memory front (0 = disabled)."""
        return self._memory.entries

    def key(self, payload: dict) -> str:
        """Content-address a JSON-serialisable identity payload.

        Raises :class:`~repro.errors.ExperimentError` for payloads that
        are not JSON-serialisable.  This is deliberate: stringifying
        unknown values (``default=str``) would silently merge any two
        values with equal ``str()`` — e.g. a custom object and its repr
        — into one cache identity, serving one configuration the other
        one's results.  A loud error turns that lossy collision into a
        fixable bug in the payload builder.
        """
        try:
            text = json.dumps({"v": CACHE_VERSION, **payload}, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ExperimentError(
                f"cache identity payload is not JSON-serialisable ({exc}); "
                "convert values to JSON-native types before keying"
            ) from None
        return hashlib.sha1(text.encode()).hexdigest()[:20]

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> dict | None:
        """The stored payload for ``key``, or None on miss.

        A present-but-unreadable entry (truncated file, wrong schema)
        counts as a miss and is logged at WARNING.
        """
        if not self.enabled:
            return None
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError) as exc:
            # UnicodeDecodeError: binary garbage where JSON should be
            # (bit rot, a crashed writer on a non-atomic filesystem).
            logger.warning("cache entry %s unreadable (%s); treating as miss", path, exc)
            return None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            logger.warning("cache entry %s corrupt (%s); treating as miss", path, exc)
            return None
        if not isinstance(data, dict):
            logger.warning("cache entry %s has wrong shape; treating as miss", path)
            return None
        self._memory.put(key, data)
        return data

    def store(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``.

        The payload is serialised to a temporary file in the cache
        directory and renamed into place, so readers (including other
        worker processes) only ever observe complete entries.  The
        write skips the fsyncs: after a power loss an entry may be
        empty or partial, which :meth:`load` treats as a miss.
        """
        if not self.enabled:
            return
        text = json.dumps(payload, indent=1, sort_keys=True)
        with atomic_write(self._path(key), "w", durable=False) as handle:
            handle.write(text)
        self._memory.put(key, payload)
