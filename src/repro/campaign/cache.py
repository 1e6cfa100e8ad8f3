"""Content-addressed on-disk result cache for campaign jobs.

Every completed job stores its JSON-serialised :class:`ResultTable`
under ``.repro-cache/`` keyed by a SHA-256 of *everything that can change
the result*: exhibit id, seed, profile, extra params and
``repro.__version__`` (see :meth:`repro.campaign.jobs.JobSpec.cache_key`).
Re-running a campaign — or regenerating EXPERIMENTS.md — therefore only
pays for jobs whose inputs actually changed; bumping the package version
invalidates every entry at once.

Entries are single JSON files, written atomically (tmp file + rename) so
concurrent campaign processes — and the long-running campaign server's
worker threads — can share one cache directory.  A corrupt, truncated or
unreadable entry (a worker killed mid-write, a disk-full partial JSON)
is treated as a *recorded* miss: the bad file is evicted, a counter
ticks, and the campaign re-runs the job instead of dying on a
``JSONDecodeError``.

The store keeps :class:`CacheStats` (hits / misses / evictions /
corrupt-entry counts), optionally mirrored into a
:class:`repro.obs.metrics.MetricsRegistry` so the server can export them,
and enforces an optional LRU size budget: every hit refreshes the entry
file's mtime, and ``put`` evicts least-recently-used entries until the
directory fits ``max_bytes`` again.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..experiments.results import ResultTable
from .jobs import JobSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.metrics import MetricsRegistry

__all__ = ["CacheEntry", "CacheStats", "ResultCache", "DEFAULT_CACHE_DIR"]

#: Default cache location, relative to the invoking process's cwd.
DEFAULT_CACHE_DIR = ".repro-cache"

_FORMAT = 1  # bump when the on-disk entry layout changes


@dataclass(frozen=True)
class CacheEntry:
    """One cached job result."""

    spec: JobSpec
    table: ResultTable
    elapsed_s: float
    version: str
    created_at: float
    #: Optional observability snapshot captured with the result (present
    #: when the campaign ran with ``obs=True``); ``None`` otherwise —
    #: including for entries written before the obs subsystem existed.
    metrics: Optional[Dict[str, Any]] = None


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`ResultCache` handle."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    bytes_evicted: int = 0


class ResultCache:
    """Content-addressed store of job results under one directory.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first ``put``).
    version:
        Overrides ``repro.__version__`` in cache keys (tests).
    max_bytes:
        Optional LRU size budget.  When the directory exceeds it after a
        ``put``, least-recently-used entries (oldest mtime; hits refresh
        mtime) are evicted until it fits.  ``None`` disables eviction.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given,
        every :class:`CacheStats` increment is mirrored into counters
        named ``campaign.cache.<field>`` so the server's ``/metrics``
        endpoint and obs exports see live values.
    """

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR,
                 version: Optional[str] = None, *,
                 max_bytes: Optional[int] = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if version is None:
            from .. import __version__ as version
        self.root = Path(root)
        self.version = version
        self.max_bytes = max_bytes
        self.metrics = metrics
        self.stats = CacheStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self.stats, name, getattr(self.stats, name) + amount)
        if self.metrics is not None:
            self.metrics.counter(f"campaign.cache.{name}").inc(amount)

    # ------------------------------------------------------------------
    def path_for(self, spec: JobSpec) -> Path:
        """Entry file for a spec: human-readable prefix + content hash."""
        digest = spec.cache_key(self.version)
        return self.root / f"{spec.exhibit_id}-s{spec.seed}-{digest[:16]}.json"

    def get(self, spec: JobSpec) -> Optional[CacheEntry]:
        """Look up a spec; a corrupt/stale entry counts as a miss.

        Anything short of a well-formed, key-matching entry — missing
        file, truncated or empty JSON (a worker killed mid-write despite
        tmp+rename, disk-full partial writes), undecodable bytes, or a
        payload whose key does not match — is a recorded miss; bad files
        are evicted so the next writer starts clean.
        """
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_bytes())
        except FileNotFoundError:
            self._bump("misses")
            return None
        except (OSError, ValueError):
            # ValueError covers json.JSONDecodeError (truncated/empty
            # JSON) and UnicodeDecodeError (binary garbage) alike.
            self._evict_counted(path, corrupt=True)
            self._bump("misses")
            return None
        try:
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
            if payload["format"] != _FORMAT:
                raise ValueError(f"unknown cache format {payload['format']!r}")
            if payload["key"] != spec.cache_key(self.version):
                # hash-prefix collision or handcrafted file: never trust it
                raise ValueError("cache key mismatch")
            table = ResultTable.from_dict(payload["table"])
            metrics = payload.get("metrics")
            if metrics is not None and not isinstance(metrics, dict):
                raise ValueError("cache metrics must be a dict")
            entry = CacheEntry(
                spec=JobSpec.from_dict(payload["spec"]),
                table=table,
                elapsed_s=float(payload.get("elapsed_s", 0.0)),
                version=str(payload.get("version", "")),
                created_at=float(payload.get("created_at", 0.0)),
                metrics=metrics,
            )
        except (KeyError, TypeError, ValueError):
            self._evict_counted(path, corrupt=True)
            self._bump("misses")
            return None
        self._bump("hits")
        self._touch(path)
        return entry

    def put(self, spec: JobSpec, table: ResultTable, elapsed_s: float,
            metrics: Optional[Dict[str, Any]] = None) -> Path:
        """Atomically write one entry; returns the entry path.

        ``metrics`` is the optional observability snapshot (see
        :meth:`repro.obs.runtime.ObsSession.snapshot`); omitting it keeps
        the entry shape of pre-obs caches, so the on-disk format version
        is unchanged and old entries stay readable.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, Any] = {
            "format": _FORMAT,
            "key": spec.cache_key(self.version),
            "spec": spec.to_dict(),
            "version": self.version,
            "elapsed_s": float(elapsed_s),
            "created_at": time.time(),
            "table": table.to_dict(),
        }
        if metrics is not None:
            payload["metrics"] = metrics
        path = self.path_for(spec)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._bump("puts")
        if self.max_bytes is not None:
            self._enforce_budget(protect=path)
        return path

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """All entry files currently on disk (any version)."""
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob("*.json")))

    def clear(self) -> int:
        """Delete every entry (all versions); returns the count removed."""
        removed = 0
        for path in self.entries():
            self._evict(path)
            removed += 1
        return removed

    def status(self) -> Dict[str, Any]:
        """Summary of the cache directory for ``repro campaign status``."""
        total_bytes = 0
        count = 0
        current = 0
        by_exhibit: Dict[str, int] = {}
        for path in self.entries():
            count += 1
            try:
                stat = path.stat()
                total_bytes += stat.st_size
                payload = json.loads(path.read_text())
                exhibit = payload["spec"]["exhibit_id"]
                by_exhibit[exhibit] = by_exhibit.get(exhibit, 0) + 1
                if payload.get("version") == self.version:
                    current += 1
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return {
            "root": str(self.root),
            "version": self.version,
            "entries": count,
            "current_version_entries": current,
            "bytes": total_bytes,
            "by_exhibit": dict(sorted(by_exhibit.items())),
        }

    # ------------------------------------------------------------------
    def _enforce_budget(self, protect: Optional[Path] = None) -> int:
        """Evict LRU entries until the directory fits ``max_bytes``.

        The just-written entry (``protect``) is never evicted: a budget
        smaller than one entry must not make the cache eat its own
        freshest result.  Returns the number of entries evicted.
        """
        assert self.max_bytes is not None
        candidates: List[Tuple[float, int, Path]] = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:  # concurrently evicted by another process
                continue
            total += stat.st_size
            if protect is None or path != protect:
                candidates.append((stat.st_mtime, stat.st_size, path))
        candidates.sort()  # oldest mtime (= least recently used) first
        evicted = 0
        for _mtime, size, path in candidates:
            if total <= self.max_bytes:
                break
            self._evict_counted(path)
            self._bump("bytes_evicted", size)
            total -= size
            evicted += 1
        return evicted

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh the entry's mtime so LRU eviction sees the hit."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - raced with an eviction
            pass

    def _evict_counted(self, path: Path, corrupt: bool = False) -> None:
        self._evict(path)
        self._bump("evictions")
        if corrupt:
            self._bump("corrupt")

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
