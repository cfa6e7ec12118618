"""Content-addressed on-disk store for run rows: sweep points and bundled runs.

Each finished sweep point is stored under the SHA-256 of its config's
canonical JSON (sorted keys, compact separators), so the config *is* the
cache key: any changed field -- seed, horizon, a params value, a churn
kwarg, even the display ``name`` -- yields a different hash and therefore a
cache miss, while an identical config is a hit regardless of which sweep
asked for it.  (Including ``name`` is deliberate: the identity stays "every
field", at worst costing a conservative recompute for a relabelled config.)

A bundled run keeps its timed row (the bundle's ``run`` block) here too,
keyed by the row's own hash (:meth:`ResultStore.put_run`), so it is never
served as a sweep point; ``repro history`` lists those rows.

Layout (sharded on the first two hash characters to keep directories
small)::

    <root>/ab/abcdef....json   # {"hash": ..., "config": ..., "metrics": ...}

Entries are written atomically (:func:`write_json_atomic`) so an
interrupted sweep never leaves a half-written entry; a corrupted or
unreadable entry is *evicted* on read (deleted, treated as a miss) rather
than poisoning the sweep.  :attr:`ResultStore.writes` counts entries
written through this instance -- tests use it to assert that a warm rerun
touches nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = ["ResultStore", "config_hash", "write_json_atomic"]

#: Bumped when a stored metric changes meaning, so an older entry is
#: evicted, not misread (2: the envelope columns are the oracle's; 3: each
#: monitor's ``oracle_<name>_worst_margin`` column).
_ENTRY_VERSION = 3


def canonical_json(data: Mapping[str, Any]) -> str:
    """Serialize ``data`` to the canonical JSON form used for hashing."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(config_dict: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a config dict's (or a row's) canonical JSON."""
    return hashlib.sha256(canonical_json(config_dict).encode("utf-8")).hexdigest()


def write_json_atomic(path: str | os.PathLike[str], doc: Any) -> None:
    """Write ``doc`` as JSON to ``path`` via a temp file and ``os.replace``;
    on failure the temp file goes and ``path`` keeps what it held."""
    parent = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class ResultStore:
    """Content-addressed ``hash -> row`` store.

    Parameters
    ----------
    root:
        Directory holding the store (created lazily on first write).
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        #: Entries written through this instance (cache misses executed).
        self.writes = 0
        #: Corrupted entries evicted by this instance.
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def path_for(self, key: str) -> Path:
        """Entry path for a full hash."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the stored entry for ``key`` or ``None`` on a miss.

        A corrupted entry (unparseable JSON, wrong shape) is deleted and
        reported as a miss so the sweep recomputes it.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or not isinstance(
                entry.get("metrics"), dict
            ):
                raise ValueError("malformed store entry")
            if entry.get("version") != _ENTRY_VERSION:
                # Written by an incompatible schema; recompute rather than
                # serve metrics with stale meaning.
                raise ValueError("store entry version mismatch")
        except (ValueError, TypeError):
            self._evict(path)
            return None
        return entry

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # another process evicted it first
            pass
        self.evictions += 1

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #

    def put(
        self,
        key: str,
        config_dict: Mapping[str, Any],
        metrics: Mapping[str, Any],
    ) -> dict[str, Any]:
        """Atomically persist an entry and return it."""
        entry = {
            "version": _ENTRY_VERSION,
            "hash": key,
            "config": dict(config_dict),
            "metrics": dict(metrics),
        }
        write_json_atomic(self.path_for(key), entry)
        self.writes += 1
        return entry

    def put_run(
        self, config_dict: Mapping[str, Any], row: Mapping[str, Any]
    ) -> str:
        """Keep a bundled run's timed ``row``, stamped ``recorded_unix``;
        returns its key, the hash of ``row`` (a bit-identical rerun
        dedupes)."""
        key = config_hash(row)
        self.put(key, config_dict, dict(row, recorded_unix=time.time()))
        return key

    # ------------------------------------------------------------------ #
    # Enumeration (CLI `ls` / `show` / `history` / `diff`)
    # ------------------------------------------------------------------ #

    def keys(self) -> list[str]:
        """All stored hashes, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("??/*.json"))

    def entries(self) -> Iterator[dict[str, Any]]:
        """Iterate stored entries (corrupted ones are evicted and skipped)."""
        for key in self.keys():
            entry = self.get(key)
            if entry is not None:
                yield entry

    def runs(self) -> list[dict[str, Any]]:
        """The bundled runs' entries (rows carrying ``recorded_unix``),
        oldest first."""
        runs = [e for e in self.entries() if "recorded_unix" in e["metrics"]]
        runs.sort(key=lambda e: (e["metrics"]["recorded_unix"], e["hash"]))
        return runs

    def resolve(self, prefix: str) -> dict[str, Any]:
        """The one entry whose hash starts with ``prefix``.

        Raises :class:`LookupError` when no entry or several match, or
        when the one match is unreadable (and so evicted).
        """
        matches = [k for k in self.keys() if k.startswith(prefix)]
        if not matches:
            raise LookupError(f"no entry matches {prefix!r} in {self.root}")
        if len(matches) > 1:
            shown = ", ".join(k[:16] for k in matches[:10])
            more = ", ..." if len(matches) > 10 else ""
            raise LookupError(
                f"{prefix!r} is ambiguous ({len(matches)} matches: {shown}{more})"
            )
        entry = self.get(matches[0])
        if entry is None:
            raise LookupError(f"entry {matches[0]} is unreadable and was evicted")
        return entry
