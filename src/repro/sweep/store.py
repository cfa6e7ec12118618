"""Content-addressed on-disk store for sweep results.

Each finished experiment is stored under the SHA-256 of its config's
canonical JSON (sorted keys, compact separators), so the config *is* the
cache key: any changed field -- seed, horizon, a params value, a churn
kwarg, even the display ``name`` -- yields a different hash and therefore a
cache miss, while an identical config is a hit regardless of which sweep
asked for it.  (Including ``name`` is deliberate: the identity stays "every
field", at worst costing a conservative recompute for a relabelled config.)

Layout (sharded on the first two hash characters to keep directories
small)::

    <root>/ab/abcdef....json   # {"hash": ..., "config": ..., "metrics": ...}

Entries are written atomically (temp file + rename) so an interrupted sweep
never leaves a half-written entry; a corrupted or unreadable entry is
*evicted* on read (deleted, treated as a miss) rather than poisoning the
sweep.  :attr:`ResultStore.writes` counts entries written through this
instance -- tests use it to assert that a warm rerun touches nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = ["ResultStore", "config_hash"]

#: Bumped when a stored metric changes meaning, so an older entry is
#: evicted, not misread (2: the envelope columns are the oracle's).
_ENTRY_VERSION = 2


def canonical_json(data: Mapping[str, Any]) -> str:
    """Serialize ``data`` to the canonical JSON form used for hashing."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(config_dict: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a config dict's canonical JSON."""
    return hashlib.sha256(canonical_json(config_dict).encode("utf-8")).hexdigest()


class ResultStore:
    """Content-addressed ``config-hash -> summary-metrics`` store.

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
        """Entry path for a full config hash."""
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
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.writes += 1
        return entry

    # ------------------------------------------------------------------ #
    # Enumeration (CLI `ls` / `show`)
    # ------------------------------------------------------------------ #

    def keys(self) -> list[str]:
        """All stored hashes, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem
            for p in self.root.glob("??/*.json")
            if not p.name.startswith(".tmp-")
        )

    def entries(self) -> Iterator[dict[str, Any]]:
        """Iterate stored entries (corrupted ones are evicted and skipped)."""
        for key in self.keys():
            entry = self.get(key)
            if entry is not None:
                yield entry

    def find(self, prefix: str) -> list[str]:
        """Stored hashes starting with ``prefix`` (for CLI `show`)."""
        return [k for k in self.keys() if k.startswith(prefix)]

