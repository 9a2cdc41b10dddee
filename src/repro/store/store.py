"""Disk-backed content-addressed result store with leases and eviction.

Layout (everything under one root directory)::

    <root>/objects/<digest>.json   one entry per key (atomic writes)
    <root>/leases/<digest>.lease   O_EXCL cross-process execution claims
    <root>/index.json              advisory LRU index (sizes + recency)

``<digest>`` is the sha256 of the canonical JSON encoding of the key
tuple, so the mapping from key to path is a pure function -- any process
that can compute the key can find (or publish) the entry without
coordination.  Entries carry the key itself plus a sha256 over the
payload text; reads verify both, and anything that fails verification is
unlinked and reported as a miss, never returned.

Values are the exact types the engine memoises -- ``ExperimentResult``
and ``DNRError`` via the journal's shared codec -- plus plain strings
for rendered artifacts.  The codec renders floats with ``repr``
(shortest round-trip), so restored values are bit-identical to freshly
computed ones.

Concurrency: one instance is thread-safe (its lock guards only the
in-memory index; file I/O happens through atomic writes).  Across
processes, writers race benignly -- both write byte-identical content
for the same key -- and :meth:`try_lease` gives callers that need
at-most-once *execution* an O_EXCL claim.  Recency is advisory: each
process tracks what it touched; the persisted index is a hint rebuilt
from the objects directory whenever it is missing or stale.  It is
rewritten once per :meth:`ResultStore.put_many` batch, not once per
entry, so index bytes written grow with batches rather than
quadratically with entries.

No wall clock anywhere: recency is a monotonic per-instance sequence
number and lease waits are attempt-counted by the caller, keeping every
store-backed run deterministic enough for the repo's telemetry
contracts (lint rules R001/R006).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro import obs
from repro.faults.atomic import write_text_atomic
from repro.faults.journal import decode_value, encode_value

__all__ = ["ResultStore", "store_from_env", "STORE_VERSION"]

#: Bump when the entry schema changes shape: old entries then fail the
#: version check and degrade to misses (recompute + rewrite), never to
#: misdecoded values.
STORE_VERSION = 1

_OBJECTS_DIR = "objects"
_LEASES_DIR = "leases"
_INDEX_NAME = "index.json"


def _canonical_key(key: tuple) -> str:
    return json.dumps(list(key))


def _digest_key(key: tuple) -> str:
    return hashlib.sha256(_canonical_key(key).encode()).hexdigest()


def _encode(value) -> dict:
    if isinstance(value, str):
        return {"text": value}
    return encode_value(value)


def _decode(payload: dict):
    if "text" in payload:
        text = payload["text"]
        if not isinstance(text, str):
            raise ValueError("text payload must be a string")
        return text
    return decode_value(payload)


class ResultStore:
    """One store directory: get/put by key, leases, LRU eviction.

    Parameters
    ----------
    root:
        The store directory (created lazily on first write).
    max_bytes:
        Advisory size cap over entry payload bytes.  ``None`` (default)
        disables eviction.  When a put pushes the total over the cap,
        least-recently-used entries are evicted until it fits -- except
        entries under an active lease, which are never evicted (their
        owner is about to read or republish them).
    lease_timeout_s, poll_interval_s:
        The wait budget callers use when another process holds a key's
        lease: poll every ``poll_interval_s`` for up to
        ``lease_timeout_s`` (attempt-counted -- the store itself never
        reads a clock), then break the lease and take over.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = None,
        lease_timeout_s: float = 10.0,
        poll_interval_s: float = 0.01,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None to disable)")
        if lease_timeout_s <= 0 or poll_interval_s <= 0:
            raise ValueError("lease_timeout_s and poll_interval_s must be > 0")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.lease_timeout_s = lease_timeout_s
        self.poll_interval_s = poll_interval_s
        self._objects = self.root / _OBJECTS_DIR
        self._leases = self.root / _LEASES_DIR
        self._index_path = self.root / _INDEX_NAME
        self._lock = threading.Lock()
        #: digest -> {"size": int, "seq": int}; None until first use.
        self._entries: dict[str, dict] | None = None
        self._seq = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: tuple):
        """The stored value for ``key``, or ``None`` on a miss.

        Corrupt, truncated or tampered entries (bad JSON, schema/version
        mismatch, key mismatch, sha256 mismatch) are unlinked, counted
        under ``store.corrupt_entries`` and reported as misses.
        """
        digest = _digest_key(key)
        value = self._read_verified(digest, key)
        if value is None:
            obs.incr("store.misses")
            return None
        obs.incr("store.hits")
        with self._lock:
            self._touch_locked(digest)
        return value

    def get_many(self, keys) -> dict:
        """Bulk :meth:`get`: ``key -> value`` for every present key."""
        found = {}
        for key in keys:
            value = self.get(key)
            if value is not None:
                found[key] = value
        return found

    def __contains__(self, key: tuple) -> bool:
        return (self._objects / f"{_digest_key(key)}.json").exists()

    def _read_verified(self, digest: str, key: tuple):
        path = self._objects / f"{digest}.json"
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict) or entry.get("version") != STORE_VERSION:
                raise ValueError("schema/version mismatch")
            payload_text = entry["payload"]
            if not isinstance(payload_text, str):
                raise ValueError("payload must be a JSON string")
            recorded = entry["sha256"]
            actual = hashlib.sha256(payload_text.encode()).hexdigest()
            if recorded != actual:
                raise ValueError("payload sha256 mismatch")
            if entry["key"] != json.loads(_canonical_key(key)):
                raise ValueError("key mismatch")
            return _decode(json.loads(payload_text))
        except (KeyError, TypeError, ValueError):
            obs.incr("store.corrupt_entries")
            try:
                os.unlink(path)
            except OSError:
                pass
            with self._lock:
                self._forget_locked(digest)
            return None

    # ------------------------------------------------------------------
    # Writes / eviction
    # ------------------------------------------------------------------

    def put(self, key: tuple, value) -> None:
        """Publish one entry atomically (idempotent: same key, same bytes)."""
        self.put_many({key: value})

    def put_many(self, items: dict) -> None:
        """Publish a ``key -> value`` map: one entry file each, one index write.

        Each entry file is written atomically on its own; the lock is
        then taken once to record them all, evict once and rewrite
        ``index.json`` once.  If an entry write raises, the entries
        already written are still indexed before the exception
        propagates.
        """
        if not items:
            return
        self._objects.mkdir(parents=True, exist_ok=True)
        written: list[tuple[str, int]] = []
        try:
            for key, value in items.items():
                written.append(self._write_entry(key, value))
        finally:
            if written:
                with self._lock:
                    for digest, size in written:
                        self._touch_locked(digest, size=size)
                    self._evict_locked()
                    self._write_index_locked()

    def _write_entry(self, key: tuple, value) -> tuple[str, int]:
        """Write one entry file; returns its ``(digest, size)``."""
        digest = _digest_key(key)
        payload_text = json.dumps(_encode(value), sort_keys=True)
        entry_text = (
            json.dumps(
                {
                    "version": STORE_VERSION,
                    "key": json.loads(_canonical_key(key)),
                    "payload": payload_text,
                    "sha256": hashlib.sha256(payload_text.encode()).hexdigest(),
                },
                sort_keys=True,
            )
            + "\n"
        )
        write_text_atomic(self._objects / f"{digest}.json", entry_text)
        obs.incr("store.writes")
        obs.incr("store.bytes_written", len(entry_text))
        return digest, len(entry_text)

    def _evict_locked(self) -> None:
        if self.max_bytes is None:
            return
        total = sum(meta["size"] for meta in self._entries.values())
        if total <= self.max_bytes:
            return
        by_recency = sorted(
            self._entries.items(), key=lambda item: (item[1]["seq"], item[0])
        )
        for digest, meta in by_recency:
            if total <= self.max_bytes:
                break
            if (self._leases / f"{digest}.lease").exists():
                continue  # never evict under an active lease
            try:
                os.unlink(self._objects / f"{digest}.json")
            except OSError:
                pass
            total -= meta["size"]
            del self._entries[digest]
            obs.incr("store.evictions")

    # ------------------------------------------------------------------
    # Leases (cross-process single-flight)
    # ------------------------------------------------------------------

    def lease_path(self, key: tuple) -> Path:
        return self._leases / f"{_digest_key(key)}.lease"

    def try_lease(self, key: tuple) -> bool:
        """Claim ``key`` for execution; False if another holder beat us.

        O_CREAT|O_EXCL is atomic on every filesystem the repo targets,
        so exactly one process (and one thread within it) wins.  The
        winner must :meth:`release_lease` after publishing -- or crash,
        in which case waiters take the lease over after their bounded
        wait (:attr:`lease_timeout_s`).
        """
        self._leases.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.lease_path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            obs.incr("store.lease_conflicts")
            return False
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
            os.close(fd)
        obs.incr("store.lease_acquired")
        return True

    def release_lease(self, key: tuple) -> None:
        """Drop a held lease (idempotent; a vanished lease is fine)."""
        try:
            os.unlink(self.lease_path(key))
        except OSError:
            pass

    def lease_active(self, key: tuple) -> bool:
        return self.lease_path(key).exists()

    def break_lease(self, key: tuple) -> None:
        """Forcibly clear a (presumed dead) holder's lease."""
        obs.incr("store.lease_broken")
        self.release_lease(key)

    # ------------------------------------------------------------------
    # Advisory index (sizes + recency)
    # ------------------------------------------------------------------

    def _ensure_index_locked(self) -> None:
        if self._entries is not None:
            return
        self._entries = {}
        try:
            data = json.loads(self._index_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, OSError, ValueError):
            data = None
        if (
            isinstance(data, dict)
            and data.get("version") == STORE_VERSION
            and isinstance(data.get("entries"), dict)
        ):
            for digest, meta in data["entries"].items():
                if (
                    isinstance(meta, dict)
                    and isinstance(meta.get("size"), int)
                    and isinstance(meta.get("seq"), int)
                ):
                    self._entries[digest] = {"size": meta["size"], "seq": meta["seq"]}
            self._seq = max(
                (meta["seq"] for meta in self._entries.values()), default=0
            )
        # Reconcile against the objects directory (sorted: deterministic
        # seq assignment): entries another process wrote join the index,
        # entries that vanished leave it.
        on_disk = {}
        try:
            names = sorted(os.listdir(self._objects))
        except OSError:
            names = []
        for name in names:
            if name.endswith(".json"):
                try:
                    on_disk[name[:-5]] = (self._objects / name).stat().st_size
                except OSError:
                    continue
        for digest in list(self._entries):
            if digest not in on_disk:
                del self._entries[digest]
        for digest, size in on_disk.items():
            if digest not in self._entries:
                self._seq += 1
                self._entries[digest] = {"size": size, "seq": self._seq}
            else:
                self._entries[digest]["size"] = size

    def _touch_locked(self, digest: str, size: int | None = None) -> None:
        self._ensure_index_locked()
        self._seq += 1
        meta = self._entries.get(digest)
        if meta is None:
            if size is None:
                try:
                    size = (self._objects / f"{digest}.json").stat().st_size
                except OSError:
                    return  # raced with an eviction/unlink; nothing to track
            self._entries[digest] = {"size": size, "seq": self._seq}
            return
        meta["seq"] = self._seq
        if size is not None:
            meta["size"] = size

    def _forget_locked(self, digest: str) -> None:
        if self._entries is not None:
            self._entries.pop(digest, None)

    def _write_index_locked(self) -> None:
        snapshot = json.dumps(
            {"version": STORE_VERSION, "entries": self._entries}, sort_keys=True
        )
        write_text_atomic(self._index_path, snapshot + "\n")

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Static shape for /health and ``repro stats``: size and bounds."""
        with self._lock:
            self._ensure_index_locked()
            total = sum(meta["size"] for meta in self._entries.values())
            entries = len(self._entries)
        try:
            leases = sum(
                1 for name in os.listdir(self._leases) if name.endswith(".lease")
            )
        except OSError:
            leases = 0
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total,
            "max_bytes": self.max_bytes,
            "leases": leases,
        }

    def clear(self) -> None:
        """Remove every entry, lease and the index (a fresh store)."""
        with self._lock:
            for directory, suffix in ((self._objects, ".json"), (self._leases, ".lease")):
                try:
                    names = os.listdir(directory)
                except OSError:
                    names = []
                for name in names:
                    if name.endswith(suffix):
                        try:
                            os.unlink(directory / name)
                        except OSError:
                            pass
            try:
                os.unlink(self._index_path)
            except OSError:
                pass
            self._entries = {}
            self._seq = 0


def store_from_env() -> ResultStore | None:
    """The store the ``REPRO_STORE`` environment variable names (if any).

    ``REPRO_STORE_MAX_MB`` (optional) bounds it; parsing failures fall
    back to an unbounded store rather than refusing to start.
    """
    root = os.environ.get("REPRO_STORE")
    if not root:
        return None
    raw_cap = os.environ.get("REPRO_STORE_MAX_MB")
    max_bytes = None
    if raw_cap:
        try:
            max_bytes = max(1, int(raw_cap)) * 2**20
        except ValueError:
            max_bytes = None
    return ResultStore(root, max_bytes=max_bytes)
