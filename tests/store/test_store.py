"""ResultStore units: round-trips, integrity, leases, LRU eviction.

The store's one promise is that a hit is indistinguishable from a
recompute: values round-trip bit-identically, anything that fails
verification degrades to a miss (never a wrong answer), and leases make
execution at-most-once without ever blocking a read.
"""

import json

import pytest

from repro import obs
from repro.core.perfmodel import DNRError
from repro.core.sweep import SweepEngine, expand_grid
from repro.store import STORE_VERSION, ResultStore, store_from_env


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _entry_path(store, key):
    """The object file backing ``key`` (tests may corrupt it at will)."""
    return store._objects / store.lease_path(key).name.replace(".lease", ".json")


class TestRoundTrip:
    def test_text(self, store):
        store.put(("artifact", "sweep-abc"), "machine,kernel\nsg2044,ep\n")
        assert store.get(("artifact", "sweep-abc")) == "machine,kernel\nsg2044,ep\n"

    def test_miss_is_none(self, store):
        assert store.get(("nope",)) is None
        assert ("nope",) not in store

    def test_contains(self, store):
        store.put(("k",), "v")
        assert ("k",) in store

    def test_experiment_results_bit_identical(self, store):
        engine = SweepEngine()
        grid = expand_grid("sg2044", ("ep", "cg"), thread_counts=(1, 2))
        results = engine.run_many(grid, on_dnr="none")
        for config, result in zip(grid, results):
            key = engine.cache_key(config)
            store.put(key, result)
            assert store.get(key) == result  # == is exact, not approximate

    def test_dnr_round_trip(self, store):
        engine = SweepEngine()
        from repro.core.sweep import ExperimentConfig

        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        with pytest.raises(DNRError) as exc:
            engine.run(config)
        key = engine.cache_key(config)
        store.put(key, exc.value)
        restored = store.get(key)
        assert isinstance(restored, DNRError)
        assert str(restored) == str(exc.value)

    def test_second_instance_same_root_sees_entries(self, store, tmp_path):
        store.put(("shared",), "payload")
        other = ResultStore(tmp_path / "store")
        assert other.get(("shared",)) == "payload"

    def test_get_many_returns_only_hits(self, store):
        store.put(("a",), "1")
        store.put(("b",), "2")
        found = store.get_many([("a",), ("b",), ("c",)])
        assert found == {("a",): "1", ("b",): "2"}


class TestIntegrity:
    def _counters(self):
        return obs.recorder().counters_snapshot()

    def test_truncated_entry_is_a_miss_then_rewritable(self, store):
        store.put(("k",), "some artifact text")
        path = _entry_path(store, ("k",))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

        recorder = obs.install()
        try:
            assert store.get(("k",)) is None  # miss, not garbage
        finally:
            obs.disable()
        assert recorder.counters_snapshot()["store.corrupt_entries"] == 1
        assert not path.exists()  # quarantined by unlink

        # The recompute-and-rewrite path restores service.
        store.put(("k",), "some artifact text")
        assert store.get(("k",)) == "some artifact text"

    def test_tampered_payload_fails_sha(self, store):
        store.put(("k",), "honest text")
        path = _entry_path(store, ("k",))
        entry = json.loads(path.read_text())
        entry["payload"] = json.dumps({"text": "tampered text"})
        path.write_text(json.dumps(entry))
        assert store.get(("k",)) is None

    def test_version_mismatch_is_a_miss(self, store):
        store.put(("k",), "text")
        path = _entry_path(store, ("k",))
        entry = json.loads(path.read_text())
        entry["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(("k",)) is None

    def test_key_mismatch_is_a_miss(self, store):
        # An entry filed under the wrong digest (e.g. a botched manual
        # copy) must not be served for the colliding key.
        store.put(("a",), "a's value")
        wrong = _entry_path(store, ("b",))
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(_entry_path(store, ("a",)).read_text())
        assert store.get(("b",)) is None
        assert store.get(("a",)) == "a's value"

    def test_non_json_entry_is_a_miss(self, store):
        store.put(("k",), "text")
        _entry_path(store, ("k",)).write_text("not json at all {")
        assert store.get(("k",)) is None


class TestLeases:
    def test_exclusive_claim(self, store):
        assert store.try_lease(("k",)) is True
        assert store.try_lease(("k",)) is False  # held
        assert store.lease_active(("k",))
        store.release_lease(("k",))
        assert not store.lease_active(("k",))
        store.release_lease(("k",))  # idempotent
        assert store.try_lease(("k",)) is True

    def test_break_lease(self, store):
        store.try_lease(("k",))
        store.break_lease(("k",))
        assert store.try_lease(("k",)) is True

    def test_lease_does_not_block_reads(self, store):
        store.put(("k",), "v")
        store.try_lease(("k",))
        assert store.get(("k",)) == "v"


class TestEviction:
    def _sized_store(self, tmp_path, n_keep):
        """A store whose cap fits ``n_keep`` same-sized entries."""
        probe = ResultStore(tmp_path / "probe")
        probe.put(("probe", 0), "x" * 64)
        size = probe.stats()["bytes"]
        return ResultStore(tmp_path / "store", max_bytes=n_keep * size + size // 2)

    def test_lru_eviction_under_cap(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(("probe", 1), "a" * 64)
        store.put(("probe", 2), "b" * 64)
        store.put(("probe", 3), "c" * 64)  # pushes over: evicts oldest
        assert store.get(("probe", 1)) is None
        assert store.get(("probe", 2)) == "b" * 64
        assert store.get(("probe", 3)) == "c" * 64
        assert store.stats()["bytes"] <= store.max_bytes

    def test_get_refreshes_recency(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(("probe", 1), "a" * 64)
        store.put(("probe", 2), "b" * 64)
        assert store.get(("probe", 1)) == "a" * 64  # bump 1 past 2
        store.put(("probe", 3), "c" * 64)
        assert store.get(("probe", 1)) == "a" * 64  # survived
        assert store.get(("probe", 2)) is None  # evicted instead

    def test_leased_entry_never_evicted(self, tmp_path):
        store = self._sized_store(tmp_path, 2)
        store.put(("probe", 1), "a" * 64)
        store.put(("probe", 2), "b" * 64)
        store.try_lease(("probe", 1))  # oldest, but claimed
        try:
            store.put(("probe", 3), "c" * 64)
            assert store.get(("probe", 1)) == "a" * 64  # protected
            assert store.get(("probe", 2)) is None  # next-oldest went instead
        finally:
            store.release_lease(("probe", 1))

    def test_eviction_counter(self, tmp_path):
        store = self._sized_store(tmp_path, 1)
        recorder = obs.install()
        try:
            store.put(("probe", 1), "a" * 64)
            store.put(("probe", 2), "b" * 64)
        finally:
            obs.disable()
        assert recorder.counters_snapshot()["store.evictions"] >= 1

    def test_max_bytes_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultStore(tmp_path / "s", max_bytes=0)
        with pytest.raises(ValueError, match="lease_timeout_s"):
            ResultStore(tmp_path / "s", lease_timeout_s=0)


class TestIndex:
    def test_rebuilt_after_index_loss(self, store, tmp_path):
        store.put(("a",), "1")
        store.put(("b",), "2")
        (tmp_path / "store" / "index.log").unlink()
        fresh = ResultStore(tmp_path / "store")
        assert fresh.stats()["entries"] == 2
        assert fresh.get(("a",)) == "1"
        fresh.put(("c",), "3")  # the rebuilt index is persisted whole
        assert len(_index(fresh)) == 3

    def test_corrupt_index_is_rebuilt(self, store, tmp_path):
        store.put(("a",), "1")
        (tmp_path / "store" / "index.log").write_text("{broken")
        fresh = ResultStore(tmp_path / "store")
        assert fresh.stats()["entries"] == 1

    def test_stats_shape(self, store):
        stats = store.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["max_bytes"] is None and stats["leases"] == 0
        store.put(("k",), "v")
        store.try_lease(("other",))
        try:
            stats = store.stats()
            assert stats["entries"] == 1 and stats["bytes"] > 0
            assert stats["leases"] == 1
        finally:
            store.release_lease(("other",))

    def test_clear(self, store):
        store.put(("k",), "v")
        store.try_lease(("k",))
        store.clear()
        assert store.get(("k",)) is None
        assert store.stats() == {
            "root": str(store.root),
            "entries": 0,
            "bytes": 0,
            "max_bytes": None,
            "leases": 0,
        }


def _index(store) -> dict:
    """The persisted index, ``digest -> size`` oldest first, as a fresh
    :class:`ResultStore` on the same root replays it (before reconciling
    with the objects directory, so an unindexed entry stays absent)."""
    return ResultStore(store.root)._load_index()


def _digest(store, key) -> str:
    return _entry_path(store, key).name[: -len(".json")]


def _spy_index_writes(monkeypatch) -> list[tuple[str, str]]:
    """Record ``(file name, text)`` for every write the store makes,
    whether through the atomic writer or the index log's append."""
    from repro.store import store as store_module

    writes = []
    for name in ("write_text_atomic", "_append_text"):
        real = getattr(store_module, name)

        def spy(path, text, *args, _real=real, **kwargs):
            writes.append((path.name, text))
            return _real(path, text, *args, **kwargs)

        monkeypatch.setattr(store_module, name, spy)
    return writes


def _objects(store) -> dict:
    return {p.name: p.read_bytes() for p in sorted(store._objects.iterdir())}


_BATCH = {("batch", i): f"value {i}\n" * (i + 1) for i in range(6)}


class TestPutMany:
    """One batch: every entry file as a lone put writes it, one index write."""

    def test_writes_index_once(self, store, monkeypatch):
        writes = _spy_index_writes(monkeypatch)
        store.put_many(_BATCH)
        paths = [name for name, _ in writes]
        assert paths.count("index.log") == 1
        assert len(paths) == len(_BATCH) + 1

    def test_matches_sequential_puts(self, tmp_path):
        batched = ResultStore(tmp_path / "batched")
        batched.put(("old",), "written before the batch")
        batched.put_many(_BATCH)
        sequential = ResultStore(tmp_path / "sequential")
        sequential.put(("old",), "written before the batch")
        for key, value in _BATCH.items():
            sequential.put(key, value)

        assert _objects(batched) == _objects(sequential)  # byte-identical
        a, b = _index(batched), _index(sequential)
        assert a == b  # the same sizes
        assert list(a) == list(b)  # in the same recency order

    def test_fault_mid_batch_indexes_earlier_entries(self, store):
        from repro import faults
        from repro.faults import InjectedIOError

        keys = list(_BATCH)
        failing = _entry_path(store, keys[3]).name

        class FailOneEntry(faults.FaultPlan):
            def inject(self, site, key, kinds=("transient", "slow")):
                if site == "io.write" and key.endswith(failing):
                    raise InjectedIOError(f"injected I/O fault at {site}[{key}]")

        faults.install(FailOneEntry(seed=0))
        try:
            with pytest.raises(InjectedIOError):
                store.put_many(_BATCH)
        finally:
            faults.disable()

        indexed = set(_index(store))
        written = {_digest(store, key) for key in keys[:3]}
        assert indexed == written
        assert not list(store.root.rglob("*.tmp"))
        for key in keys[:3]:
            assert store.get(key) == _BATCH[key]
        assert store.get(keys[3]) is None

    def test_batch_over_cap_never_evicts_a_leased_entry(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        probe.put(("probe", 0), "x" * 64)
        size = probe.stats()["bytes"]
        store = ResultStore(tmp_path / "store", max_bytes=2 * size + size // 2)
        store.put(("probe", 1), "a" * 64)  # oldest, but claimed below
        store.try_lease(("probe", 1))
        try:
            store.put_many({("probe", i): ch * 64 for i, ch in ((2, "b"), (3, "c"), (4, "d"))})
            assert store.get(("probe", 1)) == "a" * 64  # protected
            assert store.get(("probe", 2)) is None  # LRU unleased entries went
            assert store.get(("probe", 3)) is None
            assert store.get(("probe", 4)) == "d" * 64
        finally:
            store.release_lease(("probe", 1))


class TestIndexLog:
    """The index costs its batch: one appended line per touched entry."""

    def _filled(self, root, n):
        store = ResultStore(root)
        store.put_many({("fill", i): f"{i}" for i in range(n)})
        return store

    def test_batch_index_bytes_do_not_grow_with_the_store(self, tmp_path, monkeypatch):
        small = self._filled(tmp_path / "small", 10)
        large = self._filled(tmp_path / "large", 2_000)
        batch = {("batch", i): f"value {i}\n" for i in range(5)}
        writes = _spy_index_writes(monkeypatch)

        def index_bytes(store):
            del writes[:]
            store.put_many(batch)
            return sum(len(text) for name, text in writes if name == "index.log")

        assert index_bytes(small) == index_bytes(large) == 5 * len(
            f"{_digest(small, ('batch', 0))} {len(_entry_path(small, ('batch', 0)).read_text())}\n"
        )

    def test_lru_order_survives_a_restart(self, tmp_path):
        first = ResultStore(tmp_path / "store")
        for i in range(1, 5):
            first.put(("probe", i), "x" * 64)
        assert first.get(("probe", 1)) == "x" * 64  # 1 is now the newest
        first.put(("probe", 5), "x" * 64)  # the batch persists that touch
        size = first.stats()["bytes"] // 5

        capped = ResultStore(tmp_path / "store", max_bytes=5 * size + size // 2)
        capped.put(("probe", 6), "x" * 64)
        assert capped.get(("probe", 2)) is None  # the previous instance's LRU
        for i in (1, 3, 4, 5, 6):
            assert capped.get(("probe", i)) == "x" * 64

    def test_torn_last_line_is_ignored(self, store):
        store.put(("a",), "1")
        store.put(("b",), "2")
        expected = _index(store)
        assert list(expected) == [_digest(store, ("a",)), _digest(store, ("b",))]
        with open(store.root / "index.log", "a") as log:
            log.write(f"{_digest(store, ('a',))} 1")  # torn: no newline

        fresh = ResultStore(store.root)
        assert _index(fresh) == expected and list(_index(fresh)) == list(expected)
        assert fresh.stats()["entries"] == 2
        fresh.put(("c",), "3")  # the next flush rewrites the torn tail away
        assert (store.root / "index.log").read_text().endswith("\n")
        assert list(_index(fresh)) == list(expected) + [_digest(store, ("c",))]

    def test_parent_format_store_opens_with_every_entry(self, store):
        keys = [("legacy", i) for i in range(4)]
        for key in keys:
            store.put(key, f"value {key[1]}")
        total = store.stats()["bytes"]
        # Rewrite the index as the pre-log format did: one JSON snapshot.
        sizes = _index(store)
        (store.root / "index.log").unlink()
        legacy = {
            digest: {"size": size, "seq": seq}
            for seq, (digest, size) in enumerate(sizes.items(), 1)
        }
        (store.root / "index.json").write_text(
            json.dumps({"version": STORE_VERSION, "entries": legacy}, sort_keys=True)
        )

        fresh = ResultStore(store.root)
        assert fresh.stats()["entries"] == 4 and fresh.stats()["bytes"] == total
        for key in keys:
            assert fresh.get(key) == f"value {key[1]}"
        fresh.put(("new",), "n")  # the first write leaves one index file
        assert not (store.root / "index.json").exists()
        assert len(_index(fresh)) == 5

    def test_threads_keep_the_running_total_exact(self, tmp_path):
        """8 threads putting, reading and evicting through one instance:
        a lost update to the running byte total would break the match
        with the files on disk."""
        import sys
        import threading

        probe = ResultStore(tmp_path / "probe")
        probe.put(("t", 0, 0), "x" * 32)
        size = probe.stats()["bytes"]
        store = ResultStore(tmp_path / "store", max_bytes=40 * size)
        errors = []

        def worker(t):
            try:
                for r in range(15):
                    store.put_many({("t", t, r, i): "x" * 32 for i in range(3)})
                    store.get(("t", t, r, 0))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors

        on_disk = sorted(store._objects.iterdir())
        stats = store.stats()
        assert stats["entries"] == len(on_disk)
        assert stats["bytes"] == sum(path.stat().st_size for path in on_disk)
        assert stats["bytes"] <= store.max_bytes
        assert ResultStore(store.root, max_bytes=store.max_bytes).stats() == stats

    def test_log_is_compacted_once_mostly_stale(self, store):
        store.put_many({("k", i): str(i) for i in range(4)})
        for _ in range(20):
            store.get(("k", 0))
            store.put(("k", 1), "1")
        lines = (store.root / "index.log").read_text().splitlines()
        assert len(lines) <= 2 * 4
        assert list(_index(store))[-2:] == [_digest(store, ("k", 0)), _digest(store, ("k", 1))]


class TestStoreFromEnv:
    def test_absent_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert store_from_env() is None

    def test_root_and_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "8")
        store = store_from_env()
        assert store.root == tmp_path / "envstore"
        assert store.max_bytes == 8 * 2**20

    def test_bogus_cap_falls_back_to_unbounded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "a-lot")
        store = store_from_env()
        assert store is not None and store.max_bytes is None
