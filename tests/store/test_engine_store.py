"""SweepEngine x ResultStore: warm restarts and cross-process single-flight.

A store-backed engine must (a) never recompute what the store already
holds, (b) let exactly one claimant execute each family under
contention, and (c) recover leases abandoned by dead claimants without
wall-clock sleeps leaking into results.
"""

import multiprocessing as mp
import threading

import pytest

from repro import obs
from repro.core.sweep import SweepEngine, expand_grid
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


GRID = expand_grid(("sg2042", "sg2044"), ("ep", "is"), thread_counts=(1, 2))


def test_warm_restart_executes_nothing(tmp_path):
    store = ResultStore(tmp_path / "store")
    cold = SweepEngine(store=store).run_many(GRID, on_dnr="none")

    recorder = obs.install()
    try:
        warm = SweepEngine(store=store).run_many(GRID, on_dnr="none")
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert warm == cold
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["store.hits"] >= len(GRID)
    assert store.stats()["leases"] == 0  # nothing left behind


def _contend(store_root, queue):
    """Child process: 4 threads sweep the same grid against one store."""
    recorder = obs.install()
    engine = SweepEngine(store=ResultStore(store_root))
    results = [None] * 4

    def sweep(i):
        results[i] = engine.run_many(GRID, on_dnr="none")

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    queue.put(recorder.counters_snapshot().get("sweep.configs_executed", 0))


def test_two_processes_execute_each_config_once(tmp_path):
    """8 concurrent sweeps (2 processes x 4 threads), one execution each."""
    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_contend, args=(tmp_path / "store", queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    executed = [queue.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)
    # Every config computed exactly once across all 8 sweeps combined.
    assert sum(executed) == len(GRID)

    # And the store now warm-serves a ninth sweep with zero executions.
    recorder = obs.install()
    try:
        warm = SweepEngine(store=ResultStore(tmp_path / "store")).run_many(
            GRID, on_dnr="none"
        )
    finally:
        obs.disable()
    assert len(warm) == len(GRID)
    assert recorder.counters_snapshot().get("sweep.configs_executed", 0) == 0


def test_takeover_after_lease_timeout(tmp_path):
    """A lease whose holder died mid-run is broken and re-claimed."""
    store = ResultStore(tmp_path / "store", lease_timeout_s=0.05, poll_interval_s=0.01)
    # Simulate a crashed claimant: lease held, result never published.
    dead_key = SweepEngine().cache_key(GRID[0])
    assert store.try_lease(dead_key)

    recorder = obs.install()
    try:
        engine = SweepEngine(store=store)
        results = engine.run_many(GRID, on_dnr="none")
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert len(results) == len(GRID)
    assert counters["store.lease_timeouts"] >= 1
    assert store.stats()["leases"] == 0


def test_orphan_lease_taken_over_without_timeout(tmp_path):
    """If the foreign lease vanishes with no entry, take over immediately."""
    store = ResultStore(tmp_path / "store", lease_timeout_s=10.0, poll_interval_s=0.01)
    engine = SweepEngine(store=store)
    orphan_key = engine.cache_key(GRID[0])
    assert store.try_lease(orphan_key)

    # First wait iteration sleeps; release the lease there so the next
    # iteration observes lease-gone + entry-missing and claims it.
    engine._sleep = lambda _s: store.release_lease(orphan_key)

    recorder = obs.install()
    try:
        results = engine.run_many(GRID, on_dnr="none")
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert len(results) == len(GRID)
    assert counters["store.lease_takeovers"] >= 1
    assert counters.get("store.lease_timeouts", 0) == 0  # no 10 s wait burned
    assert store.stats()["leases"] == 0


def test_takeover_absorbs_entry_published_before_release(tmp_path, monkeypatch):
    """An owner that publishes, then releases, between two polls is not re-run.

    The waiter polls the store (miss), then finds the lease gone; the
    entry published in between must be absorbed, not recomputed.
    """
    store = ResultStore(tmp_path / "store", lease_timeout_s=10.0, poll_interval_s=0.01)
    engine = SweepEngine(store=store)
    owned = engine.cache_key(GRID[0])
    owner_result = SweepEngine().run(GRID[0])
    assert store.try_lease(owned)  # another process is executing GRID[0]
    lease_active = store.lease_active

    def owner_finishes_first(key):
        if key == owned and lease_active(key):
            store.put_many({owned: owner_result})
            store.release_lease(owned)
        return lease_active(key)

    monkeypatch.setattr(store, "lease_active", owner_finishes_first)
    recorder = obs.install()
    try:
        results = engine.run_many(GRID, on_dnr="none")
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert results[0] == owner_result
    assert counters["sweep.configs_executed"] == len(GRID) - 1
    assert store.stats()["leases"] == 0
