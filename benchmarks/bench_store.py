"""Result-store microbenchmarks: put/get throughput and warm restart.

The store's job is to be cheaper than recomputation by a wide margin:
a ``get`` is one file read + sha256 over a small JSON entry, a ``put``
is one atomic write.  These benches put numbers on that floor and pin
the engine-level contract -- a fresh engine sharing only the store
directory re-runs a grid with **zero** configs executed and
bit-identical results.

Reported per run (schema-v1 bench artifact): put/get ops per second
over a small-result corpus, the warm-restart hit counters, and the cost
of one small batch published into a large store.

``store.put_get_throughput`` only ever writes into an empty store, so
it could not show a write cost that grows with the store: when every
batch rewrote the whole index, a 5-entry ``put_many`` took ~5 ms at
3,000 entries and ~13 ms at 10,000 (2-CPU x86_64, Python 3.11).  ``store.warm_put_many_5_into_5k``
pins that shape: a batch must cost its own entries, not the store's.
"""

import itertools

from repro import obs
from repro.core.sweep import SweepEngine, expand_grid
from repro.store import ResultStore

_N_ENTRIES = 200
_N_PREFILL = 5_000
_BATCH = 5


def test_store_put_get_throughput(benchmark, bench_artifact, time_best_of, tmp_path):
    store = ResultStore(tmp_path / "store")
    items = {
        ("bench", "entry", i): f"machine,kernel,mops\nsg2044,ep,{i * 1.25}\n"
        for i in range(_N_ENTRIES)
    }

    def put_all():
        store.put_many(items)

    def get_all():
        found = store.get_many(list(items))
        assert len(found) == _N_ENTRIES
        return found

    put_s, _ = time_best_of("store.put_many", put_all, 3)
    get_s, found = time_best_of("store.get_many", get_all, 3)
    assert found[("bench", "entry", 7)] == items[("bench", "entry", 7)]

    benchmark(get_all)
    benchmark.extra_info["get_ops_per_s"] = round(_N_ENTRIES / get_s)
    bench_artifact(
        "store.put_get_throughput",
        entries=_N_ENTRIES,
        put_s=put_s,
        get_s=get_s,
        put_ops_per_s=_N_ENTRIES / put_s,
        get_ops_per_s=_N_ENTRIES / get_s,
    )


def test_warm_put_many_into_large_store(bench_artifact, time_best_of, tmp_path):
    """A 5-entry batch into a store already holding 5,000 entries.

    Warm: the instance has loaded its index before the timed rounds, as
    a long-running service has.  Every round publishes new keys.
    """
    store = ResultStore(tmp_path / "store")
    store.put_many(
        {("bench", "fill", i): f"sg2044,ep,{i * 1.25}\n" for i in range(_N_PREFILL)}
    )
    rounds = itertools.count()

    def fresh_batch():
        r = next(rounds)
        return {("bench", "batch", r, i): f"sg2044,cg,{i}\n" for i in range(_BATCH)}

    put_s, _ = time_best_of(
        "store.warm_put_many_5_into_5k", store.put_many, 3, setup=fresh_batch
    )
    assert store.stats()["entries"] == _N_PREFILL + _BATCH * next(rounds)

    bench_artifact(
        "store.warm_put_many_5_into_5k",
        prefill_entries=_N_PREFILL,
        batch_entries=_BATCH,
        put_s=put_s,
    )


def test_engine_warm_restart(benchmark, bench_artifact, time_best_of, tmp_path):
    """A fresh engine over a populated store executes nothing at all."""
    grid = expand_grid(
        ("sg2042", "sg2044"), ("is", "ep", "mg", "cg"), thread_counts=(1, 4, 16)
    )
    store = ResultStore(tmp_path / "store")
    cold = SweepEngine(store=store).run_many(grid, on_dnr="none")

    recorder = obs.install()
    try:
        warm_s, warm = time_best_of(
            "store.engine_warm_restart",
            lambda engine: engine.run_many(grid, on_dnr="none"),
            3,
            setup=lambda: SweepEngine(store=store),
        )
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert warm == cold  # bit-identical, not approximately equal
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["store.hits"] >= len(grid)

    benchmark(lambda: SweepEngine(store=store).run_many(grid, on_dnr="none"))
    benchmark.extra_info["warm_restart_s"] = round(warm_s, 4)
    bench_artifact(
        "store.engine_warm_restart",
        configs=len(grid),
        warm_s=warm_s,
        store_hits=counters["store.hits"],
        configs_executed=counters.get("sweep.configs_executed", 0),
    )
