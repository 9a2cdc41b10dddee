"""Host-side functional NPB kernels (class S) -- the library's own speed.

The ``cold_`` entries time the shared ``randlc`` stream and CG ``makea``
from empty caches, as a fresh process pays for them.
"""

import pytest

from repro.npb import cg
from repro.npb.common import NPBClass, Randlc, _power_table
from repro.npb.params import cg_params
from repro.npb.suite import run_benchmark

KERNELS = ["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_functional_class_s(benchmark, kernel, time_best_of, bench_artifact):
    run_s, result = time_best_of(
        f"npb.class_s_{kernel}",
        lambda: benchmark.pedantic(
            run_benchmark, args=(kernel, "S"), iterations=1, rounds=1
        ),
        1,
    )
    assert result.verified
    bench_artifact(
        f"npb.class_s_{kernel}", run_s=run_s, verified=result.verified
    )


def test_cold_randlc_2p19(time_best_of, bench_artifact):
    n = 1 << 19

    def fresh_stream():
        _power_table.cache_clear()
        return Randlc()

    run_s, u = time_best_of(
        "npb.cold_randlc_2p19", lambda rng: rng.generate(n), 5, setup=fresh_stream
    )
    assert u.shape == (n,)
    bench_artifact("npb.cold_randlc_2p19", run_s=run_s, values_per_s=n / run_s)


def test_cold_cg_makea_w(time_best_of, bench_artifact):
    params = cg_params(NPBClass.W)
    run_s, (a, _rng) = time_best_of(
        "npb.cold_cg_makea_W",
        lambda _: cg.make_matrix(params),
        3,
        setup=cg.clear_matrix_cache,
    )
    cg.clear_matrix_cache()
    assert a.shape == (params.n, params.n)
    bench_artifact("npb.cold_cg_makea_W", run_s=run_s, nnz=a.nnz)
