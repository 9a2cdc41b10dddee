"""Cold vs warm differential suite across every request kind.

For each artifact kind (sweep, table, figure, whatif), a cold run
against an empty store and a warm run from a **fresh** engine sharing
only the store directory must render byte-identical text -- and the
warm run must execute zero configs.  Table 2 includes DNR cells, so the
suite also pins the DNR-through-store path explicitly.
"""

import pytest

from repro import obs
from repro.core.perfmodel import DNRError
from repro.core.sweep import ExperimentConfig, SweepEngine
from repro.service import execute_request, parse_request
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


PAYLOADS = [
    pytest.param(
        {
            "kind": "sweep",
            "machines": ["sg2044", "sg2042"],
            "kernels": ["ep", "is"],
            "threads": [1, 4],
        },
        id="sweep",
    ),
    # Table 2 renders DNR cells: the store must round-trip those too.
    pytest.param({"kind": "table", "number": 2}, id="table2"),
    pytest.param({"kind": "figure", "number": 5}, id="figure5"),
    pytest.param({"kind": "whatif", "kernel": "ep", "threads": [8]}, id="whatif-ep"),
]


@pytest.mark.parametrize("payload", PAYLOADS)
def test_warm_artifact_is_byte_identical(payload, tmp_path):
    request = parse_request(payload)
    store = ResultStore(tmp_path / "store")

    cold = execute_request(SweepEngine(store=store), request)

    recorder = obs.install()
    try:
        warm = execute_request(SweepEngine(store=store), request)
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert warm == cold
    assert counters.get("sweep.configs_executed", 0) == 0
    if payload["kind"] != "whatif":  # whatif is analytic: no engine work
        assert counters["store.hits"] >= 1


def test_dnr_served_from_store(tmp_path):
    """A config that does-not-run raises the same DNR warm as cold."""
    store = ResultStore(tmp_path / "store")
    # FT class B needs more DRAM than the Allwinner D1 carries.
    config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")

    with pytest.raises(DNRError) as cold:
        SweepEngine(store=store).run(config)

    recorder = obs.install()
    try:
        with pytest.raises(DNRError) as warm:
            SweepEngine(store=store).run(config)
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert str(warm.value) == str(cold.value)
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["store.hits"] >= 1
