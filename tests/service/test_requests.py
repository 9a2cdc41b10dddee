"""Request parsing, canonical identity and artifact rendering units."""

import pytest

from repro.core.sweep import SweepEngine
from repro.harness import build_table
from repro.service import (
    RequestError,
    estimate,
    execute_request,
    parse_request,
    request_configs,
    request_job_id,
)


@pytest.fixture(scope="module")
def engine():
    return SweepEngine(jobs=1)


SWEEP = {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [1, 2]}


class TestParsing:
    def test_sweep_round_trip(self):
        request = parse_request(SWEEP)
        assert request.kind == "sweep"
        assert request.machines == ("sg2044",)
        assert request.threads == (1, 2)
        configs = request_configs(request)
        assert [c.n_threads for c in configs] == [1, 2]

    def test_axis_spelling_is_canonicalised(self):
        a = parse_request(SWEEP)
        b = parse_request(
            {
                "kind": "sweep",
                "machines": "sg2044",  # bare string promotes to a list
                "kernels": ["ep", "ep"],
                "threads": [2, 1, 2],
            }
        )
        assert a == b

    def test_table_and_figure(self):
        assert parse_request({"kind": "table", "number": 3}).number == 3
        assert parse_request({"kind": "figure", "number": 5}).kind == "figure"
        assert request_configs(parse_request({"kind": "table", "number": 3}))

    def test_whatif(self):
        request = parse_request({"kind": "whatif", "kernel": "ep", "threads": 16})
        assert request.kernel == "ep"
        assert request.n_threads == 16
        assert request_configs(request) == []

    def test_sweep_threads_up_to_core_count_accepted(self):
        request = parse_request(
            {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [64]}
        )
        assert [c.n_threads for c in request_configs(request)] == [64]

    def test_whatif_threads_up_to_core_count_accepted(self):
        request = parse_request({"kind": "whatif", "kernel": "ep", "threads": 64})
        assert request.n_threads == 64

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"kind": "nonsense"},
            {"kind": "table", "number": 99},
            {"kind": "figure", "number": 0},
            {"kind": "whatif", "kernel": "nope"},
            {"kind": "sweep", "kernels": ["ep"]},  # no machines
            {"kind": "sweep", "machines": [], "kernels": ["ep"]},
            {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [0]},
            {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "classes": ["Z"]},
            {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "vectorise": "yes"},
            {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "runs": 0},
            {"kind": "sweep", "machines": ["no-such-machine"], "kernels": ["ep"]},
            {"kind": "sweep", "machines": ["sg2044"], "kernels": ["no-such-kernel"]},
            {"kind": "whatif", "kernel": []},  # unhashable, not a str
            {"kind": "whatif", "kernel": "ep", "threads": [1, 2]},
            {"kind": "whatif", "kernel": "ep", "threads": 10**9},
            {"kind": "whatif", "kernel": "ep", "threads": 65},  # one past 64 cores
            {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [65]},
            {  # 4 threads fit the SG2044 but not the single-core D1
                "kind": "sweep",
                "machines": ["sg2044", "allwinner-d1"],
                "kernels": ["ep"],
                "threads": [4],
            },
            {
                "kind": "sweep",
                "machines": ["sg2044"],
                "kernels": ["ep"],
                "classes": ["A"],
                "threads": [10**9],
            },
        ],
    )
    def test_rejects(self, payload):
        with pytest.raises(RequestError):
            parse_request(payload)


class TestIdentity:
    def test_same_work_same_id(self, engine):
        a = request_job_id(engine, parse_request(SWEEP))
        b = request_job_id(
            engine,
            parse_request(
                {
                    "kind": "sweep",
                    "machines": ["sg2044"],
                    "kernels": ["ep"],
                    "threads": [2, 1],
                }
            ),
        )
        assert a == b
        assert a.startswith("sweep-")

    def test_different_grid_different_id(self, engine):
        a = request_job_id(engine, parse_request(SWEEP))
        b = request_job_id(
            engine,
            parse_request(
                {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [1]}
            ),
        )
        assert a != b

    def test_runner_settings_enter_the_id(self):
        from repro.core.experiment import ExperimentRunner

        request = parse_request(SWEEP)
        a = request_job_id(SweepEngine(jobs=1), request)
        b = request_job_id(
            SweepEngine(runner=ExperimentRunner(seed=123), jobs=1), request
        )
        assert a != b

    def test_estimate_counts_grid(self, engine):
        cost = estimate(engine, parse_request(SWEEP))
        assert cost["configs"] == 2
        assert cost["families"] == 1
        from repro.harness.tables import table_grid

        table = estimate(engine, parse_request({"kind": "table", "number": 3}))
        assert table["configs"] == len(table_grid(3))
        assert table["families"] == len({c.family_key() for c in table_grid(3)})


class TestExecution:
    def test_sweep_csv_shape_and_determinism(self, engine):
        request = parse_request(SWEEP)
        first = execute_request(engine, request)
        second = execute_request(SweepEngine(jobs=1), request)
        assert first == second  # cold vs warm/fresh engines, same bytes
        lines = first.strip().splitlines()
        assert lines[0].startswith("machine,kernel,class,")
        assert len(lines) == 3
        assert lines[1].startswith("sg2044,ep,C,1,")
        assert lines[1].endswith(",ok")

    def test_sweep_csv_marks_dnr(self, engine):
        # FT class C does not fit the Allwinner D1's 1 GiB of DRAM.
        request = parse_request(
            {
                "kind": "sweep",
                "machines": ["allwinner-d1"],
                "kernels": ["ft"],
                "threads": [1],
            }
        )
        artifact = execute_request(engine, request)
        assert artifact.strip().splitlines()[1].endswith(",,,DNR")

    def test_table_artifact_matches_harness(self, engine):
        request = parse_request({"kind": "table", "number": 3})
        assert execute_request(engine, request) == build_table(3).to_csv()

    def test_table_runs_entirely_on_the_given_engine(self):
        """The builder must reuse the prefetching engine, not the default.

        A private engine (the service's) executes the table grid once;
        if the builder silently fell back to ``default_engine()`` the
        grid would run twice and the per-job journal would miss the
        builder's work.
        """
        from repro import obs
        from repro.core.sweep import clear_caches
        from repro.harness.tables import table_grid

        clear_caches()  # a warm default engine would mask a fallback
        private = SweepEngine(jobs=1)
        recorder = obs.install()
        try:
            execute_request(private, parse_request({"kind": "table", "number": 4}))
        finally:
            obs.disable()
        counters = recorder.counters_snapshot()
        assert counters["sweep.configs_executed"] == len(table_grid(4))

    def test_whatif_artifact(self, engine):
        request = parse_request({"kind": "whatif", "kernel": "ep", "threads": 16})
        lines = execute_request(engine, request).strip().splitlines()
        assert lines[0] == "section,step,mops,factor"
        assert lines[1].startswith("ladder,baseline-sg2042,")
        assert any(line.startswith("marginal,") for line in lines)
