"""Sweep engine: batched prediction equivalence, memoisation, parallelism."""

import pytest

from repro.compilers.gcc import get_compiler
from repro.core.experiment import DEFAULT_RUNS, ExperimentConfig, ExperimentRunner
from repro.core.perfmodel import DNRError, PerformanceModel
from repro.core.sweep import SweepEngine, clear_caches, expand_grid, paper_vectorise
from repro.machines.catalog import get_machine
from repro.npb.signatures import signature_for

THREADS = (1, 2, 4, 8, 16, 26, 32, 64)
MACHINES = ("sg2044", "sg2042", "epyc7742")
KERNELS = ("is", "mg", "ep", "cg", "ft")


class TestPredictBatch:
    def test_matches_predict_elementwise(self, model):
        compiler = get_compiler("gcc-15.2")
        for machine_name in MACHINES:
            machine = get_machine(machine_name)
            sigs = [signature_for(k, "C") for k in KERNELS]
            batch = model.predict_batch(machine, sigs, compiler, THREADS)
            loop = [
                model.predict(machine, sig, compiler, n)
                for sig in sigs
                for n in THREADS
            ]
            # Full dataclass equality: every float field bit-identical.
            assert batch == loop

    def test_single_signature_accepted(self, model):
        compiler = get_compiler("gcc-15.2")
        machine = get_machine("sg2044")
        sig = signature_for("mg", "C")
        batch = model.predict_batch(machine, sig, compiler, (1, 64))
        assert [p.n_threads for p in batch] == [1, 64]
        assert batch[0] == model.predict(machine, sig, compiler, 1)

    def test_empty_grid(self, model):
        compiler = get_compiler("gcc-15.2")
        machine = get_machine("sg2044")
        assert model.predict_batch(machine, [], compiler, (1,)) == []
        sig = signature_for("mg", "C")
        assert model.predict_batch(machine, sig, compiler, ()) == []

    def test_invalid_thread_count_raises(self, model):
        compiler = get_compiler("gcc-15.2")
        machine = get_machine("sg2044")
        sig = signature_for("mg", "C")
        with pytest.raises(ValueError, match="cores"):
            model.predict_batch(machine, sig, compiler, (1, 65))

    def test_dnr_raises(self, model):
        compiler = get_compiler("gcc-15.2")
        machine = get_machine("allwinner-d1")
        sig = signature_for("ft", "B")
        with pytest.raises(DNRError):
            model.predict_batch(machine, sig, compiler, (1,))

    def test_uncalibrated_matches_too(self):
        model = PerformanceModel(calibrate=False)
        compiler = get_compiler("gcc-12.3.1")
        machine = get_machine("sg2042")
        sig = signature_for("cg", "C")
        batch = model.predict_batch(machine, sig, compiler, THREADS, vectorise=False)
        loop = [
            model.predict(machine, sig, compiler, n, vectorise=False)
            for n in THREADS
        ]
        assert batch == loop


class TestExpandGrid:
    def test_cross_product_and_order(self):
        grid = expand_grid(("sg2044", "sg2042"), ("is", "cg"), thread_counts=(1, 64))
        assert len(grid) == 8
        assert grid[0].machine == "sg2044" and grid[-1].machine == "sg2042"
        # machines outermost, threads innermost
        assert [c.n_threads for c in grid[:2]] == [1, 64]

    def test_cg_vectorise_default(self):
        grid = expand_grid("sg2044", ("is", "cg"))
        by_kernel = {c.kernel: c for c in grid}
        assert by_kernel["is"].vectorise is True
        assert by_kernel["cg"].vectorise is False
        assert paper_vectorise("cg") is False

    def test_explicit_vectorise_overrides(self):
        grid = expand_grid("sg2044", "cg", vectorise=(True, False))
        assert [c.vectorise for c in grid] == [True, False]

    def test_dedup_preserves_first_occurrence(self):
        grid = expand_grid("sg2044", "mg", thread_counts=(1, 64, 1))
        assert [c.n_threads for c in grid] == [1, 64]

    def test_scalar_axes(self):
        grid = expand_grid("sg2044", "mg")
        assert len(grid) == 1
        assert grid[0].runs == DEFAULT_RUNS


class TestSweepEngine:
    def test_matches_serial_runner_exactly(self):
        """The ISSUE's headline: engine == serial loop for the Table 2 grid."""
        from repro.harness import paper
        from repro.machines.catalog import PAPER_RISCV_BOARDS

        grid = expand_grid(
            PAPER_RISCV_BOARDS, paper.KERNELS, classes="B", thread_counts=1
        )
        engine = SweepEngine()
        batched = engine.run_many(grid, on_dnr="none")

        serial_runner = ExperimentRunner()
        serial = []
        for config in grid:
            try:
                serial.append(serial_runner.run(config))
            except DNRError:
                serial.append(None)
        assert batched == serial

    def test_planned_equals_per_family(self):
        grid = expand_grid(("sg2044", "sg2042"), KERNELS, thread_counts=THREADS)
        planned = SweepEngine(planner=True).run_many(grid)
        per_family = SweepEngine(planner=False).run_many(grid)
        assert planned == per_family
        assert [r.n_threads for r in planned] == [c.n_threads for c in grid]

    def test_cache_hit_returns_same_object(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="sg2044", kernel="mg")
        first = engine.run(config)
        second = engine.run(config)
        assert first is second
        assert engine.hits == 1 and engine.misses == 1

    def test_duplicate_configs_in_one_batch(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="sg2044", kernel="ep")
        a, b = engine.run_many([config, config])
        assert a is b
        assert engine.misses == 1 and engine.hits == 1

    def test_clear_cache_evicts(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="sg2044", kernel="mg")
        first = engine.run(config)
        engine.clear_cache()
        second = engine.run(config)
        assert first is not second
        assert first == second  # same seed, same samples

    def test_sweep_threads_matches_runner(self, runner):
        config = ExperimentConfig(machine="sg2044", kernel="cg", vectorise=False)
        engine = SweepEngine(runner)
        via_engine = engine.sweep_threads(config, [1, 4, 16, 64])
        assert via_engine == runner.sweep_threads(config, [1, 4, 16, 64])

    def test_dnr_cached_and_reraised(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        assert engine.try_run(config) is None
        with pytest.raises(DNRError):
            engine.run(config)
        # Second miss never happened: the DNR verdict itself is cached.
        assert engine.misses == 1

    def test_on_dnr_validation(self):
        engine = SweepEngine()
        with pytest.raises(ValueError, match="on_dnr"):
            engine.run_many([], on_dnr="ignore")

    def test_dnr_configs_counter_on_none_path(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        assert engine.dnr_configs == 0
        assert engine.try_run(config) is None
        assert engine.dnr_configs == 1

    def test_dnr_configs_counter_on_raise_path(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        with pytest.raises(DNRError):
            engine.run(config)
        # The counter ticks before the raise: the DNR was still returned
        # to (and observed by) this caller.
        assert engine.dnr_configs == 1

    def test_dnr_configs_counts_cached_replays(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        ok = ExperimentConfig(machine="sg2044", kernel="mg")
        assert engine.run_many([config, ok, config], on_dnr="none") == [
            None,
            engine.run(ok),
            None,
        ]
        assert engine.dnr_configs == 2  # both slots, one cached family
        assert engine.try_run(config) is None  # warm replay still counts
        assert engine.dnr_configs == 3

    def test_clear_cache_resets_dnr_configs(self):
        engine = SweepEngine()
        config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
        engine.try_run(config)
        assert engine.dnr_configs == 1
        engine.clear_cache()
        assert engine.dnr_configs == 0

    @pytest.mark.parametrize(
        "kwargs", [{"jobs": 2}, {"group_timeout_s": 1}], ids=["jobs", "group_timeout_s"]
    )
    def test_no_thread_pool_parameters(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            SweepEngine(**kwargs)

    def test_repro_jobs_env_starts_no_thread(self, monkeypatch):
        """A stale ``REPRO_JOBS`` neither starts a thread nor changes results."""
        import threading

        grid = expand_grid(("sg2044", "sg2042"), KERNELS, thread_counts=(1, 64))
        expected = SweepEngine(planner=False).run_many(grid)

        def no_thread(self):
            raise AssertionError("sweep started a thread")

        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        engine = SweepEngine(planner=False)
        assert not hasattr(engine, "jobs")
        assert engine.run_many(grid) == expected

    def test_no_procs_parameter(self):
        with pytest.raises(TypeError, match="procs"):
            SweepEngine(procs=2)

    def test_repro_procs_env_runs_in_process(self, monkeypatch):
        """A stale ``REPRO_PROCS`` neither forks nor changes the results."""
        import os

        grid = expand_grid(("sg2044", "sg2042"), KERNELS, thread_counts=(1, 64))
        expected = SweepEngine().run_many(grid)

        def no_fork():
            raise AssertionError("sweep forked a child process")

        monkeypatch.setenv("REPRO_PROCS", "4")
        monkeypatch.setattr(os, "fork", no_fork)
        engine = SweepEngine()
        assert not hasattr(engine, "procs")
        assert engine.run_many(grid) == expected

    def test_noise_level_in_cache_key(self):
        quiet = SweepEngine(ExperimentRunner(noise_cv=0.0))
        noisy = SweepEngine(ExperimentRunner(noise_cv=0.05))
        config = ExperimentConfig(machine="sg2044", kernel="is")
        assert quiet.cache_key(config) != noisy.cache_key(config)


class TestRunMany:
    def test_matches_run_per_config(self, runner):
        grid = expand_grid("sg2044", KERNELS, thread_counts=(1, 64))
        assert runner.run_many(grid) == [runner.run(c) for c in grid]


class TestClearCaches:
    def test_evicts_process_wide_caches(self):
        from repro.cachesim.trace import build_trace
        from repro.core.sweep import default_engine
        from repro.npb.cg import make_matrix
        from repro.npb.common import NPBClass
        from repro.npb.params import cg_params

        engine = default_engine()
        config = ExperimentConfig(machine="sg2044", kernel="mg")
        first = engine.run(config)
        a1, _ = make_matrix(cg_params(NPBClass.S))
        t1 = build_trace("is", n_accesses=2000, seed=7)[0]

        clear_caches()

        a2, _ = make_matrix(cg_params(NPBClass.S))
        t2 = build_trace("is", n_accesses=2000, seed=7)[0]
        assert a1 is not a2 and (a1 != a2).nnz == 0
        assert t1 is not t2 and (t1 == t2).all()
        second = engine.run(config)
        assert first is not second and first == second
