"""Resilient sweep execution: the double-execution fix and retries.

The headline regression: a group that raised used to trip a fallback
that re-executed *every* group -- double-counting
``sweep.groups_executed``/``configs_executed`` and re-running work whose
results were already stored.  These tests pin the contract on the
per-family path (subclassed runners never take the planner): no family
runs twice, an in-group failure propagates exactly once and stops the
batch, families that finished before it stay cached, and the failed
family can be claimed again.
"""

import threading

import pytest

from repro import faults, obs
from repro.core.experiment import ExperimentRunner
from repro.core.sweep import SweepEngine, expand_grid
from repro.faults import FaultPlan, TransientError

KERNELS = ("is", "ep", "mg", "cg")


def _grid():
    # 4 families x 2 thread counts = 8 configs on one machine.
    return expand_grid(("sg2044",), KERNELS, thread_counts=(1, 4))


class PoisonRunner(ExperimentRunner):
    """Counts family executions; raises for one kernel until ``fixed``."""

    def __init__(self, poison_kernel=None, error=None) -> None:
        super().__init__()
        self.poison_kernel = poison_kernel
        self.error = error or RuntimeError("model blew up")
        self.fixed = False
        self.family_calls: dict[str, int] = {}
        self._count_lock = threading.Lock()

    def run_many(self, configs):
        kernel = configs[0].kernel
        with self._count_lock:
            self.family_calls[kernel] = self.family_calls.get(kernel, 0) + 1
        if kernel == self.poison_kernel and not self.fixed:
            raise self.error
        return super().run_many(configs)


class TestDoubleExecutionRegression:
    """The ISSUE's regression: in-group failure must not re-run the sweep."""

    def test_group_failure_does_not_serially_reexecute(self):
        runner = PoisonRunner(poison_kernel="mg")
        engine = SweepEngine(runner)
        rec = obs.install()
        with pytest.raises(RuntimeError, match="model blew up"):
            engine.run_many(_grid())
        obs.disable()

        # Families run in grid order (is, ep, mg, cg): the two before the
        # poisoned one ran once, the poisoned one was attempted once, and
        # the batch stopped there.  The buggy fallback ran survivors twice.
        assert runner.family_calls == {"is": 1, "ep": 1, "mg": 1}
        counters = rec.counters_snapshot()
        assert counters["sweep.groups_executed"] == 2
        assert counters["sweep.configs_executed"] == 4
        assert rec.quiescent()

    def test_survivor_results_are_cached_despite_the_failure(self):
        runner = PoisonRunner(poison_kernel="mg")
        engine = SweepEngine(runner)
        grid = _grid()
        with pytest.raises(RuntimeError):
            engine.run_many(grid)
        survivors = [c for c in grid if c.kernel != "mg"]
        engine.run_many(survivors)  # is/ep are cache hits; cg runs once
        assert runner.family_calls == {k: 1 for k in KERNELS}
        assert engine.hits == 4

    def test_failed_family_is_reclaimable_after_a_fix(self):
        runner = PoisonRunner(poison_kernel="mg")
        engine = SweepEngine(runner)
        grid = _grid()
        with pytest.raises(RuntimeError):
            engine.run_many(grid)
        runner.fixed = True
        results = engine.run_many(grid)
        assert all(r is not None for r in results)
        # Only the poisoned family re-ran; the survivors stayed cached.
        assert runner.family_calls == {"is": 1, "ep": 1, "cg": 1, "mg": 2}

    def test_serial_failure_abandons_unexecuted_group_spans(self):
        runner = PoisonRunner(poison_kernel="is")  # first family in order
        engine = SweepEngine(runner)
        rec = obs.install()
        with pytest.raises(RuntimeError):
            engine.run_many(_grid())
        obs.disable()

        # Only the attempted group appears; the three groups whose spans
        # were opened but never executed are pruned from the tree.
        run_many = rec.span_tree()["children"]
        assert [n["name"] for n in run_many] == ["run_many"]
        groups = [n["name"] for n in run_many[0]["children"]]
        assert groups == ["group[is/C]"]
        assert rec.quiescent()


class TestRetries:
    def test_transient_failures_are_retried_with_backoff(self):
        runner = PoisonRunner()
        engine = SweepEngine(runner, retries=2, backoff_s=0.01)
        delays = []
        engine._sleep = delays.append
        faults.install(
            FaultPlan(seed=1, transient_rate=1.0, max_failures=2)
        )
        rec = obs.install()
        results = engine.run_many(_grid())
        obs.disable()

        assert all(r is not None for r in results)
        assert runner.family_calls == {k: 1 for k in KERNELS}
        counters = rec.counters_snapshot()
        assert counters["sweep.retries"] == 8  # 2 injected faults x 4 families
        assert counters["faults.transient"] == 8
        # Exponential backoff: 0.01 then 0.02, per family.
        assert sorted(delays) == [0.01] * 4 + [0.02] * 4

    def test_transient_failures_beyond_budget_propagate(self):
        runner = PoisonRunner()
        engine = SweepEngine(runner, retries=1, backoff_s=0.0)
        faults.install(FaultPlan(seed=1, transient_rate=1.0, max_failures=2))
        with pytest.raises(TransientError):
            engine.run_many(_grid())
        # The runner itself never ran: injection fires before execution.
        assert runner.family_calls == {}

    def test_runner_transient_errors_also_retry(self):
        runner = PoisonRunner(
            poison_kernel="ep", error=TransientError("flaky backend")
        )

        original = runner.run_many

        def heal_after_first(configs):
            try:
                return original(configs)
            except TransientError:
                runner.fixed = True
                raise

        runner.run_many = heal_after_first
        engine = SweepEngine(runner, retries=2, backoff_s=0.0)
        results = engine.run_many(_grid())
        assert all(r is not None for r in results)
        assert runner.family_calls["ep"] == 2  # failed once, retried once


def _pruned(node):
    """Span tree minus injected ``fault[...]`` nodes, children sorted."""
    return {
        "name": node["name"],
        "count": node["count"],
        "children": sorted(
            (
                _pruned(child)
                for child in node["children"]
                if not child["name"].startswith("fault[")
            ),
            key=lambda n: n["name"],
        ),
    }


def _volatile(name):
    return name == "sweep.retries" or name.startswith("faults.")


class TestFaultConvergence:
    """The ISSUE's key invariant, as a property over fault rates."""

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.3])
    def test_sweep_converges_bit_identical_under_faults(self, runner, rate):
        grid = expand_grid(
            ("sg2044", "sg2042"), KERNELS, thread_counts=(1, 4, 16)
        )
        assert len(grid) == 24

        rec_clean = obs.install()
        clean = SweepEngine(runner).run_many(grid)
        obs.disable()

        faults.install(
            FaultPlan(
                seed=11,
                transient_rate=rate,
                slow_rate=rate / 2.0,
                slow_delay_s=0.5,
                sleep=lambda s: None,
            )
        )
        rec_faulted = obs.install()
        engine = SweepEngine(runner, retries=2, backoff_s=0.0)
        faulted = engine.run_many(grid)
        injected = faults.plan().stats()
        obs.disable()
        faults.disable()

        # Bit-identical results: every float compares exactly equal.
        assert faulted == clean
        if rate >= 0.3:
            assert sum(injected.values()) > 0  # the run was actually faulted

        # Non-volatile telemetry is identical; only the retry/injection
        # counters may differ between the two runs.
        clean_counters = rec_clean.counters_snapshot()
        faulted_counters = {
            k: v
            for k, v in rec_faulted.counters_snapshot().items()
            if not _volatile(k)
        }
        assert faulted_counters == clean_counters
        assert _pruned(rec_faulted.span_tree()) == _pruned(rec_clean.span_tree())
        assert rec_clean.quiescent() and rec_faulted.quiescent()
