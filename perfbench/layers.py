"""Wrappers that time the calls into each layer's public functions.

Every wrapper is installed at the binding its caller uses (a module
attribute the caller reads at call time, a class attribute, or a shared
dispatch dict), and only when the program itself imports that module.
Span names are ``<layer>.<what>``; :mod:`ledger` turns them into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import threading
import time
import weakref

from tracer import OP_HEADER, PatchOnImport, Tracer


def install(tracer: Tracer) -> None:
    """Arrange for every layer wrapper to be applied on import."""
    PatchOnImport(_hooks(tracer)).install()


def _hooks(tracer: Tracer) -> dict:
    span = tracer.span
    count = tracer.count

    # -- repro.harness ---------------------------------------------------
    def harness_export(mod):
        default_engine = mod.default_engine

        class _Prefetch:
            """The engine as ``export_all`` sees it: its one ``run_many``
            call is the export's megagrid prefetch."""

            def __init__(self, engine):
                self._engine = engine

            def run_many(self, *args, **kwargs):
                with span("harness.prefetch"):
                    return self._engine.run_many(*args, **kwargs)

        mod.default_engine = lambda: _Prefetch(default_engine())
        mod.export_all = tracer.wrap(mod.export_all, "harness.export_all")
        mod.write_text_atomic = tracer.wrap(mod.write_text_atomic, "harness.write")

    def wrap_builders(builders):
        for number, builder in list(builders.items()):
            builders[number] = tracer.wrap(builder, "harness.build")

    def harness_tables(mod):
        wrap_builders(mod.TABLE_BUILDERS)
        mod.table1_profile = tracer.wrap(mod.table1_profile, "cachesim.table1")

    def harness_figures(mod):
        wrap_builders(mod.FIGURE_BUILDERS)

    # -- repro.cachesim --------------------------------------------------
    def cachesim_hierarchy(mod):
        run_trace = mod.CacheHierarchy.run_trace

        def traced(self, addresses, *args, **kwargs):
            count("cachesim.accesses", len(addresses))
            with span("cachesim.run_trace"):
                return run_trace(self, addresses, *args, **kwargs)

        mod.CacheHierarchy.run_trace = traced

    # -- repro.core ------------------------------------------------------
    def core_sweep(mod):
        run_many = mod.SweepEngine.run_many
        plan_groups = mod.plan_groups
        not_applicable = mod.PlanNotApplicable
        seen = weakref.WeakKeyDictionary()  # engine -> (hits, misses) booked

        def traced_run_many(self, configs, *args, **kwargs):
            configs = list(configs)
            count("sweep.configs", len(configs))
            try:
                with span("sweep.run_many"):
                    return run_many(self, configs, *args, **kwargs)
            finally:
                # Engine counters are cumulative and shared by concurrent
                # callers; book each engine's growth once, under the lock.
                with tracer._lock:
                    hits, misses = self.hits, self.misses
                    last_hits, last_misses = seen.get(self, (0, 0))
                    if hits < last_hits or misses < last_misses:
                        last_hits = last_misses = 0  # clear_cache() reset
                    seen[self] = (hits, misses)
                    for key, n in (("sweep.hits", hits - last_hits),
                                   ("sweep.misses", misses - last_misses)):
                        tracer.counters[key] = tracer.counters.get(key, 0) + n

        def traced_plan_groups(*args, **kwargs):
            count("plan.calls")
            try:
                with span("plan.plan_groups"):
                    return plan_groups(*args, **kwargs)
            except not_applicable:
                count("plan.refused")
                raise

        mod.SweepEngine.run_many = traced_run_many
        mod.plan_groups = traced_plan_groups

    def core_perfmodel(mod):
        predict_batch = mod.PerformanceModel.predict_batch

        def traced(*args, **kwargs):
            count("perfmodel.predict_batch_calls")
            with span("perfmodel.predict_batch"):
                return predict_batch(*args, **kwargs)

        mod.PerformanceModel.predict_batch = traced

    # -- repro.store -----------------------------------------------------
    def store_store(mod):
        cls = mod.ResultStore
        get = cls.get

        def traced_get(self, key):
            value = get(self, key)
            count("store.misses" if value is None else "store.hits")
            return value

        cls.get = traced_get
        cls.get_many = tracer.wrap(cls.get_many, "store.get_many")
        cls.put_many = tracer.wrap(cls.put_many, "store.put_many")

    # -- repro.service ---------------------------------------------------
    # A job runs on a worker thread, away from the HTTP request that
    # submitted it: carry the client's op across by request object, and
    # time the queue from ``submit`` returning to execution starting.
    job_lock = threading.Lock()
    job_ops: dict = {}  # id(request) -> op of the submitting request
    queued_at: dict = {}  # id(request) -> when submit() returned

    def service_api(mod):
        handler = mod._Handler
        mod.parse_request = tracer.wrap(mod.parse_request, "requests.parse")
        for method in ("do_GET", "do_POST"):
            original = getattr(handler, method)

            def with_op(self, _original=original):
                tracer.set_thread_op(self.headers.get(OP_HEADER))
                try:
                    _original(self)
                finally:
                    tracer.set_thread_op(None)

            setattr(handler, method, with_op)

    def service_jobs(mod):
        submit = mod.JobManager.submit
        execute_request = mod.execute_request
        done_state = mod.JobState.DONE

        def traced_submit(self, request):
            key = id(request)
            with job_lock:
                job_ops[key] = tracer.current_op()
            try:
                job, deduplicated = submit(self, request)
            except BaseException:
                with job_lock:
                    job_ops.pop(key, None)
                raise
            now = time.perf_counter()
            count("jobs.submitted")
            if deduplicated:
                count("jobs.deduplicated")
            with job_lock:
                if deduplicated or job.state is done_state:
                    job_ops.pop(key, None)  # this request never executes
                elif key in job_ops:  # not picked up by a worker yet
                    queued_at[key] = now
            return job, deduplicated

        def traced_execute(engine, request):
            started = time.perf_counter()
            with job_lock:
                op = job_ops.pop(id(request), None)
                entered = queued_at.pop(id(request), None)
            if entered is not None:
                tracer.add_span("jobs.queue_wait", entered, started, op)
            tracer.set_thread_op(op)
            try:
                with span("requests.execute"):
                    return execute_request(engine, request)
            except Exception:
                count("jobs.failed")
                raise
            finally:
                tracer.set_thread_op(None)

        mod.JobManager.submit = traced_submit
        mod.execute_request = traced_execute
        mod.request_job_id = tracer.wrap(mod.request_job_id, "requests.job_id")

    # -- repro.npb -------------------------------------------------------
    def npb_common(mod):
        generate = mod.Randlc.generate

        def traced(self, n, *args, **kwargs):
            count("npb.randlc_values", n)
            with span("npb.randlc"):
                return generate(self, n, *args, **kwargs)

        mod.Randlc.generate = traced

    def npb_suite(mod):
        run_benchmark = mod.run_benchmark

        def traced(name, npb_class="S"):
            label = getattr(npb_class, "value", npb_class)
            with span(f"npb.{name.lower()}_{label}"):
                return run_benchmark(name, npb_class)

        mod.run_benchmark = traced

    return {
        "repro.harness.export": harness_export,
        "repro.harness.tables": harness_tables,
        "repro.harness.figures": harness_figures,
        "repro.cachesim.hierarchy": cachesim_hierarchy,
        "repro.core.sweep": core_sweep,
        "repro.core.perfmodel": core_perfmodel,
        "repro.store.store": store_store,
        "repro.service.api": service_api,
        "repro.service.jobs": service_jobs,
        "repro.npb.common": npb_common,
        "repro.npb.suite": npb_suite,
    }
