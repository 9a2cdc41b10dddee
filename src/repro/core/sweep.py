"""Batched sweep engine: grid expansion, memoisation, batched execution.

The paper's methodology is one large cross-product sweep -- machines x
kernels x classes x thread counts x compilers x vectorisation -- and every
table and figure regenerator walks some slice of that grid.  This module
turns those walks into batch jobs:

* :func:`expand_grid` expands axis tuples into a deduplicated, ordered
  list of :class:`ExperimentConfig`.
* :class:`SweepEngine` executes config batches through
  :meth:`ExperimentRunner.run_many` (one vectorised model evaluation per
  thread-sweep family, or one flat megagrid pass for every cold family
  at once), and memoises every :class:`ExperimentResult` keyed by the
  exact seed/config tuple so repeated regenerators hit cache.

Determinism: the runner keys its noise stream per config (sha256 of seed
and config fields), so results are independent of execution order --
planned, per-family, cached and one-at-a-time runs are byte-identical.

Caching vs reproducibility: a cache hit returns the very object a cold
run would have computed, because everything that influences a result
(runner seed, noise level, calibration flag, config fields) is part of
the cache key.  :func:`clear_caches` evicts every process-wide cache if
isolation is ever needed.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterable, Sequence

from repro import faults, obs
from repro.faults import SweepJournal, TransientError

from .experiment import DEFAULT_RUNS, ExperimentConfig, ExperimentRunner
from .perfmodel import DNRError
from .plan import PlanNotApplicable, plan_groups
from .results import ExperimentResult

__all__ = [
    "SweepEngine",
    "expand_grid",
    "paper_vectorise",
    "compute_cache_key",
    "default_engine",
    "set_default_retries",
    "set_default_store",
    "clear_caches",
    "DEFAULT_RETRIES",
]

#: Transient failures are retried this many times by default (override
#: per engine, with ``REPRO_RETRIES``, or with the ``--retries`` flag).
DEFAULT_RETRIES = 2


def paper_vectorise(kernel: str) -> bool:
    """The paper's per-kernel vectorisation default.

    CG's indexed gathers are a vectorisation pathology on every machine
    in the study, so the harness compiles it scalar; everything else is
    auto-vectorised at ``-O3``.
    """
    return kernel != "cg"


def _axis(value) -> tuple:
    if value is None or isinstance(value, (str, int, bool)):
        return (value,)
    return tuple(value)


def expand_grid(
    machines,
    kernels,
    classes="C",
    thread_counts=1,
    compilers=None,
    vectorise=None,
    runs: int = DEFAULT_RUNS,
) -> list[ExperimentConfig]:
    """Expand axis values into a deduplicated list of configs.

    Every axis accepts a single value or an iterable.  ``vectorise=None``
    (the default) selects the paper's per-kernel setting via
    :func:`paper_vectorise`; ``compilers=None`` keeps each machine's
    paper-default compiler.  Order is the natural nested-loop order
    (machines outermost, vectorise innermost) with later duplicates
    dropped.
    """
    out: list[ExperimentConfig] = []
    seen: set[ExperimentConfig] = set()
    for machine in _axis(machines):
        for kernel in _axis(kernels):
            for npb_class in _axis(classes):
                for n_threads in _axis(thread_counts):
                    for compiler in _axis(compilers):
                        for vec in _axis(vectorise):
                            config = ExperimentConfig(
                                machine=machine,
                                kernel=kernel,
                                npb_class=npb_class,
                                n_threads=n_threads,
                                compiler=compiler,
                                vectorise=(
                                    paper_vectorise(kernel) if vec is None else vec
                                ),
                                runs=runs,
                            )
                            if config not in seen:
                                seen.add(config)
                                out.append(config)
    return out


def compute_cache_key(
    seed: int, noise_cv: float, calibrate: bool, config: ExperimentConfig
) -> tuple:
    """The full memo key for one config under given runner settings.

    Module-level (not only an engine method) so a key can be derived
    from the runner settings alone, without an engine instance.
    """
    return (
        seed,
        noise_cv,
        calibrate,
        config.machine,
        config.kernel,
        config.npb_class,
        config.n_threads,
        config.resolved_compiler(),
        config.vectorise,
        config.runs,
    )


class SweepEngine:
    """Memoising, thread-safe front-end over an ExperimentRunner.

    Parameters
    ----------
    runner:
        The runner to execute through (a default calibrated runner when
        omitted).
    retries:
        Retry budget for *transient* group failures
        (:class:`repro.faults.TransientError`, including injected
        faults).  ``None`` reads ``REPRO_RETRIES``, falling back to
        :data:`DEFAULT_RETRIES`.  Retries back off exponentially from
        ``backoff_s``.
    journal:
        Optional :class:`repro.faults.SweepJournal`; completed families
        are persisted as they land and preloaded on attach, so an
        interrupted run resumes from completed families.
    planner:
        Whether cold batches may be flattened into one megagrid pass
        (:func:`repro.core.plan.plan_groups`) instead of per-family
        ``predict_batch`` calls.  ``None`` reads ``REPRO_PLANNER``
        (default on; set ``0`` to disable).  The planner is bypassed
        automatically whenever it could not reproduce the per-family
        path bit-for-bit (fault injection enabled, subclassed
        runners/models).
    store:
        Optional :class:`repro.store.ResultStore` (or a path to one;
        ``None`` reads ``REPRO_STORE``).  The durable tier under the
        memo cache: pending keys are preloaded from the store *before*
        planning, every committed family is published to it, and its
        O_EXCL lease files extend single-flight across processes -- a
        key another process is executing is waited on (bounded), then
        taken over if the owner died.  Store-restored values are
        bit-identical to computed ones (shared ``repr``-float codec).

    Results are memoised per exact (seed, noise, calibration, config)
    tuple; "Did Not Run" configurations cache their :class:`DNRError`
    the same way, so a grid with DNR holes is still cheap to re-expand.

    Failure taxonomy (see :mod:`repro.faults.taxonomy`): transient
    errors are retried in place, DNR verdicts are cached as results, and
    everything else propagates to the caller exactly once -- a failing
    group never triggers re-execution of groups that already completed,
    and its claims are released so the next caller can re-claim the key.

    Concurrency: the engine executes every batch in its caller's thread
    and is safe to hammer from many threads (the service's job-manager
    workers share one engine).  A single-flight table (``_inflight``)
    guarantees each cache key is executed at most once even when
    concurrent :meth:`run_many` calls race on the same cold keys -- late
    arrivals wait on the claimant's event instead of duplicating work.  Single-flight extends to
    **subgrid containment**: a batch whose cold keys are all contained
    in one in-flight super-sweep waits on that sweep's single completion
    event (counted by ``sweep.containment_waits``) instead of
    accumulating per-key events.

    Observability: cache hits/misses, executed configs/groups and DNR
    outcomes are mirrored into :mod:`repro.obs` counters, and every
    batch runs under a ``run_many`` span with one ``group[kernel/class]``
    child per thread-sweep family.  ``dnr_configs`` counts, on the return
    path, every requested config whose (possibly cached) result is a DNR.
    """

    def __init__(
        self,
        runner: ExperimentRunner | None = None,
        retries: int | None = None,
        backoff_s: float = 0.02,
        journal=None,
        planner: bool | None = None,
        store=None,
    ) -> None:
        self.runner = runner or ExperimentRunner()
        self.planner = self._resolve_planner(planner)
        self.retries = self._resolve_retries(retries)
        self.store = self._resolve_store(store)
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        self.backoff_s = backoff_s
        self._sleep = time.sleep
        self._results: dict[tuple, ExperimentResult | DNRError] = {}
        self._inflight: dict[tuple, threading.Event] = {}
        self._inflight_sweeps: dict[int, tuple[frozenset, threading.Event]] = {}
        self._sweep_seq = 0
        self._held_leases: set[tuple] = set()
        self._lock = threading.Lock()
        self._journals: list[tuple[SweepJournal, frozenset | None]] = []
        self._family_hooks: list = []
        self.hits = 0
        self.misses = 0
        self.dnr_configs = 0
        if journal is not None:
            self.attach_journal(journal)

    @staticmethod
    def _resolve_planner(planner: bool | None) -> bool:
        if planner is None:
            return os.environ.get("REPRO_PLANNER", "1") != "0"
        return bool(planner)

    @staticmethod
    def _resolve_retries(retries: int | None) -> int:
        if retries is None:
            env = os.environ.get("REPRO_RETRIES")
            retries = int(env) if env is not None else DEFAULT_RETRIES
        if retries < 0:
            raise ValueError("retries must be >= 0")
        return retries

    @staticmethod
    def _resolve_store(store):
        """Resolve the persistent result store (``REPRO_STORE``, default none).

        Accepts a ready :class:`repro.store.ResultStore`, a directory
        path, or ``None`` (consult the environment).  Persistence is a
        behaviour an operator opts into explicitly.
        """
        if store is None:
            from repro.store import store_from_env

            return store_from_env()
        if isinstance(store, (str, os.PathLike)):
            from repro.store import ResultStore

            return ResultStore(store)
        return store

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def cache_key(self, config: ExperimentConfig) -> tuple:
        """Everything that can influence this config's result."""
        runner = self.runner
        return compute_cache_key(
            runner.seed, runner.noise_cv, runner.model.calibrate, config
        )

    def clear_cache(self) -> None:
        """Evict all memoised results (and reset the hit/miss/DNR counters).

        The attached journal (if any) is deliberately left intact: it is
        the durable record an interrupted run resumes from.
        """
        with self._lock:
            self._results.clear()
            self.hits = 0
            self.misses = 0
            self.dnr_configs = 0

    # ------------------------------------------------------------------
    # Journal (checkpoint/resume)
    # ------------------------------------------------------------------

    def attach_journal(self, journal, keys=None) -> None:
        """Attach a :class:`repro.faults.SweepJournal` and preload it.

        Journaled results enter the memo cache exactly as if this engine
        had executed them (they are bit-identical by construction).  The
        journal's keys embed the runner seed, noise level and calibration
        flag, so entries written under different settings never match a
        key this engine asks for -- a stale journal is inert, not wrong.

        Several journals may be attached at once (the service layer gives
        every job its own); each completed family is recorded to all of
        them.  ``keys`` (an iterable of cache keys) scopes an attachment:
        only families whose keys intersect it are recorded there, so a
        per-job journal captures exactly that job's sweep and stays
        oblivious to whatever else shares the engine.  Preloading is
        never filtered -- a journal entry is valid cached work wherever
        it came from.
        """
        keyset = None if keys is None else frozenset(keys)
        with self._lock:
            self._journals.append((journal, keyset))
            for key, value in journal.results().items():
                self._results.setdefault(key, value)

    def detach_journal(self, journal=None) -> None:
        """Detach one journal (or, with no argument, every attached one).

        Already-loaded results stay cached either way.
        """
        with self._lock:
            if journal is None:
                self._journals.clear()
            else:
                self._journals = [
                    (j, keys) for j, keys in self._journals if j is not journal
                ]

    def _journal_record(self, store: dict) -> None:
        with self._lock:
            journals = list(self._journals)
        for journal, keys in journals:
            scoped = (
                store
                if keys is None
                else {k: v for k, v in store.items() if k in keys}
            )
            if scoped:
                journal.record(scoped)

    # ------------------------------------------------------------------
    # Job hooks (what the service layer's job manager builds on)
    # ------------------------------------------------------------------

    def completed_count(self, configs: Sequence[ExperimentConfig]) -> int:
        """How many of these configs already have a memoised outcome.

        A DNR verdict counts as completed -- the grid slot has an answer.
        The service layer polls this for job progress: ``completed /
        len(configs)`` moves monotonically from 0 to 1 as families land.
        """
        keys = [self.cache_key(c) for c in configs]
        with self._lock:
            return sum(1 for key in keys if key in self._results)

    def add_family_hook(self, hook) -> None:
        """Register ``hook(n_configs, dnr)``, called after each family lands.

        Hooks fire once per completed thread-sweep family -- planned or
        per-family -- right after its results are stored and journaled,
        and always *outside* the engine lock, so a hook may freely call
        back into the engine.  ``dnr`` is True when
        the family's shared outcome was a DNR verdict.  Hook exceptions
        propagate like any fatal group failure: the engine never
        swallows them.
        """
        with self._lock:
            self._family_hooks.append(hook)

    def remove_family_hook(self, hook) -> None:
        """Unregister a hook added by :meth:`add_family_hook` (idempotent)."""
        with self._lock:
            self._family_hooks = [h for h in self._family_hooks if h is not hook]

    def _notify_family(self, n_configs: int, dnr: bool) -> None:
        with self._lock:
            hooks = list(self._family_hooks)
        for hook in hooks:
            hook(n_configs, dnr)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_many(
        self,
        configs: Sequence[ExperimentConfig],
        on_dnr: str = "raise",
    ) -> list[ExperimentResult | None]:
        """Execute a batch, memoised, in the calling thread.

        Cold configs are grouped into thread-sweep families (identical in
        everything but ``n_threads``); the planner evaluates them all in
        one megagrid pass, or, where it does not apply, each family is
        one batched model evaluation.  Output order always matches input
        order.

        ``on_dnr`` controls "Did Not Run" configs: ``"raise"`` propagates
        the :class:`DNRError`, ``"none"`` yields ``None`` in that slot
        (what the table renderers want for DNR cells).
        """
        if on_dnr not in ("raise", "none"):
            raise ValueError(f"on_dnr must be 'raise' or 'none', got {on_dnr!r}")
        configs = list(configs)
        keys = [self.cache_key(c) for c in configs]
        obs.incr("sweep.configs_requested", len(configs))

        with obs.span("run_many"):
            pending, waiting, events = self._claim(keys, configs)
            while pending or waiting:
                if pending:
                    self._execute_pending(pending)
                for event in events:
                    event.wait()
                if not waiting:
                    break
                # Keys we merely waited on may be orphans: the claimant died
                # before storing (its claim was released by the finally in
                # _execute_pending).  Take those over; our own pending keys
                # are guaranteed stored (or we would have raised).
                with self._lock:
                    missing = {
                        key: config
                        for key, config in waiting.items()
                        if key not in self._results
                    }
                if not missing:
                    break
                pending, waiting, events = self._reclaim(missing)

        with self._lock:
            values = [self._results[key] for key in keys]

        out: list[ExperimentResult | None] = []
        dnr_count = 0
        first_dnr: DNRError | None = None
        for value in values:
            if isinstance(value, DNRError):
                dnr_count += 1
                if first_dnr is None:
                    first_dnr = value
                out.append(None)
            else:
                out.append(value)
        if dnr_count:
            with self._lock:
                self.dnr_configs += dnr_count
        obs.incr("sweep.dnr_configs", dnr_count)
        if first_dnr is not None and on_dnr == "raise":
            raise first_dnr
        return out

    def _claim(
        self, keys: list[tuple], configs: list[ExperimentConfig]
    ) -> tuple[
        dict[tuple, ExperimentConfig],
        dict[tuple, ExperimentConfig],
        list[threading.Event],
    ]:
        """Classify a batch under the lock, claiming cold keys for this caller.

        A key already cached (or duplicated earlier in the batch, or being
        executed by a concurrent caller) counts as a hit; each unique cold
        key counts as one miss and is claimed in the single-flight table so
        no other caller executes it.  Returns the claimed configs, the
        configs being executed by concurrent callers (``waiting``), and the
        events signalling those concurrent executions.

        Subgrid containment: when the batch claims nothing and every key
        it is waiting on belongs to a single in-flight super-sweep, the
        per-key events collapse to that sweep's one completion event --
        the contained request simply rides the super-sweep.
        """
        pending: dict[tuple, ExperimentConfig] = {}
        waiting: dict[tuple, ExperimentConfig] = {}
        events: list[threading.Event] = []
        hits = misses = 0
        contained = False
        with self._lock:
            for key, config in zip(keys, configs):
                if key in self._results or key in pending:
                    hits += 1
                elif key in self._inflight:
                    hits += 1
                    if key not in waiting:
                        waiting[key] = config
                        events.append(self._inflight[key])
                else:
                    misses += 1
                    pending[key] = config
                    self._inflight[key] = threading.Event()
            self.hits += hits
            self.misses += misses
            if waiting and not pending:
                for keyset, sweep_event in self._inflight_sweeps.values():
                    if keyset.issuperset(waiting):
                        events = [sweep_event]
                        contained = True
                        break
        obs.incr("sweep.cache_hits", hits)
        obs.incr("sweep.cache_misses", misses)
        if contained:
            obs.incr("sweep.containment_waits")
        return pending, waiting, events

    def _reclaim(
        self, missing: dict[tuple, ExperimentConfig]
    ) -> tuple[
        dict[tuple, ExperimentConfig],
        dict[tuple, ExperimentConfig],
        list[threading.Event],
    ]:
        """Re-claim keys whose original claimant failed (no hit/miss counts)."""
        pending: dict[tuple, ExperimentConfig] = {}
        waiting: dict[tuple, ExperimentConfig] = {}
        events: list[threading.Event] = []
        with self._lock:
            for key, config in missing.items():
                if key in self._results:
                    continue
                if key in self._inflight:
                    waiting[key] = config
                    events.append(self._inflight[key])
                else:
                    pending[key] = config
                    self._inflight[key] = threading.Event()
        return pending, waiting, events

    def _execute_pending(self, pending: dict[tuple, ExperimentConfig]) -> None:
        """Execute claimed configs grouped into families, then release claims.

        The whole claimed key-set is also registered as one in-flight
        *sweep* with a single completion event, so later batches whose
        keys it contains can wait on it wholesale (see :meth:`_claim`).

        With a store attached, three things happen around execution, all
        outside the engine lock (the lock guards tables, never I/O):
        claimed keys are preloaded from the store before any planning,
        the remainder is partitioned by lease ownership (keys another
        process is executing are waited on in :meth:`_resolve_foreign`
        instead of executed), and held leases are released in the
        ``finally`` so a failure never wedges other processes.
        """
        if self.store is not None:
            pending = self._store_preload(pending)
            if not pending:
                return
        foreign: dict[tuple, ExperimentConfig] = {}
        if self.store is not None:
            pending, foreign = self._store_partition(pending)
        claimed = dict(pending)
        claimed.update(foreign)
        with self._lock:
            sweep_id = self._sweep_seq
            self._sweep_seq += 1
            sweep_event = threading.Event()
            self._inflight_sweeps[sweep_id] = (frozenset(claimed), sweep_event)
        try:
            if pending:
                self._execute_families(pending)
            if foreign:
                self._resolve_foreign(foreign)
        finally:
            # Leases first (publish already released the successful ones;
            # this catches failures), then claims -- both so waiters and
            # other processes re-classify instead of blocking forever;
            # successful paths have stored results by the time the events
            # fire.
            self._release_leases(claimed)
            with self._lock:
                for key in claimed:
                    event = self._inflight.pop(key, None)
                    if event is not None:
                        event.set()
                self._inflight_sweeps.pop(sweep_id, None)
                sweep_event.set()

    def _execute_families(self, pending: dict[tuple, ExperimentConfig]) -> None:
        """Group claimed configs into thread-sweep families and execute."""
        families: dict[tuple, list[ExperimentConfig]] = {}
        for config in pending.values():
            families.setdefault(config.family_key(), []).append(config)
        self._execute_groups(list(families.values()))

    # ------------------------------------------------------------------
    # Persistent store (cross-run cache + cross-process single-flight)
    # ------------------------------------------------------------------

    def _store_preload(
        self, pending: dict[tuple, ExperimentConfig]
    ) -> dict[tuple, ExperimentConfig]:
        """Absorb store entries for claimed keys; returns what stays cold.

        Runs before planning, so a fully warm restart never touches the
        model at all.  Absorbed keys release their single-flight claims
        immediately (their results are in ``_results``).
        """
        with obs.span("store.preload"):
            found = self.store.get_many(list(pending))
        if not found:
            return pending
        with self._lock:
            self._results.update(found)
            for key in found:
                event = self._inflight.pop(key, None)
                if event is not None:
                    event.set()
        return {k: c for k, c in pending.items() if k not in found}

    def _store_partition(
        self, pending: dict[tuple, ExperimentConfig]
    ) -> tuple[dict[tuple, ExperimentConfig], dict[tuple, ExperimentConfig]]:
        """Split cold keys into locally-leased vs foreign-leased sets."""
        local: dict[tuple, ExperimentConfig] = {}
        foreign: dict[tuple, ExperimentConfig] = {}
        for key, config in pending.items():
            if self.store.try_lease(key):
                local[key] = config
            else:
                foreign[key] = config
        if local:
            with self._lock:
                self._held_leases.update(local)
        return local, foreign

    def _release_leases(self, keys) -> None:
        """Release whichever of ``keys`` this engine still holds leases for."""
        if self.store is None:
            return
        with self._lock:
            held = [key for key in keys if key in self._held_leases]
            self._held_leases.difference_update(held)
        for key in held:
            self.store.release_lease(key)

    def _publish_store(self, items: dict) -> None:
        """Publish one committed family and release its execution leases.

        Called beside every ``_journal_record`` site, after results are
        memoised, so the store is a strict subset of what this process
        would serve from memory -- never ahead of it.
        """
        if self.store is None or not items:
            return
        with obs.span("store.publish"):
            self.store.put_many(items)
        self._release_leases(items)

    def _absorb_published(self, remaining: dict[tuple, ExperimentConfig]) -> None:
        """Pull any now-published entries for ``remaining`` into the memo."""
        found = self.store.get_many(list(remaining))
        if not found:
            return
        with self._lock:
            self._results.update(found)
        for key in found:
            remaining.pop(key, None)

    def _resolve_foreign(self, foreign: dict[tuple, ExperimentConfig]) -> None:
        """Wait (bounded) for keys leased by another process, else take over.

        The owner publishes each family then releases its leases, so the
        normal outcome is absorbing its entries mid-poll.  A lease that
        vanished without an entry means the owner failed: take it over
        immediately.  A lease still present after the full timeout means
        the owner is wedged: break it, re-claim, and execute -- liveness
        over economy, and exactness either way (results are pure
        functions of the key).  The wait is attempt-counted through the
        engine's injectable ``_sleep``; no wall clock is read.
        """
        store = self.store
        remaining = dict(foreign)
        obs.incr("store.lease_waits", len(remaining))
        attempts = max(1, int(store.lease_timeout_s / store.poll_interval_s))
        for _ in range(attempts):
            self._absorb_published(remaining)
            if not remaining:
                return
            orphaned = {
                key: config
                for key, config in remaining.items()
                if not store.lease_active(key)
            }
            if orphaned:
                claimed = {
                    key: config
                    for key, config in orphaned.items()
                    if store.try_lease(key)
                }
                if claimed:
                    for key in claimed:
                        remaining.pop(key)
                    obs.incr("store.lease_takeovers", len(claimed))
                    with self._lock:
                        self._held_leases.update(claimed)
                    # The owner publishes, then releases: an entry that
                    # landed after the poll above is absorbed, not re-run.
                    leased = list(claimed)
                    self._absorb_published(claimed)
                    self._release_leases([k for k in leased if k not in claimed])
                    if claimed:
                        self._execute_families(claimed)
                if not remaining:
                    return
            self._sleep(store.poll_interval_s)
        self._absorb_published(remaining)
        if not remaining:
            return
        obs.incr("store.lease_timeouts", len(remaining))
        for key in remaining:
            store.break_lease(key)
        claimed = {
            key: config for key, config in remaining.items() if store.try_lease(key)
        }
        if claimed:
            obs.incr("store.lease_takeovers", len(claimed))
            with self._lock:
                self._held_leases.update(claimed)
        # Execute everything left -- re-leased or not -- so this batch
        # always completes even if another waiter re-claimed first.
        self._execute_families(remaining)

    def _planner_applicable(self) -> bool:
        """Whether cold batches may route through the flat megagrid pass.

        The planner cannot reproduce fault-injection probes (one
        ``faults.inject`` per family attempt), so an installed fault plan
        forces the per-family path.  Subclassed runners/models are
        detected inside
        :func:`repro.core.plan.plan_groups` itself, which refuses with
        :class:`PlanNotApplicable` before doing any work.
        """
        return self.planner and not faults.is_enabled()

    def _execute_groups(self, groups: list[list[ExperimentConfig]]) -> None:
        """Execute families: one planned pass, else one family at a time.

        Every family's span is opened up front, so the span tree has the
        same shape on both paths.  Handles whose family never executes
        (a fatal earlier family) are abandoned in the ``finally``, so the
        tree stays a pure function of the work actually performed.
        """
        handles = [
            obs.open_span(f"group[{group[0].kernel}/{group[0].npb_class}]")
            for group in groups
        ]
        executed = [False] * len(groups)
        try:
            if self._planner_applicable():
                if self._execute_groups_planned(groups, handles, executed):
                    return
            for i, (group, handle) in enumerate(zip(groups, handles)):
                executed[i] = True
                self._execute_group(group, handle)
        finally:
            for done, handle in zip(executed, handles):
                if not done:
                    obs.abandon_span(handle)

    def _execute_groups_planned(
        self,
        groups: list[list[ExperimentConfig]],
        handles: list,
        executed: list[bool],
    ) -> bool:
        """One flat megagrid pass over every cold family; True on success.

        The planner computes outcomes side-effect free; each family is
        then committed under its pre-opened span with exactly the
        counters the per-family path would have emitted, so caches,
        journal entries and telemetry are indistinguishable.  A refusal
        (:class:`PlanNotApplicable`) happens before any work or side
        effect, and the caller falls back to the per-family path.
        """
        try:
            outcomes = plan_groups(self.runner, groups)
        except PlanNotApplicable:
            return False
        for i, (group, handle, outcome) in enumerate(zip(groups, handles, outcomes)):
            executed[i] = True
            self._commit_group(group, handle, outcome)
        return True

    def _commit_group(self, group, span_handle, outcome) -> None:
        """Store one planned family exactly as per-family execution would.

        ``outcome`` is the family's shared :class:`DNRError` verdict or
        its result list.  Counters and the activated span mirror
        :meth:`_execute_group` plus the ``model.batch_*`` counters the
        runner would have emitted inside ``run_many``.
        """
        with obs.activate(span_handle):
            obs.incr("model.batch_calls")
            obs.incr("model.batch_points", len(group))
            if isinstance(outcome, DNRError):
                obs.incr("sweep.dnr_raises")
                with self._lock:
                    store = {self.cache_key(c): outcome for c in group}
                    self._results.update(store)
                self._journal_record(store)
                self._publish_store(store)
                self._notify_family(len(group), dnr=True)
                return
            obs.incr("sweep.groups_executed")
            obs.incr("sweep.configs_executed", len(group))
            with self._lock:
                store = dict(zip((self.cache_key(c) for c in group), outcome))
                self._results.update(store)
            self._journal_record(store)
            self._publish_store(store)
            self._notify_family(len(group), dnr=False)

    def _execute_group(self, group: list[ExperimentConfig], span_handle=None) -> None:
        """Run one thread-sweep family and store its results (or its DNR)."""
        with obs.activate(span_handle):
            try:
                results = self._run_group_resilient(group)
            except DNRError as exc:
                # DNR is a property of (machine, kernel, class), independent
                # of thread count -- the whole family shares the verdict.
                obs.incr("sweep.dnr_raises")
                with self._lock:
                    store = {self.cache_key(c): exc for c in group}
                    self._results.update(store)
                self._journal_record(store)
                self._publish_store(store)
                self._notify_family(len(group), dnr=True)
                return
            obs.incr("sweep.groups_executed")
            obs.incr("sweep.configs_executed", len(group))
            with self._lock:
                store = dict(zip((self.cache_key(c) for c in group), results))
                self._results.update(store)
            self._journal_record(store)
            self._publish_store(store)
            self._notify_family(len(group), dnr=False)

    def _run_group_resilient(self, group: list[ExperimentConfig]):
        """One family through the runner, retrying transient failures.

        The installed fault plan is probed once per attempt (keyed by the
        family, so schedules are execution-order independent).  Transient
        failures -- injected or raised by the runner itself -- back off
        exponentially from ``backoff_s`` and retry up to ``retries``
        times; every other exception propagates to the caller unchanged.
        """
        site_key = "/".join(str(part) for part in group[0].family_key())
        attempt = 0
        while True:
            try:
                faults.inject("sweep.group", site_key)
                return self.runner.run_many(group)
            except TransientError:
                if attempt >= self.retries:
                    raise
                attempt += 1
                obs.incr("sweep.retries")
                self._sleep(self.backoff_s * (2 ** (attempt - 1)))

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Memoised single-config execution (raises on DNR, like the runner)."""
        return self.run_many([config], on_dnr="raise")[0]

    def try_run(self, config: ExperimentConfig) -> ExperimentResult | None:
        """Like :meth:`run` but returns ``None`` for DNR configs."""
        return self.run_many([config], on_dnr="none")[0]

    def sweep_threads(
        self, config: ExperimentConfig, thread_counts: Iterable[int]
    ) -> list[ExperimentResult]:
        """Memoised thread-count sweep (one figure line in the paper)."""
        return self.run_many(
            [config.with_threads(n) for n in thread_counts]
        )


# ----------------------------------------------------------------------
# Process-wide default engine (what the harness and CLI share)
# ----------------------------------------------------------------------

_default_engine: SweepEngine | None = None
_default_lock = threading.Lock()


def default_engine() -> SweepEngine:
    """The shared engine the table/figure regenerators execute through.

    Sharing one engine means regenerating Table 3 warms the cache for
    Table 4's identical single-thread column, and the figures reuse both.
    """
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = SweepEngine()
        return _default_engine


def set_default_retries(retries: int | None) -> None:
    """Set the transient-retry budget on the shared engine (``--retries``)."""
    engine = default_engine()
    engine.retries = SweepEngine._resolve_retries(retries)


def set_default_store(store) -> None:
    """Attach a persistent result store to the shared engine (``--store``).

    Accepts a :class:`repro.store.ResultStore`, a directory path, or
    ``None`` to detach (an explicit ``None`` detaches rather than
    re-reading the environment: the flag wins over ``REPRO_STORE``).
    """
    engine = default_engine()
    engine.store = None if store is None else SweepEngine._resolve_store(store)


def clear_caches() -> None:
    """Evict every process-wide cache this package maintains.

    Covers the default engine's memoised results, the performance model's
    calibration anchors, the CG system-matrix, cachesim trace and stall
    profile caches, and the memoised machine/compiler/signature getters.
    Mainly a test and long-lived-process escape hatch: caches never go
    stale in normal use because every key captures all inputs.
    """
    from repro.cachesim.stats import clear_profile_cache
    from repro.cachesim.trace import clear_trace_cache
    from repro.compilers.gcc import default_compiler_for, get_compiler
    from repro.machines.catalog import get_machine
    from repro.npb.cg import clear_matrix_cache
    from repro.npb.signatures import signature_for

    with _default_lock:
        engine = _default_engine
    if engine is not None:
        engine.clear_cache()
        engine.runner.model.clear_cache()
    clear_matrix_cache()
    clear_trace_cache()
    clear_profile_cache()
    signature_for.cache_clear()
    get_machine.cache_clear()
    get_compiler.cache_clear()
    default_compiler_for.cache_clear()
