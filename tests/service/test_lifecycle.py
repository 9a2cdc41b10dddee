"""Property-based job-lifecycle model: Hypothesis drives the manager.

A :class:`RuleBasedStateMachine` submits, runs, cancels and re-submits
jobs against a ``workers=0`` manager (so every step is synchronous and
the machine sees each state it creates).  After *every* rule two
invariants hold:

* **Legality** -- each job's observed state sequence only ever moves
  along ``TRANSITIONS`` (so e.g. CANCELLED -> RUNNING can never be
  observed, no matter the interleaving Hypothesis invents).
* **Conservation** -- every job the manager knows about is in exactly
  one state: ``sum(counts().values()) == len(jobs())``, and the
  terminal ones all have their ``done`` event set.

Shrinking matters here: when a sequence breaks an invariant, Hypothesis
reports the minimal submit/run/cancel dance that reproduces it.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)
from hypothesis import strategies as st

from repro import obs
from repro.core.sweep import SweepEngine
from repro.service import TRANSITIONS, JobManager, JobState, parse_request

# A small pool of distinct cheap requests: enough identities for dedup
# and re-submission to interact, small enough that runs stay fast.
REQUEST_POOL = [
    parse_request(
        {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [n]}
    )
    for n in (1, 2, 4)
] + [parse_request({"kind": "whatif", "kernel": "ep", "threads": 8})]

TERMINAL = (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def _reachable() -> frozenset:
    """Transitive closure of TRANSITIONS: observation is sampled, so a
    history may skip intermediate states (QUEUED observed, then DONE with
    RUNNING unobserved in between) -- that is legal iff a legal path
    exists.  What must NEVER appear is a pair with no path, e.g.
    CANCELLED -> RUNNING or DONE -> anything."""
    closure = set(TRANSITIONS)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b is c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return frozenset(closure)


REACHABLE = _reachable()


class JobLifecycleMachine(RuleBasedStateMachine):
    @initialize()
    def fresh_manager(self):
        obs.disable()
        self.manager = JobManager(
            engine=SweepEngine(), workers=0, queue_size=8
        )
        #: job object -> list of states observed for it, in order.
        self.histories: dict[int, list[JobState]] = {}
        self.tracked: dict[int, object] = {}

    def _observe(self, job) -> None:
        history = self.histories.setdefault(id(job), [job.state])
        self.tracked[id(job)] = job
        if job.state is not history[-1]:
            history.append(job.state)

    # -- rules ---------------------------------------------------------

    @rule(index=st.integers(min_value=0, max_value=len(REQUEST_POOL) - 1))
    def submit(self, index):
        try:
            job, deduplicated = self.manager.submit(REQUEST_POOL[index])
        except Exception:
            # QueueFull is legal behaviour under pressure; nothing to track.
            return
        if not deduplicated:
            assert job.state is JobState.QUEUED
        self._observe(job)

    @rule()
    def run_next(self):
        job = self.manager.run_next()
        if job is not None:
            assert job.state in (JobState.DONE, JobState.FAILED)
            self._observe(job)

    @rule(index=st.integers(min_value=0, max_value=len(REQUEST_POOL) - 1))
    def cancel(self, index):
        request = REQUEST_POOL[index]
        from repro.service import request_job_id

        job_id = request_job_id(self.manager.engine, request)
        job = self.manager.get(job_id)
        before = job.state if job is not None else None
        cancelled = self.manager.cancel(job_id)
        if before in (JobState.QUEUED, JobState.CANCELLED):
            assert cancelled is True  # including idempotent re-cancel
        else:
            assert cancelled is False  # unknown, running or done/failed
            if job is not None:
                assert job.state is before  # cancel never mutated it
        if job is not None:
            self._observe(job)

    @rule()
    def cancel_unknown(self):
        assert self.manager.cancel("sweep-000000000000") is False

    # -- invariants ----------------------------------------------------

    @invariant()
    def transitions_are_legal(self):
        for job in self.manager.jobs():
            self._observe(job)
        for history in self.histories.values():
            for src, dst in zip(history, history[1:]):
                assert (src, dst) in REACHABLE, f"illegal {src} -> {dst}"

    @invariant()
    def conservation(self):
        counts = self.manager.counts()
        jobs = self.manager.jobs()
        assert sum(counts.values()) == len(jobs)
        for state in JobState:
            assert counts[state.value] == sum(
                1 for job in jobs if job.state is state
            )

    @invariant()
    def terminal_jobs_are_signalled(self):
        for job in self.manager.jobs():
            if job.state in TERMINAL:
                assert job.done.is_set()
                assert job.terminal()
            else:
                assert not job.terminal()


def test_job_lifecycle_state_machine():
    run_state_machine_as_test(
        JobLifecycleMachine,
        settings=settings(
            max_examples=40, stateful_step_count=30, deadline=None
        ),
    )


def test_transition_table_is_the_contract():
    """The machine's legality oracle is the real exported table."""
    assert (JobState.QUEUED, JobState.RUNNING) in TRANSITIONS
    assert (JobState.CANCELLED, JobState.RUNNING) not in TRANSITIONS
    assert (JobState.DONE, JobState.RUNNING) not in TRANSITIONS
    # Every transition source/target is a real state.
    for src, dst in TRANSITIONS:
        assert isinstance(src, JobState) and isinstance(dst, JobState)
