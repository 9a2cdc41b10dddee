"""Typed prediction requests: parsing, deterministic IDs, execution.

Every unit of work the service accepts is normalised into one immutable
:class:`JobRequest` of four kinds:

``sweep``
    An explicit axis grid (machines x kernels x classes x threads x
    compilers x vectorise), expanded through
    :func:`repro.core.sweep.expand_grid` and rendered as one CSV with a
    row per config (DNR cells included).
``table`` / ``figure``
    A paper artefact by number; the request's grid is the artefact's
    prefetch grid (:func:`repro.harness.tables.table_grid` /
    :func:`repro.harness.figures.figure_grid`), and the artifact is the
    regenerated CSV.
``whatif``
    The SG2042 -> SG2044 upgrade-attribution study for one kernel
    (:mod:`repro.explore.whatif`): the cumulative ladder plus each
    upgrade's marginal value, as CSV.

Identity
--------
:func:`request_job_id` derives the job ID from the request's *cache
keys* -- ``sha256`` over the sorted :func:`repro.core.sweep.compute_cache_key`
tuples the request resolves to under the executing engine's runner
settings -- so two requests that would execute the identical work get
the identical ID no matter how their axes were spelled, and the job
manager's dedup composes with the engine's single-flight table: the
first submission executes, every duplicate attaches.

Cost
----
:func:`estimate` is grid-shape based: the number of configs (one model
evaluation each when cold), the number of thread-sweep families (the
engine's unit of scheduling, journaling and fault injection), and how
many configs are already memoised.  The service's admission control and
the campaign planner both read it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.experiment import DEFAULT_RUNS, ExperimentConfig
from repro.core.sweep import SweepEngine, expand_grid

__all__ = [
    "JobRequest",
    "RequestError",
    "parse_request",
    "request_configs",
    "request_job_id",
    "artifact_store_key",
    "estimate",
    "execute_request",
    "KINDS",
]

KINDS = ("sweep", "table", "figure", "whatif")

#: Bump when the artifact rendering for any kind changes shape: the
#: version is folded into job IDs, so a renderer change never serves a
#: stale artifact under the old identity.
RENDER_VERSION = 1


class RequestError(ValueError):
    """A malformed or unsupported request payload (HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """One normalised unit of service work."""

    kind: str
    #: table/figure number (``table``/``figure`` kinds only).
    number: int | None = None
    #: expand_grid axes (``sweep`` kind only), already normalised.
    machines: tuple[str, ...] = ()
    kernels: tuple[str, ...] = ()
    classes: tuple[str, ...] = ("C",)
    threads: tuple[int, ...] = (1,)
    compilers: tuple[str | None, ...] = (None,)
    vectorise: bool | None = None
    runs: int = DEFAULT_RUNS
    #: whatif kind only.
    kernel: str | None = None
    n_threads: int = 64

    def spec(self) -> dict:
        """The canonical JSON-safe payload (what status endpoints echo)."""
        if self.kind == "sweep":
            return {
                "kind": "sweep",
                "machines": list(self.machines),
                "kernels": list(self.kernels),
                "classes": list(self.classes),
                "threads": list(self.threads),
                "compilers": list(self.compilers),
                "vectorise": self.vectorise,
                "runs": self.runs,
            }
        if self.kind in ("table", "figure"):
            return {"kind": self.kind, "number": self.number}
        return {"kind": "whatif", "kernel": self.kernel, "threads": self.n_threads}


def _string_axis(payload: dict, name: str, *, required: bool = False) -> tuple:
    value = payload.get(name)
    if value is None:
        if required:
            raise RequestError(f"sweep request needs non-empty {name!r}")
        return (None,)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or (required and not value):
        raise RequestError(f"{name!r} must be a non-empty list of strings")
    for item in value:
        if not isinstance(item, str):
            raise RequestError(f"{name!r} entries must be strings, got {item!r}")
    return tuple(value)


def _int_axis(payload: dict, name: str, default: tuple[int, ...]) -> tuple[int, ...]:
    value = payload.get(name)
    if value is None:
        return default
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise RequestError(f"{name!r} must be an int or non-empty list of ints")
    out = []
    for item in value:
        if not isinstance(item, int) or isinstance(item, bool) or item < 1:
            raise RequestError(f"{name!r} entries must be ints >= 1, got {item!r}")
        out.append(item)
    return tuple(out)


def _check_threads(machine, n_threads: int) -> None:
    """Reject a thread count the machine cannot run (400, not a FAILED job)."""
    try:
        machine.validate_thread_count(n_threads)
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def parse_request(payload: dict) -> JobRequest:
    """Validate and normalise one JSON request payload.

    Raises :class:`RequestError` (the service maps it to HTTP 400) on
    anything malformed; the returned request is hashable and canonical,
    so equal work parses to equal requests.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise RequestError(f"kind must be one of {list(KINDS)}, got {kind!r}")

    if kind in ("table", "figure"):
        from repro.harness.figures import FIGURE_BUILDERS
        from repro.harness.tables import TABLE_BUILDERS

        number = payload.get("number")
        valid = TABLE_BUILDERS if kind == "table" else FIGURE_BUILDERS
        if not isinstance(number, int) or number not in valid:
            raise RequestError(
                f"{kind} number must be one of {sorted(valid)}, got {number!r}"
            )
        return JobRequest(kind=kind, number=number)

    if kind == "whatif":
        from repro.machines import get_machine
        from repro.npb.suite import RUNNERS

        kernel = payload.get("kernel")
        if not isinstance(kernel, str) or kernel not in RUNNERS:
            raise RequestError(
                f"whatif kernel must be one of {sorted(RUNNERS)}, got {kernel!r}"
            )
        threads = _int_axis(payload, "threads", (64,))
        if len(threads) != 1:
            raise RequestError(f"whatif threads must be one int, got {threads!r}")
        # The upgrade ladder runs the kernel on both ends of the upgrade.
        for machine in ("sg2042", "sg2044"):
            _check_threads(get_machine(machine), threads[0])
        return JobRequest(kind="whatif", kernel=kernel, n_threads=threads[0])

    machines = _string_axis(payload, "machines", required=True)
    kernels = _string_axis(payload, "kernels", required=True)
    classes = _string_axis(payload, "classes")
    if classes == (None,):
        classes = ("C",)
    for npb_class in classes:
        if npb_class not in tuple("SWABC"):
            raise RequestError(f"classes entries must be S/W/A/B/C, got {npb_class!r}")
    threads = _int_axis(payload, "threads", (1,))
    compilers = _string_axis(payload, "compilers")
    vectorise = payload.get("vectorise")
    if vectorise is not None and not isinstance(vectorise, bool):
        raise RequestError(f"vectorise must be true/false/null, got {vectorise!r}")
    runs = payload.get("runs", DEFAULT_RUNS)
    if not isinstance(runs, int) or isinstance(runs, bool) or runs < 1:
        raise RequestError(f"runs must be an int >= 1, got {runs!r}")
    # Canonicalise the axes (sorted, deduplicated) so two spellings of
    # the same work parse to the same request -- hence the same job ID
    # *and* the same artifact bytes (grid order is axis order).
    request = JobRequest(
        kind="sweep",
        machines=tuple(sorted(set(machines))),
        kernels=tuple(sorted(set(kernels))),
        classes=tuple(sorted(set(classes))),
        threads=tuple(sorted(set(threads))),
        compilers=tuple(sorted(set(compilers), key=lambda c: (c is not None, c or ""))),
        vectorise=vectorise,
        runs=runs,
    )
    # Resolve the grid eagerly so unknown machines/kernels and thread
    # counts beyond a machine's cores fail at submission time (HTTP 400)
    # rather than inside a worker (FAILED).
    configs = request_configs(request)
    if not configs:
        raise RequestError("sweep request expands to an empty grid")
    from repro.compilers import get_compiler
    from repro.machines import get_machine
    from repro.npb import signature_for

    for config in configs:
        try:
            machine = get_machine(config.machine)
            signature_for(config.kernel, config.npb_class)
            get_compiler(config.resolved_compiler())
        except KeyError as exc:
            raise RequestError(str(exc.args[0])) from None
        _check_threads(machine, config.n_threads)
    return request


def request_configs(request: JobRequest) -> list[ExperimentConfig]:
    """The sweep grid a request resolves to (empty for ``whatif``)."""
    if request.kind == "sweep":
        return expand_grid(
            request.machines,
            request.kernels,
            classes=request.classes,
            thread_counts=request.threads,
            compilers=request.compilers,
            vectorise=request.vectorise,
            runs=request.runs,
        )
    if request.kind == "table":
        from repro.harness.tables import table_grid

        return table_grid(request.number)
    if request.kind == "figure":
        from repro.harness.figures import figure_grid

        return figure_grid(request.number)
    return []


def request_job_id(engine: SweepEngine, request: JobRequest) -> str:
    """Deterministic job ID: the request's work under this engine's settings.

    Keyed by the sorted set of full cache keys (so axis spelling, axis
    order and duplicate entries never mint new identities), the request
    kind plus its non-grid parameters (two kinds can share a grid but
    render different artifacts), and the renderer version.
    """
    keys = sorted(
        repr(engine.cache_key(config)) for config in request_configs(request)
    )
    identity = json.dumps(
        {
            "render": RENDER_VERSION,
            "spec": request.spec(),
            "keys": keys,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(identity.encode()).hexdigest()[:12]
    return f"{request.kind}-{digest}"


def artifact_store_key(job_id: str) -> tuple:
    """The result-store key for a rendered artifact.

    Keyed by the job ID alone: :func:`request_job_id` already folds in
    the renderer version, the request spec and every cache key the work
    resolves to, so a store entry can never serve stale bytes -- any
    change to settings, grid or renderer mints a new identity.
    """
    return ("artifact", job_id)


def estimate(engine: SweepEngine, request: JobRequest) -> dict:
    """Grid-shape cost estimate (and current warmth) for a request."""
    configs = request_configs(request)
    families = {config.family_key() for config in configs}
    return {
        "configs": len(configs),
        "families": len(families),
        "cached": engine.completed_count(configs) if configs else 0,
    }


# ----------------------------------------------------------------------
# Execution / artifact rendering
# ----------------------------------------------------------------------


def _sweep_csv(engine: SweepEngine, configs: list[ExperimentConfig]) -> str:
    """One row per config, in grid order; DNR cells carry the verdict.

    Floats are rendered with ``repr`` (shortest round-trip), so the
    artifact bytes are a pure function of the results -- the byte-
    identity the dedup and crash-resume drills assert end to end.
    """
    results = engine.run_many(configs, on_dnr="none")
    lines = ["machine,kernel,class,threads,compiler,vectorised,time_s,mops,status"]
    for config, result in zip(configs, results):
        prefix = (
            f"{config.machine},{config.kernel},{config.npb_class},"
            f"{config.n_threads},{config.resolved_compiler()},{config.vectorise}"
        )
        if result is None:
            lines.append(f"{prefix},,,DNR")
        else:
            lines.append(f"{prefix},{result.mean_time_s!r},{result.mean_mops!r},ok")
    return "\n".join(lines) + "\n"


def _whatif_csv(request: JobRequest) -> str:
    from repro.explore.whatif import UPGRADES, ablate_upgrade, upgrade_ladder

    lines = ["section,step,mops,factor"]
    for step, mops, gain in upgrade_ladder(request.kernel, request.n_threads):
        lines.append(f"ladder,{step},{mops!r},{gain!r}")
    for upgrade in UPGRADES:
        gain = ablate_upgrade(request.kernel, upgrade.key, request.n_threads)
        lines.append(f"marginal,{upgrade.key},,{gain!r}")
    return "\n".join(lines) + "\n"


def execute_request(engine: SweepEngine, request: JobRequest) -> str:
    """Run a request through ``engine`` and render its CSV artifact.

    Table/figure grids are prefetched through ``engine`` first -- one
    batched ``run_many`` that the engine's planner, single-flight table
    and any attached per-job journal all see -- and the builder itself
    runs against the same ``engine``, so its per-cell lookups are pure
    cache hits and nothing ever leaks onto the process-wide default
    engine behind the job's back.
    """
    configs = request_configs(request)
    if request.kind == "sweep":
        return _sweep_csv(engine, configs)
    if request.kind in ("table", "figure"):
        if configs:
            engine.run_many(configs, on_dnr="none")
        if request.kind == "table":
            from repro.harness import build_table

            return build_table(request.number, engine=engine).to_csv()
        from repro.harness import build_figure

        return build_figure(request.number, engine=engine).to_csv()
    return _whatif_csv(request)
