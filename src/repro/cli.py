"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table N``      regenerate paper Table N (1-8)
``figure N``     regenerate paper Figure N (1-6)
``npb K``        run an NPB benchmark functionally (``--npb-class S..C``)
``suite``        run the whole functional suite at one class
``stream``       run STREAM on the host and print modelled Figure 1 points
``machines``     list the machine catalog
``predict``      one model prediction with its cost breakdown
``cg-study``     the Section 6 CG vectorisation analysis
``ablate``       upgrade attribution (SG2042 -> SG2044, step by step)
``cluster``      multi-socket strong-scaling projection
``roofline``     roofline placement of the kernels on one machine
``export``       write every table and figure to a directory as CSV
``score``        model-vs-paper error scorecard across all tables
``lint``         repo-aware static analysis (determinism, locking, units,
                 catalog invariants, model parity, telemetry discipline,
                 exception hygiene, whole-program concurrency: lock
                 order, blocking-under-lock) on an incremental,
                 process-parallel engine
``stats``        regenerate one table/figure with telemetry enabled and
                 print the span tree, counters and timings
``faults``       resilience smoke test: run a sweep under an injected
                 fault plan and verify it converges to the fault-free
                 answer bit for bit
``serve``        long-running prediction service: HTTP API + job manager
                 over the shared sweep engine (submit, poll, artifacts,
                 cancel, /health, /stats)
``campaign``     fan a YAML scenario file out into sweep jobs and collect
                 artifacts (``run``), or cost-estimate it (``plan``);
                 interrupted runs resume from journal sidecars and the
                 result store, and independent jobs (no ``needs`` edge)
                 run concurrently under ``--jobs``
``bench``        run a named benchmark-suite subset, merge the schema-v2
                 artifact and append the run to ``benchmarks/history/``;
                 ``--check`` gates the run against the recorded
                 trajectory with noise-aware per-entry margins
                 (escalate-until re-measurement before any regression
                 verdict; exit 1 when one survives, ``--bless`` to
                 record a new baseline after an intentional change)

Sweep-backed commands accept ``--store DIR`` (or ``REPRO_STORE``): a
persistent content-addressed result store that makes every restart
warm -- results and rendered artifacts land there once and are reused
bit-identically by any later process.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


class _ReproParser(argparse.ArgumentParser):
    """The top-level parser; fills in the ``lint`` summary on demand.

    :func:`_lint_help` imports every lint rule, so it runs only when the
    command list is actually formatted (``repro --help``), never on the
    way to ``repro table N``.
    """

    def format_help(self) -> str:
        for action in self._actions:
            if isinstance(action, argparse._SubParsersAction):
                for choice in action._choices_actions:
                    if choice.dest == "lint" and choice.help is None:
                        choice.help = _lint_help()
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _ReproParser(
        prog="repro",
        description=(
            "Reproduction of 'Is RISC-V ready for HPC? An evaluation of "
            "the Sophon SG2044' (SC 2025)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jobs_help = "worker threads for sweep execution (default: REPRO_JOBS or auto)"
    telemetry_help = "write a schema-v1 telemetry JSON report to PATH"
    retries_help = "transient-failure retry budget (default: REPRO_RETRIES or 2)"
    fault_seed_help = (
        "install a seeded fault plan for this run (deterministic injected "
        "transient faults; results must still be bit-identical)"
    )
    fault_rate_help = "injected transient-fault rate used with --fault-seed (default 0.1)"
    journal_help = (
        "crash-safe sweep journal at PATH: completed families are persisted "
        "and an interrupted run resumed from them"
    )
    store_help = (
        "persistent content-addressed result store at DIR: finished "
        "results and artifacts are published there and every later run "
        "(any process) starts warm (default: REPRO_STORE)"
    )
    store_max_help = (
        "LRU size cap for --store in MiB: least-recently-used entries "
        "are evicted once the store exceeds it (default: REPRO_STORE_MAX_MB "
        "or unbounded)"
    )

    def _sweep_flags(p) -> None:
        p.add_argument("--jobs", type=int, default=None, help=jobs_help)
        p.add_argument("--retries", type=int, default=None, help=retries_help)
        p.add_argument("--fault-seed", type=int, default=None, help=fault_seed_help)
        p.add_argument("--fault-rate", type=float, default=0.1, help=fault_rate_help)
        p.add_argument("--journal", metavar="PATH", default=None, help=journal_help)
        p.add_argument("--store", metavar="DIR", default=None, help=store_help)
        p.add_argument(
            "--store-max-mb", type=int, default=None, help=store_max_help
        )

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=range(1, 9))
    p.add_argument("--csv", action="store_true", help="emit CSV instead of ASCII")
    _sweep_flags(p)
    p.add_argument("--telemetry", metavar="PATH", default=None, help=telemetry_help)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int, choices=range(1, 7))
    p.add_argument("--csv", action="store_true")
    _sweep_flags(p)
    p.add_argument("--telemetry", metavar="PATH", default=None, help=telemetry_help)

    p = sub.add_parser("npb", help="run one NPB benchmark functionally")
    p.add_argument("kernel", choices=["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"])
    p.add_argument("--npb-class", default="S", choices=list("SWABC"))

    p = sub.add_parser("suite", help="run the full functional NPB suite")
    p.add_argument("--npb-class", default="S", choices=list("SWABC"))

    p = sub.add_parser("stream", help="host STREAM + modelled Figure 1 points")
    p.add_argument("--elements", type=int, default=2_000_000)

    sub.add_parser("machines", help="list the machine catalog")

    p = sub.add_parser("predict", help="one model prediction with breakdown")
    p.add_argument("machine")
    p.add_argument("kernel")
    p.add_argument("--npb-class", default="C", choices=list("SWABC"))
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--compiler", default=None)
    p.add_argument("--no-vectorise", action="store_true")

    p = sub.add_parser("cg-study", help="Section 6 CG vectorisation analysis")
    p.add_argument("--machine", default="sg2044")

    p = sub.add_parser("ablate", help="which SG2042->SG2044 upgrade bought what")
    p.add_argument("kernel", choices=["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"])
    p.add_argument("--threads", type=int, default=64)

    p = sub.add_parser("cluster", help="multi-socket strong-scaling projection")
    p.add_argument("machine")
    p.add_argument("kernel")
    p.add_argument("--sockets", type=int, nargs="+", default=[1, 2, 4, 8])

    p = sub.add_parser("roofline", help="roofline placement of the NPB kernels")
    p.add_argument("machine")

    p = sub.add_parser("export", help="write every table/figure as CSV")
    p.add_argument("directory")
    _sweep_flags(p)
    p.add_argument("--telemetry", metavar="PATH", default=None, help=telemetry_help)

    p = sub.add_parser(
        "faults",
        help="resilience smoke test: faulted sweep must equal fault-free sweep",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=0.3,
        help="per-attempt injected transient/slow fault rate (default 0.3)",
    )
    p.add_argument("--fault-seed", type=int, default=2025, help=fault_seed_help)
    p.add_argument("--retries", type=int, default=None, help=retries_help)
    p.add_argument("--jobs", type=int, default=None, help=jobs_help)

    p = sub.add_parser("score", help="model-vs-paper error scorecard")
    p.add_argument("--jobs", type=int, default=None, help=jobs_help)

    p = sub.add_parser(
        "stats",
        help="regenerate an artifact with telemetry enabled and print the report",
    )
    p.add_argument(
        "artifact",
        help="tableN (1-8) or figureN (1-6), e.g. table6, figure5, fig5",
    )
    p.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    p.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p.add_argument("--store", metavar="DIR", default=None, help=store_help)
    p.add_argument("--store-max-mb", type=int, default=None, help=store_max_help)

    p = sub.add_parser(
        "serve", help="run the prediction service (HTTP API + job manager)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8044, help="port (0 = ephemeral)")
    p.add_argument(
        "--workers", type=int, default=2, help="job-manager worker threads"
    )
    p.add_argument(
        "--queue-size", type=int, default=64, help="bounded job-queue admission limit"
    )
    p.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="also write finished artifacts to DIR (atomic)",
    )
    p.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="per-job crash-safe journal sidecars in DIR",
    )
    _sweep_flags(p)

    p = sub.add_parser(
        "campaign", help="run or plan a YAML scenario of sweep jobs"
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)
    pr = campaign_sub.add_parser("run", help="execute a scenario file")
    pr.add_argument("scenario", help="scenario YAML path")
    pr.add_argument(
        "--out", metavar="DIR", default="campaign-out", help="artifact directory"
    )
    _sweep_flags(pr)
    pp = campaign_sub.add_parser("plan", help="cost-estimate a scenario file")
    pp.add_argument("scenario", help="scenario YAML path")

    p = sub.add_parser(
        "bench",
        help="run benchmark suites, record the perf trajectory, gate regressions",
    )
    p.add_argument(
        "suites",
        nargs="*",
        default=None,
        help="suite names (bench_<name>.py stems); default: every suite",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="gate the run against the recorded history (exit 1 on regression)",
    )
    p.add_argument(
        "--bless",
        action="store_true",
        help="record the run as the new baseline even if the gate fails",
    )
    p.add_argument(
        "--list", dest="list_suites", action="store_true",
        help="list known suites and exit",
    )
    p.add_argument(
        "--bench-dir",
        metavar="DIR",
        default="benchmarks",
        help="benchmark directory (default: benchmarks)",
    )
    p.add_argument(
        "--artifact",
        metavar="PATH",
        default=None,
        help="merged artifact path (default: <bench-dir>/bench_artifact.json)",
    )
    p.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="history directory (default: <bench-dir>/history)",
    )
    p.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="escalation re-measurement rounds for --check (default 2)",
    )
    p.add_argument(
        "--no-fidelity",
        action="store_true",
        help="skip folding the paper-fidelity scorecard into the artifact",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print every gated delta, not just regressions/improvements",
    )

    p = sub.add_parser("lint", help=None)  # filled in by _ReproParser
    p.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to check (default: src benchmarks)",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all), e.g. R001,R003",
    )
    p.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    p.add_argument(
        "--stats",
        dest="lint_stats",
        action="store_true",
        help="print cache effectiveness and per-rule timings to stderr",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental lint cache",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="lint cache file (default: .repro-lint-cache.json in the root)",
    )
    p.add_argument(
        "--jobs",
        dest="lint_jobs",
        type=int,
        default=None,
        help="worker processes for changed files (default: serial)",
    )

    return parser


def _telemetry_start(path: str | None):
    """Install a fresh recorder when ``--telemetry PATH`` was given."""
    if path is None:
        return None
    from repro import obs

    return obs.install()


def _telemetry_finish(path: str | None, recorder) -> None:
    if recorder is None:
        return
    from repro import obs
    from repro.obs.export import write_report

    obs.disable()
    write_report(path, recorder)
    print(f"telemetry written to {path}", file=sys.stderr)


def _journal_attach(path: str | None):
    """Attach a sweep journal to the shared engine for this command."""
    if path is None:
        return None
    from repro.core.sweep import default_engine
    from repro.faults import SweepJournal

    engine = default_engine()
    engine.attach_journal(SweepJournal(path))
    return engine


def _journal_detach(engine) -> None:
    if engine is not None:
        engine.detach_journal()


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.harness import build_table

    recorder = _telemetry_start(args.telemetry)
    engine = _journal_attach(args.journal)
    try:
        result = build_table(args.number)
    finally:
        _journal_detach(engine)
    _telemetry_finish(args.telemetry, recorder)
    sys.stdout.write(result.to_csv() if args.csv else result.render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import build_figure

    recorder = _telemetry_start(args.telemetry)
    engine = _journal_attach(args.journal)
    try:
        result = build_figure(args.number)
    finally:
        _journal_detach(engine)
    _telemetry_finish(args.telemetry, recorder)
    sys.stdout.write(result.to_csv() if args.csv else result.render())
    return 0


def _cmd_npb(args: argparse.Namespace) -> int:
    from repro.npb.suite import run_benchmark

    result = run_benchmark(args.kernel, args.npb_class)
    print(result.summary())
    for key, value in result.details.items():
        print(f"  {key}: {value:.6g}")
    return 0 if result.verified else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.npb.suite import run_suite

    results = run_suite(args.npb_class)
    ok = True
    for r in results:
        print(r.summary())
        ok &= r.verified
    return 0 if ok else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.machines import get_machine
    from repro.stream import modelled_bandwidth, run_stream_host

    print("host STREAM:")
    for r in run_stream_host(n_elements=args.elements):
        status = "ok" if r.verified else "BAD RESULT"
        print(f"  {r.kernel:6} {r.bandwidth_gbs:8.2f} GB/s  [{status}]")
    print("modelled Figure 1 (copy):")
    for name in ("sg2042", "sg2044"):
        m = get_machine(name)
        pts = ", ".join(
            f"{n}:{modelled_bandwidth(m, n):.0f}"
            for n in (1, 2, 4, 8, 16, 32, 64)
        )
        print(f"  {m.label}: {pts} GB/s")
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    from repro.machines import all_machines

    for m in all_machines():
        d = m.describe()
        print(
            f"{m.name:<14} {d['CPU']:<18} {d['ISA']:<8} {d['Base clock']:>9} "
            f"{d['Cores']:>3} cores  {d['Vector']:<11} {d['Memory']}"
        )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.compilers import default_compiler_for, get_compiler
    from repro.core import PerformanceModel
    from repro.machines import get_machine
    from repro.npb import signature_for

    machine = get_machine(args.machine)
    compiler = get_compiler(args.compiler or default_compiler_for(args.machine))
    sig = signature_for(args.kernel, args.npb_class)
    pred = PerformanceModel().predict(
        machine, sig, compiler, args.threads, not args.no_vectorise
    )
    print(
        f"{sig.display} class {sig.npb_class} on {machine.label} "
        f"x{args.threads} ({compiler.display}, "
        f"{'vec' if pred.vectorised else 'no-vec'})"
    )
    print(f"  predicted: {pred.mops:,.1f} Mop/s ({pred.time_s:.2f} s)")
    print(
        f"  breakdown: compute {pred.t_compute:.2f} s, "
        f"stream {pred.t_stream:.2f} s, latency {pred.t_latency:.2f} s, "
        f"sync {pred.t_sync:.3f} s (dominant: {pred.dominant_term})"
    )
    for note in pred.notes:
        print(f"  note: {note}")
    return 0


def _cmd_cg_study(args: argparse.Namespace) -> int:
    from repro.perf import cg_vectorisation_study

    row = cg_vectorisation_study(args.machine)
    print(f"CG vectorisation study on {row.machine} (paper Section 6):")
    print(f"  vectorised slowdown: {row.slowdown:.2f}x (paper ~2.7x)")
    print(f"  branch-miss ratio:   {row.branch_miss_ratio:.2f}x (paper ~2x)")
    print(
        f"  IPC scalar/vector:   {row.ipc_scalar:.2f} / "
        f"{row.ipc_vectorised:.2f} (paper 0.54 / 0.51)"
    )
    for v in row.unroll_variants:
        beats = "beats scalar" if v.beats_scalar else "still slower than scalar"
        print(
            f"  unroll x{v.unroll}: {v.mops:8.1f} Mop/s "
            f"({v.relative_to_default_vec:.2f}x default vec; {beats})"
        )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.explore.whatif import UPGRADES, ablate_upgrade, upgrade_ladder

    print(f"{args.kernel.upper()} at {args.threads} threads:")
    print("cumulative ladder from the SG2042:")
    for step, mops, gain in upgrade_ladder(args.kernel, args.threads):
        print(f"  {step:<18} {mops:>12,.1f} Mop/s   x{gain:.2f}")
    print("marginal value of each upgrade (added last):")
    for upgrade in UPGRADES:
        gain = ablate_upgrade(args.kernel, upgrade.key, args.threads)
        print(f"  {upgrade.key:<8} ({upgrade.description}): x{gain:.2f}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.mpi.cluster import cluster_sweep

    sweep = cluster_sweep(args.machine, args.kernel, tuple(args.sockets))
    print(f"{args.kernel.upper()} on {args.machine}, InfiniBand HDR fabric:")
    for p in sweep:
        print(
            f"  {p.n_sockets} socket(s): {p.mops:>12,.1f} Mop/s "
            f"(eff {p.scaling_efficiency:.2f}, comm {100 * p.comm_fraction:.0f}%)"
        )
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.explore.roofline import ridge_intensity, roofline_point
    from repro.machines import get_machine
    from repro.npb import signature_for

    machine = get_machine(args.machine)
    print(
        f"{machine.label}: ridge at "
        f"{ridge_intensity(machine):.2f} flop/byte (full chip)"
    )
    for kernel in ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"):
        pt = roofline_point(machine, signature_for(kernel, "C"))
        intensity = (
            "inf" if pt.arithmetic_intensity == float("inf")
            else f"{pt.arithmetic_intensity:.2f}"
        )
        print(
            f"  {kernel.upper():3} intensity {intensity:>5} flop/B -> "
            f"{pt.attainable_gflops:8.1f} Gflop/s attainable ({pt.bound}-bound)"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.harness.export import export_all

    recorder = _telemetry_start(args.telemetry)
    engine = _journal_attach(args.journal)
    try:
        written = export_all(args.directory)
    finally:
        _journal_detach(engine)
    _telemetry_finish(args.telemetry, recorder)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Resilience smoke: a faulted sweep converges to the fault-free answer.

    Runs a 24-config grid twice through fresh engines -- once clean, once
    under a seeded fault plan injecting transient failures and slow
    workers -- and verifies the results are bit-identical.
    """
    from repro import faults, obs
    from repro.core.sweep import SweepEngine, expand_grid
    from repro.obs.export import report_dict

    grid = expand_grid(
        ("sg2044", "sg2042"),
        ("is", "ep", "mg", "cg"),
        thread_counts=(1, 4, 16),
    )
    faults.disable()
    obs.disable()
    baseline = SweepEngine(jobs=args.jobs).run_many(grid, on_dnr="none")

    try:
        plan = faults.FaultPlan(
            seed=args.fault_seed,
            transient_rate=args.rate,
            slow_rate=args.rate / 2.0,
            slow_delay_s=0.001,
        )
    except ValueError as exc:
        print(f"repro: error: --rate: {exc}", file=sys.stderr)
        return 2
    faults.install(plan)
    recorder = obs.install()
    try:
        engine = SweepEngine(jobs=args.jobs, retries=args.retries)
        faulted = engine.run_many(grid, on_dnr="none")
    finally:
        obs.disable()
        faults.disable()

    counters = report_dict(recorder, include_timings=False)["counters"]
    identical = faulted == baseline
    print(f"grid: {len(grid)} configs, fault seed {args.fault_seed}, rate {args.rate}")
    injected = plan.stats()
    print(
        "injected: "
        + (", ".join(f"{k}={n}" for k, n in injected.items()) or "none")
    )
    print(f"retries spent: {counters.get('sweep.retries', 0)}")
    print(f"verdict: {'bit-identical' if identical else 'RESULTS DIVERGED'}")
    return 0 if identical else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.sweep import default_engine
    from repro.service import JobManager, create_server

    # The service is long-running and its /stats endpoint reads the live
    # recorder, so telemetry is on for the whole process lifetime.
    obs.install()
    engine = _journal_attach(args.journal) or default_engine()
    try:
        manager = JobManager(
            engine=engine,
            workers=args.workers,
            queue_size=args.queue_size,
            artifact_dir=args.artifact_dir,
            journal_dir=args.journal_dir,
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    server = create_server(args.host, args.port, manager)
    print(
        f"repro service listening on http://{args.host}:{server.server_port} "
        f"(workers={args.workers}, queue={args.queue_size})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        manager.shutdown()
        obs.disable()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core.sweep import default_engine
    from repro.service import ScenarioError, load_scenario, plan_campaign, run_campaign

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.campaign_command == "plan":
        rows = plan_campaign(scenario, default_engine())
        print(f"scenario {scenario.name}: {len(rows)} job(s)")
        total = 0
        for row in rows:
            total += row["configs"]
            print(
                f"  {row['name']:<20} {row['kind']:<7} {row['job_id']:<22} "
                f"{row['configs']:>6} configs / {row['families']:>4} families"
                f" ({row['cached']} cached)"
            )
        print(f"  total: {total} configs")
        return 0
    engine = _journal_attach(args.journal) or default_engine()
    manifest = run_campaign(scenario, args.out, engine=engine, jobs=args.jobs)
    for job in manifest["jobs"]:
        print(f"wrote {args.out}/{job['artifact']} ({job['configs']} configs)")
    print(f"wrote {args.out}/MANIFEST.json")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import re

    from repro import obs
    from repro.obs.export import render_json, render_text

    match = re.fullmatch(r"(table|figure|fig|t|f)\s*-?\s*(\d+)", args.artifact.lower())
    if match is None:
        print(
            f"repro: error: unrecognised artifact {args.artifact!r} "
            "(expected e.g. table6 or figure5)",
            file=sys.stderr,
        )
        return 2
    kind = "figure" if match.group(1) in {"figure", "fig", "f"} else "table"
    number = int(match.group(2))

    from repro.core.sweep import default_engine

    recorder = obs.install()
    # Surface the engine sizing this run resolved (argument, environment
    # or default) so `repro stats` answers "how parallel was that?".
    obs.incr("sweep.jobs_resolved", default_engine().jobs)
    try:
        if kind == "table":
            from repro.harness import build_table

            build_table(number)
        else:
            from repro.harness import build_figure

            build_figure(number)
    except KeyError:
        print(f"repro: error: no such artifact: {kind}{number}", file=sys.stderr)
        return 2
    finally:
        obs.disable()
    if args.fmt == "json":
        sys.stdout.write(render_json(recorder))
    else:
        sys.stdout.write(render_text(recorder))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import BenchError, check_run, discover_suites, record_run
    from repro.bench.compare import render_deltas
    from repro.bench.history import BenchHistory

    bench_dir = Path(args.bench_dir)
    if args.list_suites:
        suites = discover_suites(bench_dir)
        if not suites:
            print(f"repro: error: no bench suites under {bench_dir}", file=sys.stderr)
            return 2
        for name, path in sorted(suites.items()):
            print(f"{name:<28} {path}")
        return 0
    suites = list(args.suites) if args.suites else None
    artifact = args.artifact
    history = BenchHistory(args.history) if args.history else None
    try:
        if args.check:
            deltas, escalations, code = check_run(
                bench_dir,
                artifact_path=artifact,
                history=history,
                suites=suites,
                fidelity=not args.no_fidelity,
                rounds=args.rounds,
                bless=args.bless,
            )
            sys.stdout.write(render_deltas(deltas, verbose=args.verbose))
            if escalations:
                print(f"escalation rounds used: {escalations}")
            if code != 0:
                print(
                    "verdict: REGRESSION (run not recorded; re-run with "
                    "--bless after an intentional perf change)",
                )
            else:
                print("verdict: pass (run recorded into the history)")
            return code
        entries, run_meta = record_run(
            bench_dir,
            artifact_path=artifact,
            history=history,
            suites=suites,
            fidelity=not args.no_fidelity,
        )
        print(
            f"recorded {len(entries)} entries from "
            f"{len(run_meta.get('suites', []))} suite(s) "
            f"(git {str(run_meta.get('git_sha'))[:7]})"
        )
        return 0
    except BenchError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _cmd_score(_args: argparse.Namespace) -> int:
    from repro.harness.scorecard import scorecard

    print("model-vs-paper absolute relative error:")
    for score in scorecard():
        print(f"  {score.summary()}")
    return 0


def _lint_help() -> str:
    """Derived from the registry so the listed codes can never go stale.

    Consecutive codes collapse into ranges; retired codes leave a gap.
    """
    from repro.analysis.registry import registered_codes

    runs: list[list[int]] = []
    for n in (int(code[1:]) for code in registered_codes()):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    spans = ", ".join(
        f"R{lo:03d}" if lo == hi else f"R{lo:03d}-R{hi:03d}" for lo, hi in runs
    )
    return f"repo-aware static analysis ({spans})"


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import run_analysis
    from repro.analysis.core import CACHE_FILENAME
    from repro.analysis.registry import all_rules, rules_for
    from repro.analysis.reporting import render_json, render_stats, render_text

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<14} {rule.description}")
        return 0
    if args.rules is None:
        rules = all_rules()
    else:
        codes = [c.strip() for c in args.rules.split(",") if c.strip()]
        try:
            rules = rules_for(codes)
        except KeyError as exc:
            print(f"repro: error: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.no_cache:
        cache_path = None
    else:
        cache_path = Path(args.cache) if args.cache else Path(".") / CACHE_FILENAME
    report = run_analysis(
        args.paths, rules, root=".", cache_path=cache_path, jobs=args.lint_jobs
    )
    render = render_json if args.fmt == "json" else render_text
    sys.stdout.write(render(report))
    if args.lint_stats:
        sys.stderr.write(render_stats(report))
    return report.exit_code


_COMMANDS = {
    "table": _cmd_table,
    "figure": _cmd_figure,
    "npb": _cmd_npb,
    "suite": _cmd_suite,
    "stream": _cmd_stream,
    "machines": _cmd_machines,
    "predict": _cmd_predict,
    "cg-study": _cmd_cg_study,
    "ablate": _cmd_ablate,
    "cluster": _cmd_cluster,
    "roofline": _cmd_roofline,
    "export": _cmd_export,
    "stats": _cmd_stats,
    "score": _cmd_score,
    "bench": _cmd_bench,
    "lint": _cmd_lint,
    "faults": _cmd_faults,
    "serve": _cmd_serve,
    "campaign": _cmd_campaign,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        from repro.core.sweep import set_default_jobs

        try:
            set_default_jobs(jobs)
        except ValueError as exc:
            print(f"repro: error: --jobs: {exc}", file=sys.stderr)
            return 2
    retries = getattr(args, "retries", None)
    if retries is not None and args.command != "faults":
        from repro.core.sweep import set_default_retries

        try:
            set_default_retries(retries)
        except ValueError as exc:
            print(f"repro: error: --retries: {exc}", file=sys.stderr)
            return 2
    store_dir = getattr(args, "store", None)
    if store_dir is not None:
        from repro.core.sweep import set_default_store
        from repro.store import ResultStore

        cap = getattr(args, "store_max_mb", None)
        try:
            set_default_store(
                ResultStore(
                    store_dir, max_bytes=None if cap is None else cap * 2**20
                )
            )
        except ValueError as exc:
            print(f"repro: error: --store: {exc}", file=sys.stderr)
            return 2
    fault_seed = getattr(args, "fault_seed", None)
    plan_installed = False
    if fault_seed is not None and args.command != "faults":
        from repro import faults

        try:
            faults.install(
                faults.FaultPlan(
                    seed=fault_seed, transient_rate=args.fault_rate
                )
            )
        except ValueError as exc:
            print(f"repro: error: --fault-rate: {exc}", file=sys.stderr)
            return 2
        plan_installed = True
    try:
        return _COMMANDS[args.command](args)
    finally:
        if plan_installed:
            from repro import faults

            faults.disable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
