"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze``  — QoS of one scheme configuration (closed form + simulation);
* ``figure4``  — regenerate the paper's Figure 4 series;
* ``table1``   — regenerate Table 1 (claimed vs measured);
* ``simulate`` — run a scheme and export the trace (JSON/CSV);
* ``sweep``    — replay a compiled schedule over a seeds × drop-rates grid;
* ``churn``    — stream through a random churn trace and report hiccups;
* ``repair``   — sweep loss rate × slack × scheme over the repair subsystem;
* ``stats``    — fully instrumented run: metrics, event counts, phase timings;
* ``fleet``    — multi-session service scenario: admission control against
  capacity budgets, sharded execution, fleet SLO report (``--dry-run``
  prints the resolved scenario without executing it; ``--aggregation
  sketch`` / ``--until-converged`` / ``--telemetry`` / ``--chrome-trace``
  engage the fleet-scale telemetry layer, see ``docs/TELEMETRY.md``);
* ``abr``      — delay/buffer tradeoff sweep under time-varying link
  capacity: one ABR session per trace profile × prebuffer target, curves
  bucketed by QoE tier (see ``docs/ABR.md``);
* ``check``    — statically model-check a compiled schedule against the
  paper's invariants and theorem bounds without running the engine
  (``--grid`` certifies every compilable scheme over the CI smoke grid);
* ``lint``     — the project lint: per-file determinism/error-discipline
  rules (REP001-REP004) and the project-model analyzer passes
  (REP005-REP007), see ``docs/CHECKS.md``;
* ``runs``     — summarize the JSONL run ledger (runs by kind, total
  recorded time) and list the recent runs (``repro.run`` appends one line
  per run when ``$REPRO_LEDGER`` or ``--ledger`` names a file).

``repro --version`` prints the package version (from installed metadata when
available, else the source tree's ``repro.__version__``).

The experiment commands (``simulate``, ``sweep``, ``churn``, ``repair``,
``stats``) are thin argument translators over the unified facade —
``repro.run`` with an :class:`~repro.experiments.ExperimentSpec` — so the CLI
and the library take the same code path, including the compiled-schedule
cache.  ``simulate``, ``churn``, and ``repair`` accept ``--profile``
(per-phase table of the engine's phase spans) and ``--trace-events PATH``
(JSONL event stream) — the observability layer of :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine import simulate
from repro.core.errors import ReproError
from repro.core.metrics import collect_metrics
from repro.experiments import ExperimentSpec, run
from repro.obs import Instrumentation, SpanTracer, span_rows
from repro.reporting.export import (
    write_arrivals_csv,
    write_trace_json,
    write_transmissions_csv,
)
from repro.reporting.tables import format_rows, format_table

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def _add_instrumentation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="time engine phases and print a per-phase table after the run",
    )
    parser.add_argument(
        "--trace-events", metavar="PATH", default=None,
        help="write the structured event stream here as JSONL",
    )


def _make_instrumentation(args) -> Instrumentation | None:
    """Build the bundle the flags ask for (``None`` = fully off)."""
    if not args.profile and not args.trace_events:
        return None
    return Instrumentation.collecting(
        events_path=args.trace_events, ring_capacity=None, profile=args.profile
    )


def _profile_table(spans: SpanTracer) -> str:
    """The per-phase table ``--profile`` and ``repro stats`` print."""
    return format_rows(span_rows(spans.finished), title="per-phase timings")


def _report_instrumentation(instr: Instrumentation | None, args) -> None:
    if instr is None:
        return
    instr.close()
    if instr.spans is not None:
        print()
        print(_profile_table(instr.spans))
    if instr.tracer is not None:
        total = sum(instr.tracer.counts.values())
        print(f"events: {total} -> {args.trace_events}")


def _make_protocol(scheme: str, num_nodes: int, degree: int, seed: int = 0):
    if scheme == "multi-tree":
        from repro.trees import MultiTreeProtocol

        return MultiTreeProtocol(num_nodes, degree)
    if scheme == "hypercube":
        from repro.hypercube import HypercubeCascadeProtocol

        return HypercubeCascadeProtocol(num_nodes)
    if scheme == "grouped-hypercube":
        from repro.hypercube import GroupedHypercubeProtocol

        return GroupedHypercubeProtocol(num_nodes, degree)
    if scheme == "chain":
        from repro.baselines import ChainProtocol

        return ChainProtocol(num_nodes)
    if scheme == "single-tree":
        from repro.baselines import SingleTreeProtocol

        return SingleTreeProtocol(num_nodes, degree)
    if scheme == "gossip":
        from repro.baselines import RandomGossipProtocol

        return RandomGossipProtocol(num_nodes, degree, seed=seed)
    raise SystemExit(f"unknown scheme {scheme!r}")


_SCHEMES = ["multi-tree", "hypercube", "grouped-hypercube", "chain", "single-tree", "gossip"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'On the Tradeoff Between Playback Delay "
        "and Buffer Space in Streaming' (IPPS 2009)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="QoS of one configuration")
    analyze.add_argument("--scheme", choices=_SCHEMES, default="multi-tree")
    analyze.add_argument("-n", "--nodes", type=int, default=100)
    analyze.add_argument("-d", "--degree", type=int, default=3)
    analyze.add_argument("-p", "--packets", type=int, default=24)

    figure4 = sub.add_parser("figure4", help="regenerate Figure 4")
    figure4.add_argument("--max-nodes", type=int, default=2000)
    figure4.add_argument("--step", type=int, default=100)
    figure4.add_argument(
        "--parallel", type=int, metavar="WORKERS", default=1,
        help="evaluate the sweep across processes",
    )

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("-n", "--nodes", type=int, default=255)
    table1.add_argument("-d", "--degree", type=int, default=3)
    table1.add_argument("-p", "--packets", type=int, default=24)

    sim = sub.add_parser("simulate", help="run a scheme and export the trace")
    sim.add_argument("--scheme", choices=_SCHEMES, default="multi-tree")
    sim.add_argument("-n", "--nodes", type=int, default=30)
    sim.add_argument("-d", "--degree", type=int, default=3)
    sim.add_argument("-p", "--packets", type=int, default=12)
    sim.add_argument("--json", metavar="PATH", help="write trace JSON here")
    sim.add_argument("--csv", metavar="PREFIX", help="write PREFIX_{tx,arrivals}.csv")
    sim.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed (randomized schemes and fault injection)",
    )
    sim.add_argument(
        "--drop-rate", type=float, default=0.0, metavar="RATE",
        help="Bernoulli per-transmission drop probability; >0 switches to the "
        "loss-aware protocol variant (multi-tree / hypercube only)",
    )
    _add_instrumentation_flags(sim)

    sweep = sub.add_parser(
        "sweep", help="replay a compiled schedule over a seeds × drop-rates grid"
    )
    sweep.add_argument(
        "--scheme",
        choices=["multi-tree", "hypercube", "grouped-hypercube", "chain", "single-tree"],
        default="multi-tree",
    )
    sweep.add_argument("-n", "--nodes", type=int, default=255)
    sweep.add_argument("-d", "--degree", type=int, default=3)
    sweep.add_argument("-p", "--packets", type=int, default=24)
    sweep.add_argument(
        "--seeds", type=int, default=8, metavar="COUNT",
        help="replay seeds 0..COUNT-1 at every drop rate",
    )
    sweep.add_argument(
        "--drop", type=float, nargs="+", default=[0.0], metavar="RATE",
        help="Bernoulli drop probabilities to sweep",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process count (default: cores - 1)",
    )
    sweep.add_argument(
        "--mode", choices=["auto", "serial", "parallel"], default="auto",
        help="executor mode (auto falls back to serial for tiny grids)",
    )
    sweep.add_argument("--json", metavar="PATH", help="write the sweep rows as JSON")

    churn = sub.add_parser("churn", help="stream through churn, report hiccups")
    churn.add_argument("-n", "--nodes", type=int, default=30)
    churn.add_argument("-d", "--degree", type=int, default=3)
    churn.add_argument("--events", type=int, default=6)
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--lazy", action="store_true")
    _add_instrumentation_flags(churn)

    repair = sub.add_parser(
        "repair", help="sweep loss rate × slack × scheme over the repair subsystem"
    )
    repair.add_argument(
        "--scheme", choices=["multi-tree", "hypercube", "both"], default="both"
    )
    repair.add_argument("-n", "--nodes", type=int, default=15)
    repair.add_argument("-d", "--degree", type=int, default=3)
    repair.add_argument("-p", "--packets", type=int, default=40)
    repair.add_argument(
        "--mode", choices=["none", "retransmit", "parity", "all"], default="all"
    )
    repair.add_argument(
        "--loss", type=float, nargs="+", default=[0.01], metavar="RATE",
        help="Bernoulli drop probabilities to sweep",
    )
    repair.add_argument(
        "--epsilon", type=float, nargs="+", default=[0.05], metavar="EPS",
        help="retransmission slack fractions to sweep",
    )
    repair.add_argument("--group", type=int, default=4, help="parity group size g")
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument("--json", metavar="PATH", help="write the sweep rows as JSON")
    _add_instrumentation_flags(repair)

    stats = sub.add_parser(
        "stats", help="fully instrumented run: metrics, event counts, timings"
    )
    stats.add_argument("--scheme", choices=_SCHEMES, default="multi-tree")
    stats.add_argument("-n", "--nodes", type=int, default=63)
    stats.add_argument("-d", "--degree", type=int, default=3)
    stats.add_argument("-p", "--packets", type=int, default=16)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--drop-rate", type=float, default=0.0, metavar="RATE",
        help="Bernoulli drop probability (loss-aware schemes only)",
    )
    stats.add_argument(
        "--json", metavar="PATH",
        help="also write the metrics/profile/event-count snapshot as JSON",
    )

    fleet = sub.add_parser(
        "fleet", help="multi-session service scenario with admission + SLOs"
    )
    fleet.add_argument(
        "--sessions", type=int, default=200, metavar="COUNT",
        help="total sessions arriving over the scenario",
    )
    fleet.add_argument(
        "--config", action="append", default=None, metavar="SCHEME:N:D[:P[:DROP]]",
        help="add a session kind (repeatable); e.g. multi-tree:31:3:16:0.01. "
        "Default: a mixed 4-kind fleet",
    )
    fleet.add_argument(
        "--arrival", choices=["poisson", "uniform"], default="poisson",
        help="session arrival process",
    )
    fleet.add_argument(
        "--arrival-rate", type=float, default=4.0, metavar="RATE",
        help="arrival intensity in sessions per slot",
    )
    fleet.add_argument(
        "--policy", choices=["reject", "queue", "degrade"], default="queue",
        help="admission policy when capacity runs out",
    )
    fleet.add_argument(
        "--fanout-budget", type=float, default=64.0, metavar="UNITS",
        help="aggregate concurrent source fan-out budget",
    )
    fleet.add_argument(
        "--backbone-budget", type=float, default=8192.0, metavar="UNITS",
        help="aggregate concurrent receiver budget",
    )
    fleet.add_argument(
        "--churn-rate", type=float, default=0.0, metavar="FRACTION",
        help="fraction of sessions departing before stream end",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process count (default: cores - 1)",
    )
    fleet.add_argument(
        "--mode", choices=["auto", "serial", "parallel"], default="auto",
        help="executor mode",
    )
    fleet.add_argument(
        "--aggregation", choices=["exact", "sketch"], default="exact",
        help="SLO aggregation: exact pooled percentiles, or mergeable "
        "quantile sketches with bounded memory (no per-session rows)",
    )
    fleet.add_argument(
        "--sketch-error", type=float, default=0.01, metavar="ALPHA",
        help="relative error bound of sketch aggregation (default 0.01)",
    )
    fleet.add_argument(
        "--until-converged", action="store_true",
        help="execute sessions in batches and stop early once the p99 "
        "startup-delay estimate's confidence interval is tight "
        "(see docs/TELEMETRY.md)",
    )
    fleet.add_argument(
        "--telemetry", action="store_true",
        help="record tumbling-window time series + pipeline spans and print "
        "the per-window rows after the report",
    )
    fleet.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help="write the run's pipeline spans as a Chrome trace JSON "
        "(implies --telemetry)",
    )
    fleet.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append a run record to this JSONL ledger "
        "(default: $REPRO_LEDGER when set)",
    )
    fleet.add_argument(
        "--json", metavar="PATH", help="write the fleet SLO report here"
    )
    fleet.add_argument(
        "--dry-run", action="store_true",
        help="print the resolved scenario (sessions, kinds, arrivals) and exit "
        "without executing anything",
    )

    control = sub.add_parser(
        "control",
        help="race static admission policies against the feedback control "
        "plane on the load-ramp scenario (see docs/CONTROL.md)",
    )
    control.add_argument(
        "--policy", choices=["all", "queue", "reject", "degrade", "adaptive"],
        default="all",
        help="run one policy, or 'all' for the full comparison table",
    )
    control.add_argument(
        "--scale", type=float, default=1.0, metavar="FACTOR",
        help="session-count multiplier on the 240-session ramp",
    )
    control.add_argument(
        "--slo", type=int, default=None, metavar="SLOTS",
        help="p99 startup-delay SLO in slots (default: the scenario's 18)",
    )
    control.add_argument("--seed", type=int, default=0)
    control.add_argument(
        "--decisions", action="store_true",
        help="print the control plane's per-epoch decision log",
    )
    control.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append the adaptive run's decision log as a control record "
        "(default: $REPRO_LEDGER when set)",
    )
    control.add_argument(
        "--json", metavar="PATH",
        help="write the comparison rows and decision log here",
    )

    abr = sub.add_parser(
        "abr",
        help="delay/buffer tradeoff sweep under time-varying capacity, "
        "bucketed by QoE tier",
    )
    abr.add_argument(
        "--profiles", nargs="+", default=None, metavar="NAME",
        help="capacity trace profiles to sweep (default: steady step "
        "sinusoid onoff; see repro.abr.TRACE_PROFILES)",
    )
    abr.add_argument(
        "--startup", type=int, nargs="+", default=None, metavar="CHUNKS",
        help="prebuffer targets in chunks — the delay knob (default: 1 2 4 8)",
    )
    abr.add_argument(
        "--chunks", type=int, default=32, metavar="COUNT",
        help="video length in chunks",
    )
    abr.add_argument(
        "--chunk-slots", type=int, default=4, metavar="SLOTS",
        help="playback duration of one chunk in slots",
    )
    abr.add_argument("--seed", type=int, default=0)
    abr.add_argument(
        "--json", metavar="PATH", help="write the ABR tradeoff report here"
    )

    check = sub.add_parser(
        "check",
        help="statically model-check a compiled schedule against the paper's "
        "invariants (no engine run)",
    )
    check.add_argument(
        "--scheme",
        choices=["multi-tree", "hypercube", "grouped-hypercube", "chain", "single-tree"],
        default="multi-tree",
    )
    check.add_argument("-n", "--nodes", type=int, default=127)
    check.add_argument("-d", "--degree", type=int, default=3)
    check.add_argument("-p", "--packets", type=int, default=16)
    check.add_argument(
        "--construction", choices=["structured", "greedy"], default="structured",
        help="multi-tree forest construction",
    )
    check.add_argument(
        "--mode", choices=["prerecorded", "live_prebuffered"], default="prerecorded",
        help="multi-tree stream mode",
    )
    check.add_argument(
        "--grid", action="store_true",
        help="ignore --scheme/-n/-d and certify every compilable scheme over "
        "the CI smoke grid (N in {15, 127, 1023}, d in {2, 3})",
    )
    check.add_argument(
        "--max-per-rule", type=int, default=25, metavar="COUNT",
        help="findings printed per rule (totals stay exact)",
    )
    check.add_argument("--json", metavar="PATH", help="write the report(s) as JSON")

    lint = sub.add_parser(
        "lint",
        help="run the per-file rules (REP001-REP004) and the model-based "
        "analyzer passes (REP005-REP007) over paths",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format",
    )
    lint.add_argument(
        "--rules", metavar="IDS", default=None,
        help="comma-separated rule ids to run (default: all)",
    )

    runs = sub.add_parser(
        "runs",
        help="summarize and list recorded experiment runs from the JSONL "
        "run ledger",
    )
    runs.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="ledger to read (default: $REPRO_LEDGER, else results/ledger.jsonl)",
    )
    runs.add_argument(
        "--last", type=int, default=20, metavar="COUNT",
        help="show only the most recent COUNT runs (0 = all)",
    )
    runs.add_argument(
        "--json", action="store_true",
        help="print the raw records as JSON instead of a table",
    )

    verify = sub.add_parser(
        "verify", help="audit an exported trace JSON against the model"
    )
    verify.add_argument("path", help="trace JSON written by `repro simulate --json`")
    verify.add_argument(
        "--source-capacity", type=int, default=None,
        help="send capacity of node 0 (default: inferred from the log)",
    )
    return parser


def _cmd_analyze(args) -> int:
    protocol = _make_protocol(args.scheme, args.nodes, args.degree)
    trace = simulate(protocol, protocol.slots_for_packets(args.packets))
    print(protocol.describe())
    try:
        metrics = collect_metrics(trace, num_packets=args.packets)
    except ValueError:
        # Best-effort schemes (gossip) may leave packets undelivered.
        total = args.packets * len(list(protocol.node_ids))
        delivered = sum(
            1
            for node in protocol.node_ids
            for p in range(args.packets)
            if p in trace.arrivals(node)
        )
        print(f"best-effort delivery: {delivered}/{total} (node, packet) pairs "
              "arrived; no QoS guarantee to report")
        return 0
    print(format_rows([metrics.row()]))
    return 0


def _cmd_figure4(args) -> int:
    from repro.exec.executor import ExecutorPolicy, SweepExecutor
    from repro.reporting.series import series_table
    from repro.workloads.parallel import multi_tree_cell
    from repro.workloads.sweeps import degree_sweep, figure4_populations

    populations = figure4_populations(args.max_nodes, step=args.step)
    degrees = degree_sweep()
    tasks = [(n, d) for d in degrees for n in populations]
    executor = SweepExecutor(ExecutorPolicy(max_workers=args.parallel))
    results = executor.map(multi_tree_cell, tasks)
    by_degree: dict[int, list[int]] = {d: [] for d in degrees}
    for _n, d, delay in results:
        by_degree[d].append(delay)
    series = {f"degree {d}": by_degree[d] for d in degrees}
    print(series_table("N", populations, series))
    return 0


def _cmd_table1(args) -> int:
    from repro.theory.bounds import table1

    rows = []
    for claim in table1(args.nodes, args.degree):
        rows.append(
            {
                "scheme": claim.scheme,
                "max delay": claim.max_delay,
                "buffer": claim.buffer_size,
                "neighbors": claim.num_neighbors,
            }
        )
    print(format_table(
        ["scheme", "max delay", "buffer", "neighbors"],
        [[r["scheme"], r["max delay"], r["buffer"], r["neighbors"]] for r in rows],
        title=f"Table 1 (claims), instantiated at N={args.nodes}, d={args.degree}:",
    ))
    measured = []
    for scheme in ("multi-tree", "hypercube"):
        protocol = _make_protocol(scheme, args.nodes, args.degree)
        trace = simulate(protocol, protocol.slots_for_packets(args.packets))
        row = collect_metrics(trace, num_packets=args.packets).row()
        measured.append({"scheme": scheme, **row})
    print()
    print(format_rows(measured, title="Measured:"))
    return 0


def _spec_base(args, **overrides) -> ExperimentSpec:
    """Translate the shared CLI flags into an :class:`ExperimentSpec`."""
    fields = {
        "scheme": getattr(args, "scheme", "multi-tree"),
        "num_nodes": args.nodes,
        "degree": args.degree,
        "num_packets": getattr(args, "packets", 30),
        "seed": getattr(args, "seed", 0),
    }
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _cmd_simulate(args) -> int:
    instr = _make_instrumentation(args)
    result = run(
        _spec_base(args, drop_rate=args.drop_rate), instrumentation=instr
    )
    title = result.provenance["description"]
    if args.drop_rate > 0:
        title += f" under loss {args.drop_rate} (seed {args.seed})"
    print(format_rows([result.row], title=title))
    trace = result.trace
    if args.json:
        print(f"trace JSON -> {write_trace_json(trace, args.json, instrumentation=instr)}")
    if args.csv:
        print(f"transmissions -> {write_transmissions_csv(trace, args.csv + '_tx.csv')}")
        print(f"arrivals -> {write_arrivals_csv(trace, args.csv + '_arrivals.csv')}")
    _report_instrumentation(instr, args)
    return 0


def _cmd_sweep(args) -> int:
    import json

    from repro.exec.executor import ExecutorPolicy

    spec = _spec_base(
        args,
        kind="sweep",
        seeds=tuple(range(args.seeds)),
        drop_rates=tuple(args.drop),
        executor=ExecutorPolicy(max_workers=args.workers, mode=args.mode),
    )
    result = run(spec)
    print(format_rows(
        list(result.rows),
        title=f"{result.provenance['description']}: "
        f"{args.seeds} seeds x {len(args.drop)} drop rates",
    ))
    executor = result.provenance["executor"]
    print(f"executor: {executor['mode']} ({executor['workers']} workers, "
          f"{executor['tasks']} points); schedule cache: "
          f"{result.provenance['cache']}; {result.timing_s:.2f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(list(result.rows), fh, indent=2)
        print(f"sweep JSON -> {args.json}")
    return 0


def _cmd_churn(args) -> int:
    instr = _make_instrumentation(args)
    result = run(
        _spec_base(
            args,
            kind="churn",
            scheme="multi-tree",
            churn_events=args.events,
            lazy_churn=args.lazy,
        ),
        instrumentation=instr,
    )
    row = result.row
    print(f"churn events applied: {row['events_applied']}; "
          f"population {args.nodes} -> {row['population_after']}")
    print(f"total hiccups: {row['total_hiccups']} across "
          f"{row['hiccup_nodes']} nodes "
          f"({row['relocated_nodes']} relocated by repairs)")
    _report_instrumentation(instr, args)
    return 0


def _cmd_repair(args) -> int:
    import json

    from repro.repair import REPAIR_SCHEMES

    instr = _make_instrumentation(args)
    schemes = list(REPAIR_SCHEMES) if args.scheme == "both" else [args.scheme]
    modes = ["none", "retransmit", "parity"] if args.mode == "all" else [args.mode]
    rows = []
    for scheme in schemes:
        for loss in args.loss:
            for mode in modes:
                # Only retransmission sweeps ε; other modes fix their own slack.
                epsilons = args.epsilon if mode == "retransmit" else args.epsilon[:1]
                for eps in epsilons:
                    result = run(
                        _spec_base(
                            args,
                            kind="repair",
                            scheme=scheme,
                            repair_mode=mode,
                            epsilon=eps,
                            group=args.group,
                            drop_rate=loss,
                        ),
                        instrumentation=instr,
                    )
                    rows.append(result.row)
    print(format_rows(
        rows,
        title=f"repair tradeoff: N={args.nodes}, d={args.degree}, "
        f"P={args.packets}, seed={args.seed}",
    ))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"sweep JSON -> {args.json}")
    _report_instrumentation(instr, args)
    return 0


def _cmd_stats(args) -> int:
    from repro.reporting.export import write_metrics_json

    instr = Instrumentation.collecting(profile=True)
    result = run(
        _spec_base(args, drop_rate=args.drop_rate), instrumentation=instr
    )
    instr.close()
    print(format_rows([result.row], title=result.provenance["description"]))
    print()
    print(format_rows(instr.registry.rows(), title="metrics registry:"))
    print()
    event_rows = [
        {"event": name, "count": count}
        for name, count in sorted(instr.tracer.counts.items())
    ]
    print(format_rows(event_rows, title="event counts:"))
    print()
    print(_profile_table(instr.spans))
    if args.json:
        print(f"stats JSON -> {write_metrics_json(instr, args.json)}")
    return 0


_DEFAULT_FLEET_CONFIGS = [
    "multi-tree:31:3:16",
    "multi-tree:63:3:16",
    "hypercube:32:3:16",
    "single-tree:31:3:16:0.01",
]


def _parse_session_config(text: str):
    """``SCHEME:N:D[:PACKETS[:DROP]]`` -> :class:`~repro.service.SessionSpec`."""
    from repro.service import SessionSpec

    parts = text.split(":")
    if not 3 <= len(parts) <= 5:
        raise SystemExit(
            f"bad --config {text!r}: expected SCHEME:N:D[:PACKETS[:DROP]]"
        )
    try:
        return SessionSpec(
            scheme=parts[0],
            num_nodes=int(parts[1]),
            degree=int(parts[2]),
            num_packets=int(parts[3]) if len(parts) > 3 else 16,
            drop_rate=float(parts[4]) if len(parts) > 4 else 0.0,
        )
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"bad --config {text!r}: {exc}") from exc


def _cmd_fleet(args) -> int:
    from repro.exec.executor import ExecutorPolicy
    from repro.obs.convergence import ConvergenceCriterion
    from repro.reporting.export import write_fleet_report_json
    from repro.service import CapacityModel, FleetSpec

    configs = args.config or _DEFAULT_FLEET_CONFIGS
    fleet = FleetSpec(
        sessions=tuple(_parse_session_config(c) for c in configs),
        num_sessions=args.sessions,
        arrival=args.arrival,
        arrival_rate=args.arrival_rate,
        capacity=CapacityModel(
            source_fanout=args.fanout_budget, backbone=args.backbone_budget
        ),
        policy=args.policy,
        churn_rate=args.churn_rate,
        seed=args.seed,
        aggregation=args.aggregation,
        sketch_error=args.sketch_error,
        convergence=ConvergenceCriterion() if args.until_converged else None,
    )
    if args.dry_run:
        print(fleet.describe())
        rows = [
            {
                "session": s.session_id,
                "kind": s.spec.label,
                "arrival_slot": s.arrival_slot,
                "seed": s.seed,
                "churns": "" if s.leave_fraction is None
                else f"@{s.leave_fraction:.2f}",
            }
            for s in fleet.resolve()
        ]
        print(format_rows(rows, title="resolved sessions:"))
        return 0
    spec = ExperimentSpec(
        kind="fleet",
        fleet=fleet,
        executor=ExecutorPolicy(max_workers=args.workers, mode=args.mode),
    )
    telemetry = None
    if args.telemetry or args.chrome_trace:
        # Telemetry drives the runner directly so the bundle is ours to
        # render; the run is still recorded to the ledger like any other.
        from types import SimpleNamespace

        from repro.obs import Timer
        from repro.reporting.ledger import RunLedger, default_ledger, run_record
        from repro.service import FleetRunner, FleetTelemetry

        telemetry = FleetTelemetry()
        runner = FleetRunner(policy=spec.executor, telemetry=telemetry)
        with Timer() as timer:
            fleet_result = runner.run(fleet)
        report = fleet_result.report
        provenance = {
            "kind": "fleet",
            "scheme": spec.scheme,
            "description": fleet.describe(),
            "compiled": True,
            "cache": {
                "hits": report.cache_hits,
                "misses": report.cache_misses,
                "hit_rate": report.cache_hit_rate,
            },
            "executor": fleet_result.executor_info,
        }
        if fleet_result.convergence is not None:
            provenance["convergence"] = fleet_result.convergence.row()
        result = SimpleNamespace(
            rows=tuple(slo.row() for slo in report.sessions),
            timing_s=timer.elapsed,
            provenance=provenance,
        )
        ledger = RunLedger(args.ledger) if args.ledger else default_ledger()
        if ledger is not None:
            ledger.append(run_record(spec, result))
        convergence = fleet_result.convergence
    else:
        result = run(spec, ledger=args.ledger)
        report = result.artifacts["report"]
        convergence = result.artifacts.get("convergence")
    print(format_rows([report.row()], title=result.provenance["description"]))
    executor = result.provenance["executor"]
    print(
        f"executor: {executor['mode']} ({executor['workers']} workers, "
        f"{executor['tasks']} sessions); schedule cache: "
        f"{report.cache_hits} hits / {report.cache_misses} misses "
        f"(hit rate {report.cache_hit_rate:.3f}); {result.timing_s:.2f}s"
    )
    if convergence is not None:
        print(format_rows([convergence.row()], title="convergence:"))
    if telemetry is not None:
        rows = telemetry.rows()
        if rows:
            # Counter/gauge/sketch rows carry different stats; pad to one
            # column set so they render as a single table.
            columns = ["window", "start_slot", "series", "kind", "value",
                       "rate", "count", "p50", "p99", "max"]
            padded = [{c: row.get(c, "") for c in columns} for row in rows]
            print()
            print(format_rows(padded, title="telemetry (per arrival window):"))
        if args.chrome_trace and telemetry.spans is not None:
            from repro.reporting.export import write_chrome_trace_json

            path = write_chrome_trace_json(telemetry.spans, args.chrome_trace)
            print(f"chrome trace ({len(telemetry.spans)} spans) -> {path}")
    if args.json:
        print(f"fleet report -> {write_fleet_report_json(report, args.json)}")
    return 0


def _cmd_control(args) -> int:
    import json as _json

    from repro.control import control_record
    from repro.control.scenario import (
        RAMP_SLO,
        REJECT_PENALTY_FACTOR,
        compare_policies,
        run_ramp,
    )
    from repro.reporting.ledger import RunLedger, default_ledger

    slo = args.slo if args.slo is not None else RAMP_SLO
    if args.policy == "all":
        outcomes = compare_policies(
            scale=args.scale, seed=args.seed, slo=slo
        )
    else:
        outcomes = {
            args.policy: run_ramp(
                args.policy, scale=args.scale, seed=args.seed, slo=slo
            )
        }
    rows = [outcome.row() for outcome in outcomes.values()]
    num_offered = len(next(iter(outcomes.values())).result.decisions)
    print(format_rows(
        rows,
        title=f"load ramp, {num_offered} offered sessions, p99 SLO {slo} "
        f"slots (rejects charged at {REJECT_PENALTY_FACTOR * slo}):",
    ))
    adaptive = outcomes.get("adaptive")
    if adaptive is not None:
        if args.decisions and adaptive.decisions:
            print()
            print(format_rows(
                [d.row() for d in adaptive.decisions],
                title="control plane decisions:",
            ))
        ledger = RunLedger(args.ledger) if args.ledger else default_ledger()
        if ledger is not None:
            ledger.append(control_record(
                adaptive.decisions,
                epochs=adaptive.result.control_epochs,
                policy={"slo_p99_delay": slo, "scale": args.scale,
                        "seed": args.seed},
            ))
            print(f"decision log -> {ledger.path}")
    if args.json:
        payload = {
            "slo": slo,
            "scale": args.scale,
            "seed": args.seed,
            "policies": rows,
            "decisions": [
                d.to_dict() for d in (adaptive.decisions if adaptive else ())
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=1)
        print(f"control report -> {args.json}")
    return 0


def _ledger_path(args) -> str:
    """``--ledger`` flag, else ``$REPRO_LEDGER``, else the results default."""
    import os

    from repro.reporting.ledger import LEDGER_ENV_VAR

    if args.ledger:
        return args.ledger
    env = os.environ.get(LEDGER_ENV_VAR, "").strip()
    return env or "results/ledger.jsonl"


def _cmd_runs(args) -> int:
    import json
    import time
    from collections import Counter

    from repro.reporting.ledger import RunLedger

    path = _ledger_path(args)
    records = [r for r in RunLedger(path) if r.get("record") == "run"]
    if not records:
        print("[]" if args.json else f"no runs recorded in {path}")
        return 0
    if not args.json:
        kinds = Counter(r.get("spec", {}).get("kind", "?") for r in records)
        total_s = sum(
            r["timing_s"] for r in records
            if isinstance(r.get("timing_s"), (int, float))
        )
        print(f"run ledger {path}: {len(records)} run(s), "
              f"{total_s:.2f}s recorded wall time")
        print("  by kind: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(kinds.items())
        ))
        print()
    if args.last:
        records = records[len(records) - args.last:]
    if args.json:
        print(json.dumps(records, indent=1))
        return 0
    rows = []
    for record in records:
        spec = record.get("spec", {})
        when = record.get("time_s")
        rows.append(
            {
                "when": time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(when))
                if isinstance(when, (int, float)) else "?",
                "kind": spec.get("kind", "?"),
                "scheme": spec.get("scheme", "?"),
                "n": spec.get("num_nodes", ""),
                "rows": record.get("rows", ""),
                "timing_s": round(record["timing_s"], 3)
                if isinstance(record.get("timing_s"), (int, float)) else "",
                "version": record.get("repro_version", ""),
            }
        )
    print(format_rows(rows, title=f"{len(records)} run(s) from {path}:"))
    return 0


def _cmd_abr(args) -> int:
    from repro.abr import TRACE_PROFILES
    from repro.reporting.export import write_abr_report_json

    if args.profiles:
        unknown = [p for p in args.profiles if p not in TRACE_PROFILES]
        if unknown:
            raise SystemExit(
                f"unknown trace profile(s) {unknown}; choose from "
                f"{sorted(TRACE_PROFILES)}"
            )
    spec = ExperimentSpec(
        kind="abr",
        seed=args.seed,
        abr_profiles=tuple(args.profiles) if args.profiles else (),
        abr_startups=tuple(args.startup) if args.startup else (),
        abr_chunks=args.chunks,
        abr_chunk_slots=args.chunk_slots,
    )
    result = run(spec)
    report = result.artifacts["report"]
    print(format_rows(list(result.rows), title=result.provenance["description"]))
    counts = report.tier_counts()
    print("tiers: " + ", ".join(f"{tier}={counts[tier]}" for tier in counts))
    curves = report.curves()
    for tier, by_profile in curves.items():
        for profile, points in sorted(by_profile.items()):
            path = " ".join(f"({d},{b})" for d, b in points)
            print(f"  {tier}/{profile}: {path}")
    print(f"{len(result.rows)} points in {result.timing_s:.2f}s (seed {args.seed})")
    if args.json:
        print(f"abr report -> {write_abr_report_json(report, args.json)}")
    return 0


def _cmd_check(args) -> int:
    import json

    from repro.check import check_config, smoke_grid

    if args.grid:
        reports = smoke_grid()
    else:
        reports = [
            check_config(
                args.scheme, args.nodes, args.degree,
                num_packets=args.packets, construction=args.construction,
                mode=args.mode, max_per_rule=args.max_per_rule,
            )
        ]
    for report in reports:
        print(report.summary())
        for violation in report.violations:
            print(f"  - {violation}")
    total = sum(r.num_violations for r in reports)
    if args.grid:
        print(f"grid: {len(reports)} schedules checked, {total} violations")
    if args.json:
        payload = [r.to_dict() for r in reports]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload if args.grid else payload[0], fh, indent=2)
        print(f"check JSON -> {args.json}")
    return 0 if total == 0 else 1


def _cmd_lint(args) -> int:
    import json

    from repro.check import format_violations
    from repro.check.project import lint_project

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    report = lint_project(args.paths, rules=rules)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_violations(report.violations, format="text"))
        counts = ", ".join(
            f"{rule}={count}" for rule, count in report.per_rule.items()
        ) or "none"
        print(
            f"rules: {counts} | files: {report.files_scanned} | "
            f"model {report.model_build_s * 1e3:.0f} ms, "
            f"analyze {report.analyze_s * 1e3:.0f} ms"
        )
    return 0 if report.clean else 1


def _cmd_verify(args) -> int:
    from collections import Counter

    from repro.check import check_trace
    from repro.reporting.export import read_trace_json, trace_from_dict

    trace = trace_from_dict(read_trace_json(args.path))
    if args.source_capacity is not None:
        source_cap = args.source_capacity
    else:
        # Infer the source's peak per-slot fan-out from the log itself.
        per_slot = Counter(tx.slot for tx in trace.transmissions if tx.sender == 0)
        source_cap = max(per_slot.values(), default=1)

    def send_capacity(node: int) -> int:
        return source_cap if node == 0 else 1

    report = check_trace(
        trace, send_capacity=send_capacity, recv_capacity=lambda node: 1
    )
    if report.ok:
        print(
            f"OK: {report.num_transmissions} transmissions respect the "
            f"communication model (source capacity {source_cap})"
        )
        return 0
    print(report.summary())
    for violation in report.violations:
        print(f"  - {violation}")
    return 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "figure4": _cmd_figure4,
    "table1": _cmd_table1,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "churn": _cmd_churn,
    "repair": _cmd_repair,
    "stats": _cmd_stats,
    "fleet": _cmd_fleet,
    "control": _cmd_control,
    "abr": _cmd_abr,
    "check": _cmd_check,
    "lint": _cmd_lint,
    "runs": _cmd_runs,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # The one error boundary: a domain error is one line and status 1.
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
