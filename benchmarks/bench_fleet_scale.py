"""Fleet-scale acceptance: 100k batched sessions, amortized compiles.

The v2.0 headline is the vectorized batch-replay kernel: the fleet groups
admitted sessions by compiled-schedule identity and scores each group with
one :func:`~repro.exec.batch.replay_batch` call instead of one Python
replay per session.  ``test_batched_kernel_at_100k_sessions`` runs a
100,000-session fleet through the batched path in bounded memory (sketch
aggregation, no per-session SLO list) and requires the batched kernel to be
at least **5x** faster per session than the reference interpreter
(:func:`~repro.exec.replay.bernoulli_mask` +
:func:`~repro.exec.replay.replay_arrivals` + per-node
:func:`~repro.core.metrics.summarize_lossy_playback`) replaying the first
10k sessions of the same workload.  The kernel side of that ratio sums the
run's ``session.replay`` spans (:class:`~repro.service.FleetTelemetry`).

The older amortization claim still holds and stays pinned: the shared
content-addressed schedule cache turns 1000 session admissions into 8
compiles plus 1000 engine-free replays.  ``test_fleet_scale_amortizes_compiles``
runs one 1000-session fleet over 8 distinct ``(scheme, N, d)``
configurations and compares its wall-clock against 8 isolated single-kind
runs covering the same sessions with private caches — the fleet must stay
under 2x the isolated total (it does the same replay work plus admission
control) and its schedule-cache hit rate must be at least 0.99 (8 misses
in 1000 lookups = 0.992).

Two further acceptance tests cover the telemetry layer (docs/TELEMETRY.md):

* **sketch aggregation at 10k sessions** — ``aggregation="sketch"`` streams
  every SLO into exact ``value -> count`` tables without keeping
  per-session rows (``len(report.sessions) == 0``), and every percentile
  field must equal exact aggregation's;
* **run-until-converged** — with ``convergence=ConvergenceCriterion(...)``
  the runner executes sessions in batches and must stop well before the
  full scenario once the p99 startup-delay CI is tight.

The result files state each bound these tests assert and record no time:
the two timed bounds (the 5x floor and the 2x ceiling) put their measured
numbers in their assert messages.
"""

from __future__ import annotations

from conftest import report

from repro.core.metrics import summarize_lossy_playback
from repro.exec.compiler import compile_schedule
from repro.exec.executor import ExecutorPolicy
from repro.exec.replay import bernoulli_mask, replay_arrivals
from repro.obs import Timer
from repro.obs.convergence import ConvergenceCriterion
from repro.service import (
    CapacityModel,
    FleetRunner,
    FleetSpec,
    FleetTelemetry,
    SessionSpec,
)

NUM_SESSIONS = 1000
NUM_PACKETS = 8
MAX_RATIO = 2.0
MIN_HIT_RATE = 0.99

CONFIGS = (
    SessionSpec(scheme="multi-tree", num_nodes=31, degree=2, num_packets=NUM_PACKETS),
    SessionSpec(scheme="multi-tree", num_nodes=31, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="multi-tree", num_nodes=63, degree=2, num_packets=NUM_PACKETS),
    SessionSpec(scheme="multi-tree", num_nodes=63, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="hypercube", num_nodes=32, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="hypercube", num_nodes=64, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="single-tree", num_nodes=31, degree=3, num_packets=NUM_PACKETS),
    SessionSpec(scheme="chain", num_nodes=16, degree=1, num_packets=NUM_PACKETS),
)

CAPACITY = CapacityModel(source_fanout=1e9, backbone=1e9)
SERIAL = ExecutorPolicy(mode="serial")


BATCH_SESSIONS = 100_000
REFERENCE_SESSIONS = 10_000
MIN_SPEEDUP = 5.0


def _reference_replay(sessions, decisions) -> float:
    """Replay and score sessions one at a time on the reference interpreter.

    Schedules compile before the timed loop, so the loop holds the same
    work the kernel's ``session.replay`` spans cover: the loss mask, the
    replay, and the per-node delay/buffer scoring.
    """
    schedules = {}
    for session, decision in zip(sessions, decisions):
        spec = session.spec
        key = (spec, decision.degree)
        if key not in schedules:
            schedules[key] = compile_schedule(
                spec.scheme, spec.num_nodes, decision.degree,
                num_packets=spec.num_packets, construction=spec.construction,
                mode=spec.mode, latency=spec.latency,
            )
    with Timer() as timer:
        for session, decision in zip(sessions, decisions):
            spec = session.spec
            schedule = schedules[(spec, decision.degree)]
            mask = bernoulli_mask(schedule, spec.drop_rate, session.seed)
            arrivals = replay_arrivals(
                schedule, num_slots=decision.duration, drop_mask=mask
            )
            for trace in arrivals.values():
                summarize_lossy_playback(trace, spec.num_packets)
    return timer.elapsed


def test_batched_kernel_at_100k_sessions():
    """100k sessions through the batched kernel, >= 5x the reference."""
    fleet = FleetSpec(
        sessions=CONFIGS,
        num_sessions=BATCH_SESSIONS,
        capacity=CAPACITY,
        arrival_rate=16.0,
        seed=21,
        aggregation="sketch",
    )
    telemetry = FleetTelemetry()
    batched = FleetRunner(policy=SERIAL, telemetry=telemetry).run(fleet)
    # The reference interpreter replays the workload's first 10k sessions;
    # the subset keeps the bench bounded and per-session rates comparable
    # (every session replays one of the same 8 compiled schedules).
    reference_s = _reference_replay(
        batched.sessions[:REFERENCE_SESSIONS],
        batched.decisions[:REFERENCE_SESSIONS],
    )

    # The 5x floor is on the replay kernel itself: the session.replay
    # spans cover exactly the replay+scoring work of each unit, so their
    # sum isolates the kernel from admission control (which the reference
    # loop does not do and would otherwise dilute the ratio).
    replays = [s for s in telemetry.spans.finished if s.name == "session.replay"]
    assert sum(s.attrs["sessions"] for s in replays) == BATCH_SESSIONS
    batch_replay = sum(s.dur_s for s in replays)
    batch_replay_rate = batch_replay / BATCH_SESSIONS
    reference_rate = reference_s / REFERENCE_SESSIONS
    speedup = reference_rate / batch_replay_rate

    report_100k = batched.report
    assert report_100k.num_sessions == BATCH_SESSIONS
    assert report_100k.rejected == 0, "capacity was sized to admit everything"
    # Bounded memory: sketch aggregation never materializes the SLO list.
    assert len(report_100k.sessions) == 0
    assert batched.executor_info["units"] < batched.executor_info["tasks"], (
        "batch grouping should collapse many sessions into few kernel calls"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched kernel {speedup:.1f}x the reference interpreter (floor "
        f"{MIN_SPEEDUP:.0f}x): {batch_replay_rate * 1e6:.0f}us vs "
        f"{reference_rate * 1e6:.0f}us per session replayed"
    )

    lines = [
        f"batched fleet kernel ({BATCH_SESSIONS} sessions, "
        f"{len(CONFIGS)} configs, P={NUM_PACKETS}, sketch aggregation):",
        "",
        f"  batched fleet run: {batched.executor_info['units']} kernel calls, "
        "no per-session SLO kept",
        f"  reference interpreter: the first {REFERENCE_SESSIONS} sessions, "
        "one at a time",
        f"  asserted: replay per session >= {MIN_SPEEDUP:.0f}x faster in the "
        "kernel than in the reference interpreter",
        "",
        f"  fleet SLOs at 100k: startup_p50={report_100k.startup_p50} "
        f"startup_p99={report_100k.startup_p99} "
        f"delay_p99={report_100k.delay_p99} "
        f"buffer_p99={report_100k.buffer_p99} "
        f"goodput={report_100k.goodput_mean:.3f}",
    ]
    report("fleet_scale", "\n".join(lines))


def test_fleet_scale_amortizes_compiles():
    fleet = FleetSpec(
        sessions=CONFIGS,
        num_sessions=NUM_SESSIONS,
        capacity=CAPACITY,
        arrival_rate=8.0,
        seed=42,
    )
    with Timer() as fleet_timer:
        result = FleetRunner(policy=SERIAL).run(fleet)
    fleet_report = result.report

    per_config = NUM_SESSIONS // len(CONFIGS)
    isolated_total = 0.0
    isolated_admitted = 0
    for i, kind in enumerate(CONFIGS):
        single = FleetSpec(
            sessions=(kind,),
            num_sessions=per_config,
            capacity=CAPACITY,
            arrival_rate=8.0,
            seed=100 + i,
        )
        with Timer() as timer:
            isolated = FleetRunner(policy=SERIAL).run(single)
        isolated_total += timer.elapsed
        isolated_admitted += isolated.report.admitted + isolated.report.degraded

    ratio = fleet_timer.elapsed / isolated_total

    assert fleet_report.num_sessions == NUM_SESSIONS
    assert fleet_report.rejected == 0, "capacity was sized to admit everything"
    assert isolated_admitted == NUM_SESSIONS
    assert fleet_report.cache_misses == len(CONFIGS)
    assert fleet_report.cache_hit_rate >= MIN_HIT_RATE, (
        f"hit rate {fleet_report.cache_hit_rate:.4f} below {MIN_HIT_RATE}"
    )
    assert ratio < MAX_RATIO, (
        f"fleet took {ratio:.2f}x the isolated runs (ceiling {MAX_RATIO}x): "
        f"{fleet_timer.elapsed:.3f}s vs {isolated_total:.3f}s"
    )

    lines = [
        f"fleet scale ({NUM_SESSIONS} sessions, {len(CONFIGS)} configs, "
        f"P={NUM_PACKETS}, serial executor):",
        "",
        f"  one fleet run: {fleet_report.cache_misses} compiles, "
        f"hit rate {fleet_report.cache_hit_rate:.3f} "
        f"(asserted >= {MIN_HIT_RATE})",
        f"  {len(CONFIGS)} isolated per-config runs: {len(CONFIGS)} compiles, "
        "private caches",
        f"  asserted: the fleet run takes < {MAX_RATIO:.0f}x the isolated "
        "runs' total wall time",
        "",
        f"  fleet SLOs: startup_p50={fleet_report.startup_p50} "
        f"startup_p99={fleet_report.startup_p99} "
        f"delay_p99={fleet_report.delay_p99} "
        f"buffer_p99={fleet_report.buffer_p99} "
        f"goodput={fleet_report.goodput_mean:.3f}",
    ]
    report("fleet_scale_amortize", "\n".join(lines))


SKETCH_SESSIONS = 10_000


def test_sketch_aggregation_matches_exact_at_10k_sessions():
    """10k sessions stream without per-session rows; percentiles equal exact."""

    def fleet_spec(aggregation: str) -> FleetSpec:
        return FleetSpec(
            sessions=CONFIGS,
            num_sessions=SKETCH_SESSIONS,
            capacity=CAPACITY,
            arrival_rate=16.0,
            seed=7,
            aggregation=aggregation,
        )

    exact = FleetRunner(policy=SERIAL).run(fleet_spec("exact")).report
    sketch = FleetRunner(policy=SERIAL).run(fleet_spec("sketch")).report

    # Bounded memory: sketch mode never materializes per-session SLOs.
    assert len(sketch.sessions) == 0
    assert len(exact.sessions) == SKETCH_SESSIONS
    # Admission bookkeeping is aggregation-independent.
    assert sketch.num_sessions == exact.num_sessions == SKETCH_SESSIONS
    assert sketch.admitted == exact.admitted
    assert sketch.rejected == exact.rejected

    fields = ("startup_p50", "startup_p95", "startup_p99", "startup_max",
              "delay_p50", "delay_p95", "delay_p99", "buffer_p50", "buffer_p99")
    for name in fields:
        assert getattr(sketch, name) == getattr(exact, name), (
            f"{name}: sketch {getattr(sketch, name)} vs exact {getattr(exact, name)}"
        )

    lines = [
        f"sketch aggregation at {SKETCH_SESSIONS} sessions (serial executor):",
        "",
        f"  exact aggregation:  {len(exact.sessions)} SLOs materialized",
        "  sketch aggregation: 0 SLOs materialized",
        "  asserted: every percentile field equal in both modes",
        "",
        "  field        exact  sketch",
    ]
    for name in fields:
        lines.append(
            f"  {name:<12} {getattr(exact, name):>5} {getattr(sketch, name):>6}"
        )
    report("fleet_sketch_10k", "\n".join(lines))


def test_run_until_converged_stops_early():
    """Convergence mode executes a fraction of the scenario and stops."""
    criterion = ConvergenceCriterion(
        quantile=99.0, rel_half_width=0.05, min_count=512, check_every=256
    )
    fleet = FleetSpec(
        sessions=CONFIGS,
        num_sessions=SKETCH_SESSIONS,
        capacity=CAPACITY,
        arrival_rate=16.0,
        seed=7,
        aggregation="sketch",
        convergence=criterion,
    )
    result = FleetRunner(policy=SERIAL).run(fleet)

    state = result.convergence
    executed = result.executor_info["tasks"]
    assert state is not None and state.converged, (
        f"did not converge after {executed} sessions: {state}"
    )
    assert executed < SKETCH_SESSIONS // 2, (
        f"expected early stop, but executed {executed}/{SKETCH_SESSIONS}"
    )
    # The report covers exactly the executed arrival prefix.
    assert result.report.num_sessions == len(result.decisions)
    assert result.report.num_sessions >= executed

    lines = [
        f"run-until-converged (p99 startup delay, rel half-width "
        f"{criterion.rel_half_width}, batches of {criterion.check_every}):",
        "",
        f"  executed {executed} of {SKETCH_SESSIONS} sessions in "
        f"{result.executor_info['batches']} batches "
        f"(asserted < {SKETCH_SESSIONS // 2})",
        f"  p99 estimate {state.estimate:.0f} in "
        f"[{state.ci_lower:.0f}, {state.ci_upper:.0f}] "
        f"(half-width {state.half_width:.2f} <= "
        f"target {state.target_half_width:.2f})",
    ]
    report("fleet_converged_early_stop", "\n".join(lines))
