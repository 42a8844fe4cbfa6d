#!/usr/bin/env python
"""A streaming service's peak hour: 600 sessions against finite capacity.

Scenario: a provider serves three audiences at once — big multi-tree
premieres, mid-size hypercube swarms for buffer-constrained set-top boxes,
and small single-tree rooms.  Sessions arrive as a Poisson process against a
shared source fan-out and backbone budget; when the budget runs out the
admission controller degrades a session's tree degree before giving up on
it.  One :class:`repro.FleetRunner` call answers the operator questions the
single-run paper metrics cannot: what startup delay does the *99th
percentile viewer* see, how many sessions get degraded, and how much compile
work the schedule cache amortized away.

Run:  python examples/fleet_peak_hour.py
"""

from repro import CapacityModel, FleetRunner, FleetSpec, SessionSpec
from repro.exec.executor import ExecutorPolicy

MIX = (
    # (weight) premieres: big trees, most of the audience
    SessionSpec(scheme="multi-tree", num_nodes=63, degree=3,
                num_packets=16, weight=3.0),
    # set-top boxes: hypercube keeps their tiny buffers honest
    SessionSpec(scheme="hypercube", num_nodes=32, degree=3,
                num_packets=16, weight=2.0),
    # watch parties: small rooms, a plain single tree is fine
    SessionSpec(scheme="single-tree", num_nodes=15, degree=3,
                num_packets=16, weight=1.0),
)


def main() -> None:
    fleet = FleetSpec(
        sessions=MIX,
        num_sessions=600,
        arrival_rate=2.0,           # sessions per slot at the peak
        capacity=CapacityModel(source_fanout=200.0, backbone=5000.0),
        policy="degrade",           # shed degree, not viewers
        min_degree=2,
        churn_rate=0.15,            # some viewers leave mid-stream
        seed=7,
    )
    print(fleet.describe())

    result = FleetRunner(policy=ExecutorPolicy(mode="auto")).run(fleet)
    report = result.report

    print("\nAdmission over the peak hour:")
    print(f"  admitted {report.admitted}, degraded {report.degraded}, "
          f"queued {report.queued}, rejected {report.rejected} "
          f"(reject rate {report.reject_rate:.1%})")

    print("\nWhat viewers experienced (pooled over every node of every session):")
    print(f"  startup delay: p50={report.startup_p50} p95={report.startup_p95} "
          f"p99={report.startup_p99} worst={report.startup_max} slots")
    print(f"  playback delay: p50={report.delay_p50} p99={report.delay_p99} slots")
    print(f"  buffer peak:   p50={report.buffer_p50} p99={report.buffer_p99} packets")
    print(f"  rebuffer ratio: mean={report.rebuffer_mean:.4f} "
          f"max={report.rebuffer_max:.4f}; goodput {report.goodput_mean:.3f}")

    print("\nWhat the service paid:")
    print(f"  schedule compiles: {report.cache_misses} "
          f"(cache hit rate {report.cache_hit_rate:.3f} over "
          f"{report.cache_hits + report.cache_misses} admissions)")
    executor = result.executor_info
    print(f"  executor: {executor['mode']} x{executor['workers']} "
          f"over {executor['tasks']} sessions")

    # The sessions are columns; index one row to get its SessionSLO.
    worst = report.sessions[int(report.sessions.startup_delay.argmax())]
    print(f"\nWorst session: #{worst.session_id} [{worst.label}] "
          f"startup {worst.startup_delay} slots "
          f"({worst.wait_slots} queued), status {worst.status}")


if __name__ == "__main__":
    main()
