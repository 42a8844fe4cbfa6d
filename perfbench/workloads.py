"""The benchmark's fleet workloads, their pinned outputs and output checks.

Every workload runs through ``FleetRunner.run`` with the serial executor.
Each is built from the benchmark seed alone, so one seed always gives the
same fleet, and each stresses a different part of the pipeline:

* ``fleet_bulk`` -- the kernel-bound case: every session is admitted into
  a few large ``replay_batch`` calls with a 1% loss mask, and aggregation is
  the bounded-memory sketch.
* ``fleet_service`` -- the admission-bound case: a tight source fan-out
  budget with a bounded queue, churned viewers, exact aggregation of every
  ``SessionSLO`` and a ~1% ABR kind on the scalar session path.
* ``control_ramp`` -- fixed per-epoch costs: the control plane's load ramp,
  100 epochs of 24 loss-free sessions each.  The mask layer does no work.
  Its arrivals are an explicit trace and its one kind is loss-free, so its
  outputs do not depend on the seed.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.control.scenario import ramp_fleet
from repro.service import CapacityModel, FleetRunResult, FleetSpec, SessionSpec

__all__ = ["DEFAULT_SEED", "HELD_OUT_SEED", "WORKLOADS", "Workload", "check_run"]

#: The seed used while writing a change, and one kept back to confirm it.
DEFAULT_SEED = 21
HELD_OUT_SEED = 7

#: Fleet seeds the workloads draw from: benchmark seed ``s`` runs fleet seed
#: ``FLEET_SEEDS[s % len(FLEET_SEEDS)]``, so seeds below 24 map to
#: themselves.  Every seed in the pool has been run on every workload.  Seed
#: 24 is left out because ``fleet_service`` raises on it: a churned, lossy,
#: prerecorded multi-tree session has a node whose only packets arrived
#: ahead of their index, so its startup delay is negative, which
#: ``score_session`` accepts and ``score_batch_sessions`` rejects with a
#: ``ValueError`` from ``np.bincount``.
FLEET_SEEDS = tuple(seed for seed in range(60) if seed != 24)

NUM_PACKETS = 8

#: The eight session kinds of ``benchmarks/bench_fleet_scale.py``.
FLEET_KINDS: tuple[dict[str, Any], ...] = (
    {"scheme": "multi-tree", "num_nodes": 31, "degree": 2},
    {"scheme": "multi-tree", "num_nodes": 31, "degree": 3},
    {"scheme": "multi-tree", "num_nodes": 63, "degree": 2},
    {"scheme": "multi-tree", "num_nodes": 63, "degree": 3},
    {"scheme": "hypercube", "num_nodes": 32, "degree": 3},
    {"scheme": "hypercube", "num_nodes": 64, "degree": 3},
    {"scheme": "single-tree", "num_nodes": 31, "degree": 3},
    {"scheme": "chain", "num_nodes": 16, "degree": 1},
)

#: One ABR kind whose weight gives it 1% of the service mix.
ABR_KIND: dict[str, Any] = {
    "scheme": "multi-tree", "num_nodes": 15, "degree": 2,
    "abr_profile": "sinusoid", "weight": len(FLEET_KINDS) / 99,
}

BULK = {
    "num_sessions": 6_000, "drop_rate": 0.01, "arrival_rate": 16.0,
    "aggregation": "sketch", "sketch_error": 0.01,
}
SERVICE = {
    "num_sessions": 6_000, "drop_rate": 0.02, "arrival_rate": 16.0,
    "source_fanout": 40.0, "policy": "queue", "max_queue_slots": 32,
    "churn_rate": 0.3, "aggregation": "exact",
}
RAMP = {"policy": "adaptive", "scale": 10}


def _kinds(drop_rate: float, extra: tuple[dict[str, Any], ...] = ()) -> tuple[SessionSpec, ...]:
    return tuple(
        SessionSpec(num_packets=NUM_PACKETS, drop_rate=drop_rate, **kind)
        for kind in FLEET_KINDS + extra
    )


def _bulk(seed: int) -> FleetSpec:
    return FleetSpec(
        sessions=_kinds(BULK["drop_rate"]),
        num_sessions=BULK["num_sessions"],
        capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
        arrival_rate=BULK["arrival_rate"],
        seed=seed,
        aggregation=BULK["aggregation"],
        sketch_error=BULK["sketch_error"],
    )


def _service(seed: int) -> FleetSpec:
    return FleetSpec(
        sessions=_kinds(SERVICE["drop_rate"], (ABR_KIND,)),
        num_sessions=SERVICE["num_sessions"],
        capacity=CapacityModel(source_fanout=SERVICE["source_fanout"]),
        arrival_rate=SERVICE["arrival_rate"],
        seed=seed,
        policy=SERVICE["policy"],
        max_queue_slots=SERVICE["max_queue_slots"],
        churn_rate=SERVICE["churn_rate"],
        aggregation=SERVICE["aggregation"],
    )


def _ramp(seed: int) -> FleetSpec:
    return ramp_fleet(RAMP["policy"], scale=RAMP["scale"], seed=seed)


@dataclass(frozen=True)
class Pinned:
    """The report one workload produced at one seed.

    ``tallies`` is ``(offered, admitted, degraded, queued, rejected)``.
    """

    tallies: tuple[int, int, int, int, int]
    startup_p99: int
    delay_p99: int
    buffer_p99: int
    rebuffer_mean: float


#: How far a run's percentiles (slots) and mean rebuffer ratio (relative)
#: may stray from the pinned report: loose enough for a change of loss-mask
#: RNG stream, tight enough to catch a broken kernel.  Across seeds the
#: percentiles move by at most one slot and the rebuffer mean by ~3%.
SLOT_BAND = 1
REBUFFER_BAND = 0.05


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        pinned: reports at :data:`DEFAULT_SEED` and :data:`HELD_OUT_SEED`.
            At other seeds the tallies only have to sum to the offered load,
            the percentiles are compared with the default seed's and the
            rebuffer mean with the mean of both pins.
        reject_frac: ``(low, high)`` range of the reject fraction, any seed.
        min_retunes: control decisions with action ``retune`` required.
    """

    name: str
    why: str
    params: dict[str, Any]
    build: Callable[[int], FleetSpec]
    pinned: dict[int, Pinned]
    reject_frac: tuple[float, float] = (0.0, 0.0)
    min_retunes: int = 0

    def spec(self, seed: int) -> FleetSpec:
        """The fleet of benchmark seed ``seed``."""
        return self.build(FLEET_SEEDS[seed % len(FLEET_SEEDS)])


_RAMP_PIN = Pinned((2400, 2394, 0, 959, 6), 21, 12, 5, 0.0)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fleet_bulk",
            why="kernel-bound: 6k lossy sessions, all admitted, in 8 replay_batch calls with sketch aggregation",
            params={**BULK, "kinds": FLEET_KINDS, "num_packets": NUM_PACKETS},
            build=_bulk,
            pinned={
                DEFAULT_SEED: Pinned(
                    (6000, 6000, 0, 0, 0), 16, 13, 5, 0.04030079091728458
                ),
                HELD_OUT_SEED: Pinned(
                    (6000, 6000, 0, 0, 0), 16, 13, 5, 0.03853005575690106
                ),
            },
        ),
        Workload(
            name="fleet_service",
            why="admission-bound: queue policy, churn, exact SLO retention and a 1% ABR scalar path",
            params={
                **SERVICE, "kinds": FLEET_KINDS, "abr_kind": ABR_KIND,
                "num_packets": NUM_PACKETS,
            },
            build=_service,
            pinned={
                DEFAULT_SEED: Pinned(
                    (6000, 4403, 0, 1887, 1597), 43, 14, 4, 0.0845458411491628
                ),
                HELD_OUT_SEED: Pinned(
                    (6000, 4422, 0, 1896, 1578), 43, 13, 4, 0.0828740312115861
                ),
            },
            reject_frac=(0.2, 0.35),
        ),
        Workload(
            name="control_ramp",
            why="per-epoch fixed costs: 100 control epochs of 24 loss-free sessions; no mask work",
            params=RAMP,
            build=_ramp,
            pinned={DEFAULT_SEED: _RAMP_PIN, HELD_OUT_SEED: _RAMP_PIN},
            reject_frac=(0.0, 0.01),
            min_retunes=1,
        ),
    )
}


def check_run(
    workload: Workload, seed: int, offered: int, result: FleetRunResult
) -> list[str]:
    """Every way ``result`` differs from the workload's pinned outputs."""
    report = result.report
    problems: list[str] = []
    tallies = (
        report.num_sessions, report.admitted, report.degraded,
        report.queued, report.rejected,
    )
    if report.admitted + report.degraded + report.rejected != offered:
        problems.append(f"admission tallies {tallies} do not sum to the offered load")
    if len(result.decisions) != offered:
        problems.append(f"{len(result.decisions)} decisions for {offered} sessions")
    pinned = workload.pinned.get(seed)
    if pinned is not None and tallies != pinned.tallies:
        problems.append(f"tallies {tallies} != pinned {pinned.tallies}")
    reference = pinned or workload.pinned[DEFAULT_SEED]
    rebuffer = (
        pinned.rebuffer_mean if pinned is not None
        else statistics.fmean(p.rebuffer_mean for p in workload.pinned.values())
    )
    low, high = workload.reject_frac
    if not low <= report.rejected / offered <= high:
        problems.append(
            f"reject fraction {report.rejected / offered:.4f} outside [{low}, {high}]"
        )
    for name in ("startup_p99", "delay_p99", "buffer_p99"):
        value, want = getattr(report, name), getattr(reference, name)
        if abs(value - want) > SLOT_BAND:
            problems.append(f"{name} {value} not within {SLOT_BAND} slot of {want}")
    if not math.isclose(report.rebuffer_mean, rebuffer, rel_tol=REBUFFER_BAND, abs_tol=1e-9):
        problems.append(
            f"rebuffer_mean {report.rebuffer_mean:.5f} not within "
            f"{REBUFFER_BAND:.0%} of {rebuffer:.5f}"
        )
    retunes = sum(1 for d in result.control_decisions if d.action == "retune")
    if retunes < workload.min_retunes:
        problems.append(f"{retunes} retune decisions, need {workload.min_retunes}")
    return problems
