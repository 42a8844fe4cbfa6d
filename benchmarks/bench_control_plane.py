"""Control plane vs static admission on the load ramp (docs/CONTROL.md).

The acceptance claim of the control-plane subsystem: on a three-phase load
ramp whose burst overruns the source fan-out budget at the configured
``d = 3``, every *static* admission policy (queue, reject, degrade at fixed
thresholds) violates the offered-p99 startup-delay SLO, while the feedback
controller — retuning the degree to the Theorem 2 argmin and standing by on
the admission ladder — holds it with no throughput loss against the best
static (the ≤10% criterion, met here with margin: the adaptive run serves
*more* sessions).
"""

from __future__ import annotations

from conftest import report

from repro.control.scenario import RAMP_SLO, compare_policies
from repro.reporting.tables import format_table

STATICS = ("queue", "reject", "degrade")


def test_control_plane_holds_the_slo():
    outcomes = compare_policies(scale=1.0, seed=0)
    adaptive = outcomes["adaptive"]
    best_static = max(outcomes[p].throughput for p in STATICS)

    # The PR's acceptance bar, asserted at full scale.
    for policy in STATICS:
        assert not outcomes[policy].holds_slo, outcomes[policy].row()
    assert adaptive.holds_slo, adaptive.row()
    assert adaptive.throughput >= 0.9 * best_static
    assert any(d.action == "retune" for d in adaptive.decisions)

    rows = [
        (
            o.policy, o.offered_p99, o.startup_p99, o.throughput,
            o.rejected, "yes" if o.holds_slo else "VIOLATED",
        )
        for o in outcomes.values()
    ]
    decision_lines = [
        f"  epoch {d.epoch}: [{d.controller}] {d.action} — {d.reason}"
        for d in adaptive.decisions
    ]
    text = "\n".join(
        [
            format_table(
                ["policy", "offered p99", "startup p99", "served",
                 "rejected", "SLO"],
                rows,
                title=f"Load ramp, 240 offered sessions, p99 SLO "
                f"{RAMP_SLO} slots (rejects charged at {4 * RAMP_SLO})",
            ),
            "",
            f"adaptive throughput vs best static: "
            f"{adaptive.throughput}/{best_static} "
            f"({adaptive.throughput / best_static:.3f}x, criterion >= 0.9x)",
            "",
            "control plane decisions:",
            *decision_lines,
        ]
    )
    report("control_plane", text)
