"""Figure 2: receiving and sending schedules of node id 6 (N=15, d=3)."""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.events import receive_schedule, send_schedule
from repro.trees import MultiTreeProtocol


def run(construction):
    protocol = MultiTreeProtocol(15, 3, construction=construction)
    trace = simulate(protocol, 12)
    return protocol, trace


def _render(construction, trace):
    rx = receive_schedule(trace, 6)
    tx = send_schedule(trace, 6)
    lines = [f"{construction} construction, node id 6:"]
    lines.append("  receives: " + ", ".join(
        f"slot {s}: pkt {p} from {'S' if snd == 0 else snd}" for s, p, snd in rx[:6]
    ))
    lines.append("  sends:    " + ", ".join(
        f"slot {s}: pkt {p} to {r}" for s, p, r in tx[:6]
    ))
    return lines, rx, tx


def test_figure2_reproduction():
    (p_s, t_s), (p_g, t_g) = run("structured"), run("greedy")
    lines = ["Figure 2 — per-node schedules (node id 6, N=15, d=3)"]
    for name, trace in (("structured", t_s), ("greedy", t_g)):
        rendered, rx, tx = _render(name, trace)
        lines.extend(rendered)
        # Figure 2's invariants: node 6 receives in three distinct residue
        # classes mod 3 (one per tree) and sends at most one packet per slot.
        assert len({s % 3 for s, _, _ in rx[:3]}) == 3
        send_slots = [s for s, _, _ in tx]
        assert len(send_slots) == len(set(send_slots))
    # Structured: node 6's parents are node 1 (T_0), S (T_1), node 11 (T_2).
    senders = {snd for _, _, snd in receive_schedule(t_s, 6)}
    assert senders == {1, 0, 11}
    report("figure2_schedules", "\n".join(lines))
