"""The repair tradeoff: what loss-tolerance costs in playback delay and buffer.

The paper proves its delay/buffer bounds in a loss-free network, and
``bench_ablation_losses.py`` measured why that matters: the model has zero
throughput slack, so every loss is permanent.  This bench prices the repair
subsystem (:mod:`repro.repair`) against the paper's loss-free operating
point, sweeping loss rate × repair mode × scheme:

* ``none``       — the unrepaired baseline (reproduces permanent loss);
* ``retransmit`` — ε = 0.05 slack + NACK retransmission (ARQ, after Joshi,
  Kochman & Wornell): zero residual loss, paid for in dilated delay;
* ``parity``     — XOR parity every g = 4 data packets (FEC, after Badr,
  Lui & Khisti): local low-latency repair, residual loss only when a group
  takes two hits.

Output: ``results/repair_tradeoff.txt`` (table) and
``results/repair_tradeoff.json`` (machine-readable rows), with ``delay_cost``
and ``buffer_cost`` columns measured against the paper's loss-free metrics
for the same scheme.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import report

from repro.repair import REPAIR_SCHEMES, repair_experiment
from repro.reporting.tables import format_rows

NUM_NODES = 15
DEGREE = 3
NUM_PACKETS = 40
EPSILON = 0.05
GROUP = 4
LOSS_RATES = (0.005, 0.01, 0.02)
SEED = 0

_RESULTS_DIR = Path(__file__).parent / "results"


def sweep_rows() -> list[dict[str, object]]:
    rows = []
    for scheme in REPAIR_SCHEMES:
        for loss in LOSS_RATES:
            for mode in ("none", "retransmit", "parity"):
                point = repair_experiment(
                    scheme,
                    NUM_NODES,
                    DEGREE,
                    num_packets=NUM_PACKETS,
                    mode=mode,
                    epsilon=EPSILON,
                    group=GROUP,
                    loss_rate=loss,
                    seed=SEED,
                )
                row = point.row()
                if mode == "none":
                    # Reproduce the permanent-loss finding the repair
                    # subsystem exists to fix.
                    assert row["residual"] > 0, (scheme, loss)
                if mode == "retransmit" and loss <= 0.01:
                    # The acceptance bar: ε = 0.05 slack repairs everything
                    # at 1% loss, with latency bounded by the horizon.
                    assert row["residual"] == 0, (scheme, loss)
                    assert 0 < row["rec_lat_max"] < point.num_slots, (scheme, loss)
                rows.append(row)
    return rows


def test_repair_tradeoff():
    rows = sweep_rows()

    # ARQ vs FEC, measurably: retransmission repairs over the NACK round
    # trip (slow for packets no receiver holds), parity decodes locally.
    by_key = {(r["scheme"], r["mode"], r["loss"]): r for r in rows}
    for scheme in REPAIR_SCHEMES:
        arq = by_key[(scheme, "retransmit", 0.01)]
        fec = by_key[(scheme, "parity", 0.01)]
        assert fec["rec_lat_max"] <= arq["rec_lat_max"], scheme

    text = format_rows(
        rows,
        title=(
            f"Repair tradeoff (N={NUM_NODES}, d={DEGREE}, P={NUM_PACKETS}, "
            f"ε={EPSILON}, g={GROUP}, seed={SEED}); delay/buffer costs are "
            "measured against the paper's loss-free operating point"
        ),
    )
    report("repair_tradeoff", text)

    _RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "config": {
            "num_nodes": NUM_NODES,
            "degree": DEGREE,
            "num_packets": NUM_PACKETS,
            "epsilon": EPSILON,
            "group": GROUP,
            "loss_rates": list(LOSS_RATES),
            "seed": SEED,
        },
        "rows": rows,
    }
    (_RESULTS_DIR / "repair_tradeoff.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
