"""ABR delay/buffer tradeoff: QoE-tiered curves under time-varying capacity.

The paper's tradeoff is worst-case over a fixed-capacity network; this bench
re-measures it with the ABR subsystem — four bandwidth profiles x four
prebuffer targets, one deterministic session each — and buckets the resulting
(delay, buffer) points by QoE tier.  Acceptance: the default grid covers at
least 3 profiles, populates all three QoE tiers, reproduces identically on a
second run, and the full report lands in ``results/abr_tradeoff.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import report

from repro.abr import abr_tradeoff
from repro.reporting.export import abr_report_to_dict

NUM_CHUNKS = 32
CHUNK_SLOTS = 4
SEED = 0

_RESULTS_DIR = Path(__file__).parent / "results"


def test_abr_tradeoff_curves():
    rep = abr_tradeoff(num_chunks=NUM_CHUNKS, chunk_slots=CHUNK_SLOTS, seed=SEED)
    again = abr_tradeoff(num_chunks=NUM_CHUNKS, chunk_slots=CHUNK_SLOTS, seed=SEED)

    assert again.to_dict() == rep.to_dict(), "sweep must be deterministic"
    assert len(rep.profiles) >= 3
    tiers = rep.tier_counts()
    assert all(count > 0 for count in tiers.values()), (
        f"every QoE tier must be populated, got {tiers}"
    )
    # The delay knob works: within each profile, a larger prebuffer target
    # never shrinks the startup delay.
    for profile in rep.profiles:
        delays = [p.delay_slots for p in rep.points if p.profile == profile]
        assert delays == sorted(delays)

    lines = [
        f"ABR delay/buffer tradeoff ({len(rep.profiles)} profiles x "
        f"{len(rep.startup_grid)} prebuffer targets, {NUM_CHUNKS} chunks x "
        f"{CHUNK_SLOTS} slots, seed {SEED}):",
        "",
        f"  tiers: " + "  ".join(f"{t}={c}" for t, c in tiers.items()),
        "",
    ]
    for tier, by_profile in rep.curves().items():
        for profile, pairs in sorted(by_profile.items()):
            curve = " ".join(f"({d},{b})" for d, b in pairs)
            lines.append(f"  {tier:8s} {profile:8s} delay/buffer: {curve}")

    report("abr_tradeoff", "\n".join(lines))

    # The full versioned report, so results/abr_tradeoff.json carries the
    # actual curves.
    out = _RESULTS_DIR / "abr_tradeoff.json"
    out.write_text(json.dumps(abr_report_to_dict(rep), indent=1) + "\n")
