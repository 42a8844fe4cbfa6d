"""The reference interpreter: engine-free replay of one session at a time.

The engine's object path exists to *validate* a scheme against the paper's
communication model; once a schedule is compiled (and its loss-free run
certified once), a session only needs the arrival traces.  This module
walks the flat arrays of a :class:`~repro.exec.compiler.CompiledSchedule`
directly — no Transmission objects, no validator, no heap — applying the
engine's delivery semantics (earliest arrival wins; a slot-``t`` arrival is
forwardable from ``t + 1``).  Sweeps and fleets execute through the batch
kernel (:func:`~repro.exec.batch.replay_batch`); :func:`replay_arrivals` and
:func:`bernoulli_mask` are the oracle it is tested against.

Loss model: with a drop mask, a dropped index simply never delivers, and any
transmission whose sender does not actually hold its packet at send time is a
silent no-op — the sender has nothing to forward.  This is the paper's
zero-slack permanent-loss behavior (losses prune the downstream cone; all
other packets stay on time), matching the headline finding of
``tests/test_faults.py``.  Loss-*repairing* runs still need the object path
(:mod:`repro.repair`), because repairs change the schedule itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ReproError
from repro.exec.batch import Seed, bernoulli_masks
from repro.exec.compiler import CompiledSchedule

__all__ = ["replay_arrivals", "bernoulli_mask"]


def bernoulli_mask(
    schedule: CompiledSchedule,
    rate: float,
    seed: Seed,
) -> np.ndarray | None:
    """Deterministic per-transmission drop mask over the whole schedule.

    Bit ``i`` is session ``seed``'s counter-based drop bit for flat
    (send-order) transmission ``i``, a pure function of ``(seed, i)``:
    this is :func:`~repro.exec.batch.bernoulli_masks` over every column,
    which defines the stream.  A ``(seed, rate)`` pair therefore prunes the
    same indices solo, inside any batch, on any worker, and whichever
    columns the batch kernel draws.  To give each session of a fleet an
    independent stream from one master seed, pass the ``SeedSequence``
    children of :func:`~repro.exec.batch.spawn_seeds` — child identity
    depends only on ``(master, index)``, never on batch composition.
    Returns ``None`` at rate 0 (the seed is still validated).
    """
    masks = bernoulli_masks(schedule, (rate,), (seed,))
    return None if masks is None else masks[0]


def replay_arrivals(
    schedule: CompiledSchedule,
    *,
    num_slots: int | None = None,
    drop_mask: np.ndarray | None = None,
) -> dict[int, dict[int, int]]:
    """Replay the compiled timetable; return node -> (packet -> arrival slot).

    Loss-free (``drop_mask=None``) this reproduces the engine's arrival
    traces exactly; with a mask it applies the zero-slack loss model
    described in the module docstring.  Only receiver nodes appear in the
    result.
    """
    horizon = schedule.num_slots if num_slots is None else num_slots
    if not 0 <= horizon <= schedule.num_slots:
        raise ReproError(
            f"replay horizon {horizon} outside compiled range "
            f"[0, {schedule.num_slots}]"
        )
    starts = schedule.starts
    senders = schedule.senders
    receivers = schedule.receivers
    packets = schedule.packets
    arrivals = schedule.arrivals
    have: dict[int, dict[int, int]] = {nid: {} for nid in schedule.node_ids}
    sources = frozenset(schedule.source_ids)
    end = starts[horizon]
    if drop_mask is None:
        # Loss-free fast path: every compiled sender holds by construction.
        for i in range(end):
            trace = have[receivers[i]]
            p = packets[i]
            a = arrivals[i]
            prior = trace.get(p)
            if prior is None or a < prior:
                trace[p] = a
        return have
    if len(drop_mask) < end:
        raise ReproError(
            f"drop mask covers {len(drop_mask)} transmissions, need {end}"
        )
    slot = 0
    next_boundary = starts[1] if horizon > 0 else 0
    for i in range(end):
        while i >= next_boundary:
            slot += 1
            next_boundary = starts[slot + 1]
        s = senders[i]
        if s not in sources:
            held = have[s].get(packets[i])
            if held is None or held >= slot:
                continue  # upstream loss: nothing to forward
        if drop_mask[i]:
            continue
        trace = have[receivers[i]]
        p = packets[i]
        a = arrivals[i]
        prior = trace.get(p)
        if prior is None or a < prior:
            trace[p] = a
    return have

