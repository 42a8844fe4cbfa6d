"""Meta-validation: the online validator and the post-hoc checker agree.

Random synthetic protocols — some valid, some deliberately broken — are run
through both checkers.  Agreement across random instances is strong evidence
that neither checker has blind spots the other covers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_trace
from repro.core.engine import simulate
from repro.core.errors import ConstraintViolation
from repro.core.packet import Transmission
from repro.core.protocol import StreamingProtocol


def audit(trace):
    """The post-hoc check under the unit-capacity model these protocols use."""
    return check_trace(
        trace, send_capacity=lambda node: 1, recv_capacity=lambda node: 1
    )


class RandomForwardProtocol(StreamingProtocol):
    """A random—but valid—store-and-forward protocol.

    The source floods packet ``t`` to one random node per slot; every node
    with holdings forwards a random held packet to a random node that lacks
    it, one per slot, respecting all capacities via explicit bookkeeping.
    """

    def __init__(self, num_nodes: int, seed: int, *, cheat: str | None = None):
        self.n = num_nodes
        self.rng = np.random.default_rng(seed)
        self.cheat = cheat

    @property
    def node_ids(self):
        return range(1, self.n + 1)

    @property
    def source_ids(self):
        return frozenset({0})

    def transmissions(self, slot, view):
        out = []
        receivers_used = set()
        target = int(self.rng.integers(1, self.n + 1))
        out.append(Transmission(slot=slot, sender=0, receiver=target, packet=slot))
        receivers_used.add(target)
        order = list(self.rng.permutation(range(1, self.n + 1)))
        for sender in map(int, order):
            held = sorted(view.packets_of(sender))
            if not held:
                continue
            packet = int(held[int(self.rng.integers(len(held)))])
            if self.cheat == "unheld" and slot == 3:
                packet = slot + 10  # forward a packet nobody has
            candidates = [
                r
                for r in range(1, self.n + 1)
                if r != sender and r not in receivers_used and not view.holds(r, packet)
            ]
            if self.cheat == "double_receive" and slot == 3 and receivers_used:
                candidates = [next(iter(receivers_used - {sender}))] if receivers_used - {sender} else candidates
            if not candidates:
                continue
            receiver = int(candidates[int(self.rng.integers(len(candidates)))])
            tx = Transmission(slot=slot, sender=sender, receiver=receiver, packet=packet)
            out.append(tx)
            receivers_used.add(receiver)
            if self.cheat == "double_send" and slot == 3:
                spare = [r for r in range(1, self.n + 1) if r not in receivers_used and r != sender]
                if spare:
                    out.append(
                        Transmission(slot=slot, sender=sender, receiver=spare[0], packet=packet)
                    )
                    receivers_used.add(spare[0])
        return out


class TestAgreementOnValidProtocols:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_validator_accepts_and_audit_confirms(self, seed):
        protocol = RandomForwardProtocol(8, seed)
        trace = simulate(protocol, 20, strict_duplicates=False)
        report = audit(trace)
        assert report.ok, report.violations


class TestAgreementOnCheaters:
    @pytest.mark.parametrize("cheat", ["unheld", "double_send"])
    def test_both_checkers_reject(self, cheat):
        protocol = RandomForwardProtocol(8, seed=1, cheat=cheat)
        with pytest.raises(ConstraintViolation):
            simulate(protocol, 20, strict_duplicates=False)
        # Re-run unvalidated; the post-hoc checker must catch it instead.
        protocol = RandomForwardProtocol(8, seed=1, cheat=cheat)
        trace = simulate(protocol, 20, validate=False)
        rule = {"unheld": "causality", "double_send": "send-capacity"}[cheat]
        assert set(audit(trace).counts) == {rule}

    def test_double_receive_cheat(self):
        # Forcing a receiver that already received this slot.
        protocol = RandomForwardProtocol(8, seed=2, cheat="double_receive")
        trace = simulate(protocol, 20, validate=False)
        report = audit(trace)
        # The cheat may or may not trigger depending on draws; when it does,
        # the check flags it; when not, the trace is genuinely valid.
        if not report.ok:
            assert "recv-capacity" in report.counts
