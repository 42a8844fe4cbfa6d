"""QoE accounting and tier bucketing for ABR sessions.

Follows the standard QoE decomposition of the ABR literature (and the
``videoplayer.py`` idiom of SNIPPETS.md §2): a session is judged by

* **rebuffer time and events** — stalled slots, and maximal runs of them;
* **mean played bitrate** — average rung over play slots;
* **smoothness** — how often (and how far) the played bitrate jumps.

All three derive from the per-slot log an
:class:`~repro.abr.session.AbrSessionResult` carries — every slot is exactly
one of ``startup`` / ``play`` / ``rebuffer``, so the three counts *partition*
the session length (the property test in ``tests/test_abr_qoe.py`` pins
this).  The scalar score is the usual linear QoE form

``score = mean_bitrate - smoothness_penalty / played_chunks
        - REBUFFER_WEIGHT * rebuffer_ratio``

and :func:`classify_tier` buckets sessions into :data:`QOE_TIERS`:

* ``premium`` — no rebuffer events and mean bitrate at or above the
  premium threshold;
* ``standard`` — no rebuffer events at a lower bitrate;
* ``degraded`` — any rebuffering at all.

The delay/buffer tradeoff sweep (:mod:`repro.abr.sweep`) reports its curves
per tier, which is what connects the paper's worst-case bounds to a
user-facing quality statement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.abr.session import (
    SLOT_PLAY,
    SLOT_REBUFFER,
    SLOT_STARTUP,
    AbrSessionResult,
)
from repro.core.errors import ReproError, check_payload
from repro.obs.registry import active_registry

__all__ = [
    "PREMIUM_BITRATE",
    "QOE_TIERS",
    "REBUFFER_WEIGHT",
    "QoEMetrics",
    "classify_tier",
    "collect_qoe",
    "qoe_from_slot_log",
]

#: QoE tiers, best first.
QOE_TIERS: tuple[str, ...] = ("premium", "standard", "degraded")

#: Mean played bitrate (capacity units/slot) at or above which a
#: rebuffer-free session counts as premium.  Sits just under the 4.0 rung of
#: :data:`~repro.abr.ladder.DEFAULT_LADDER` so a steady high-bandwidth
#: session qualifies despite its cheaper cold-start chunks.
PREMIUM_BITRATE = 3.5

#: Weight of the rebuffer ratio in the scalar score (one rebuffered slot
#: hurts roughly like losing REBUFFER_WEIGHT bitrate units for one slot).
REBUFFER_WEIGHT = 4.0


@dataclass(frozen=True, slots=True)
class QoEMetrics:
    """QoE summary of one session; slot counts partition ``session_slots``."""

    session_slots: int
    startup_slots: int
    played_slots: int
    rebuffer_slots: int
    rebuffer_events: int
    mean_bitrate: float
    bitrate_switches: int
    smoothness_penalty: float
    score: float
    tier: str

    def __post_init__(self) -> None:
        if self.startup_slots + self.played_slots + self.rebuffer_slots != self.session_slots:
            raise ReproError(
                "QoE slot counts do not partition the session: "
                f"{self.startup_slots} + {self.played_slots} + "
                f"{self.rebuffer_slots} != {self.session_slots}"
            )
        if self.tier not in QOE_TIERS:
            raise ReproError(f"unknown QoE tier {self.tier!r}; expected {QOE_TIERS}")

    @property
    def rebuffer_ratio(self) -> float:
        """Fraction of the session spent stalled."""
        return self.rebuffer_slots / self.session_slots if self.session_slots else 0.0

    def to_dict(self) -> dict[str, object]:
        return dict(asdict(self))

    @classmethod
    def from_dict(cls, payload: dict[str, object], what: str = "qoe") -> "QoEMetrics":
        """Rebuild from :meth:`to_dict` output; a missing, unknown or
        mistyped field, an unknown tier or slot counts that do not partition
        the session raise :class:`ReproError` naming ``what``."""
        check_payload(payload, cls, what)
        try:
            return cls(**payload)  # type: ignore[arg-type]
        except ReproError as exc:
            raise ReproError(f"{what}: {exc}") from exc


def classify_tier(
    mean_bitrate: float,
    rebuffer_events: int,
    *,
    premium_bitrate: float = PREMIUM_BITRATE,
) -> str:
    """Bucket a session into one of :data:`QOE_TIERS`.

    Any stall disqualifies from the rebuffer-free tiers — the tiering mirrors
    the paper's worst-case stance, where a single underflow is the failure
    the buffer/delay budget exists to prevent.
    """
    if rebuffer_events < 0:
        raise ReproError(f"rebuffer_events must be >= 0, got {rebuffer_events}")
    if rebuffer_events > 0:
        return "degraded"
    if mean_bitrate >= premium_bitrate:
        return "premium"
    return "standard"


def qoe_from_slot_log(
    slot_log: tuple[str, ...] | list[str],
    slot_rates: tuple[float, ...] | list[float],
    *,
    premium_bitrate: float = PREMIUM_BITRATE,
) -> QoEMetrics:
    """Compute QoE from a raw per-slot log (the replay-validation path).

    ``slot_log[i]`` is the slot's state, ``slot_rates[i]`` the bitrate played
    in it (0.0 for ``startup``/``rebuffer`` slots).  Raises
    :class:`~repro.core.errors.ReproError` on malformed logs, naming the
    offending slot.
    """
    if len(slot_log) != len(slot_rates):
        raise ReproError(
            f"slot_log and slot_rates lengths differ "
            f"({len(slot_log)} vs {len(slot_rates)})"
        )
    startup = played = rebuffer = 0
    rebuffer_events = 0
    stalled = False
    rate_sum = 0.0
    switches = 0
    smoothness = 0.0
    last_play_rate: float | None = None
    for i, state in enumerate(slot_log):
        rate = float(slot_rates[i])
        if state == SLOT_STARTUP:
            if played or rebuffer:
                raise ReproError(
                    f"slot {i}: startup slot after playback began"
                )
            if rate != 0.0:
                raise ReproError(
                    f"slot {i}: startup slot carries a nonzero bitrate ({rate})"
                )
            startup += 1
            stalled = False
        elif state == SLOT_PLAY:
            if rate <= 0.0:
                raise ReproError(
                    f"slot {i}: play slot with non-positive bitrate ({rate})"
                )
            played += 1
            rate_sum += rate
            if last_play_rate is not None and rate != last_play_rate:
                switches += 1
                smoothness += abs(rate - last_play_rate)
            last_play_rate = rate
            stalled = False
        elif state == SLOT_REBUFFER:
            if rate != 0.0:
                raise ReproError(
                    f"slot {i}: rebuffer slot carries a nonzero bitrate ({rate})"
                )
            rebuffer += 1
            if not stalled:
                rebuffer_events += 1
            stalled = True
        else:
            raise ReproError(
                f"slot {i}: unknown slot state {state!r} (expected "
                f"{SLOT_STARTUP!r}/{SLOT_PLAY!r}/{SLOT_REBUFFER!r})"
            )
    total = len(slot_log)
    mean_bitrate = rate_sum / played if played else 0.0
    played_chunks = max(1, played)
    rebuffer_ratio = rebuffer / total if total else 0.0
    score = mean_bitrate - smoothness / played_chunks - REBUFFER_WEIGHT * rebuffer_ratio
    return QoEMetrics(
        session_slots=total,
        startup_slots=startup,
        played_slots=played,
        rebuffer_slots=rebuffer,
        rebuffer_events=rebuffer_events,
        mean_bitrate=mean_bitrate,
        bitrate_switches=switches,
        smoothness_penalty=smoothness,
        score=score,
        tier=classify_tier(
            mean_bitrate, rebuffer_events, premium_bitrate=premium_bitrate
        ),
    )


def collect_qoe(result: AbrSessionResult) -> QoEMetrics:
    """QoE of a finished session, with registry instrumentation.

    Pure accounting over ``result.slot_log`` / ``result.slot_rates`` — an
    independent replay of the same logs through :func:`qoe_from_slot_log`
    must agree slot for slot (pinned by ``tests/test_abr_session.py``).
    """
    metrics = qoe_from_slot_log(result.slot_log, result.slot_rates)
    registry = active_registry()
    registry.counter("abr.qoe_sessions", tier=metrics.tier).inc()
    registry.counter("abr.rebuffer_events", profile=result.trace_name).inc(
        metrics.rebuffer_events
    )
    registry.histogram("abr.rebuffer_slots", profile=result.trace_name).observe(
        float(metrics.rebuffer_slots)
    )
    registry.histogram("abr.mean_bitrate", profile=result.trace_name).observe(
        metrics.mean_bitrate
    )
    return metrics
