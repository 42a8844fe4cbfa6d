"""Delay/buffer tradeoff sweep over trace profiles, bucketed by QoE tier.

The paper's central result is a worst-case tradeoff: smaller playback delay
costs buffer space and vice versa.  This sweep asks the same question under
time-varying bandwidth: for each capacity profile and each prebuffer target
(the *delay* knob), run one deterministic ABR session and record

* **delay** — startup slots actually spent prebuffering,
* **buffer** — peak playable media buffered (slots), and
* the session's :class:`~repro.abr.qoe.QoEMetrics` and tier.

Grouping the resulting points by tier yields one delay/buffer curve per QoE
class — the "what does the tradeoff cost the viewer" view the ROADMAP's
ABR item calls for.  Everything is deterministic in ``seed``; consumers are
the ``repro abr`` CLI, ``ExperimentSpec(kind="abr")``, and
``benchmarks/bench_abr_tradeoff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abr.qoe import QOE_TIERS, QoEMetrics, collect_qoe
from repro.abr.session import AbrSessionSpec, run_session
from repro.abr.traces import build_profile
from repro.core.errors import ReproError, check_payload
from repro.obs.registry import active_registry

__all__ = [
    "DEFAULT_PROFILES",
    "DEFAULT_STARTUP_GRID",
    "AbrPoint",
    "AbrTradeoffReport",
    "abr_tradeoff",
]

#: Trace profiles a default sweep covers (>= 3 per the acceptance criteria).
DEFAULT_PROFILES: tuple[str, ...] = ("steady", "step", "sinusoid", "onoff")

#: Prebuffer targets (chunks) — the delay knob of the tradeoff.
DEFAULT_STARTUP_GRID: tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True, slots=True)
class AbrPoint:
    """One sweep cell: a (profile, prebuffer) session's delay/buffer/QoE."""

    profile: str
    startup_chunks: int
    seed: int
    delay_slots: int
    buffer_slots: int
    qoe: QoEMetrics

    def row(self) -> dict[str, object]:
        """Flat dict for table rendering / JSON rows."""
        return {
            "profile": self.profile,
            "startup_chunks": self.startup_chunks,
            "seed": self.seed,
            "delay_slots": self.delay_slots,
            "buffer_slots": self.buffer_slots,
            "tier": self.qoe.tier,
            "mean_bitrate": self.qoe.mean_bitrate,
            "rebuffer_slots": self.qoe.rebuffer_slots,
            "rebuffer_events": self.qoe.rebuffer_events,
            "bitrate_switches": self.qoe.bitrate_switches,
            "score": self.qoe.score,
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "profile": self.profile,
            "startup_chunks": self.startup_chunks,
            "seed": self.seed,
            "delay_slots": self.delay_slots,
            "buffer_slots": self.buffer_slots,
            "qoe": self.qoe.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object], what: str = "ABR point") -> "AbrPoint":
        """Rebuild from :meth:`to_dict` output; a malformed payload raises
        :class:`ReproError` naming ``what`` and the field."""
        check_payload(payload, cls, what)
        qoe = QoEMetrics.from_dict(payload["qoe"], f"{what} qoe")  # type: ignore[arg-type]
        return cls(**{**payload, "qoe": qoe})  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class AbrTradeoffReport:
    """All sweep points plus the parameters that produced them."""

    profiles: tuple[str, ...]
    startup_grid: tuple[int, ...]
    num_chunks: int
    chunk_slots: int
    seed: int
    points: tuple[AbrPoint, ...]

    def tier_counts(self) -> dict[str, int]:
        """Sessions per QoE tier (every tier listed, zero included)."""
        counts = {tier: 0 for tier in QOE_TIERS}
        for point in self.points:
            counts[point.qoe.tier] += 1
        return counts

    def curves(self) -> dict[str, dict[str, list[tuple[int, int]]]]:
        """``tier -> profile -> [(delay_slots, buffer_slots), ...]`` curves.

        Points within a curve come back in sweep order (ascending prebuffer
        target), which is ascending delay — the tradeoff curve's x-axis.
        """
        out: dict[str, dict[str, list[tuple[int, int]]]] = {
            tier: {} for tier in QOE_TIERS
        }
        for point in self.points:
            out[point.qoe.tier].setdefault(point.profile, []).append(
                (point.delay_slots, point.buffer_slots)
            )
        return out

    def rows(self) -> list[dict[str, object]]:
        return [point.row() for point in self.points]

    def to_dict(self) -> dict[str, object]:
        return {
            "profiles": list(self.profiles),
            "startup_grid": list(self.startup_grid),
            "num_chunks": self.num_chunks,
            "chunk_slots": self.chunk_slots,
            "seed": self.seed,
            "points": [point.to_dict() for point in self.points],
            "tier_counts": self.tier_counts(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "AbrTradeoffReport":
        """Rebuild from :meth:`to_dict` output (``tier_counts`` is derived
        from the points, so it is not read back); a malformed payload raises
        :class:`ReproError` naming the field and point."""
        entries = {key: value for key, value in payload.items() if key != "tier_counts"}
        check_payload(entries, cls, "ABR report")
        lists: dict[str, tuple] = {}
        for name, kind in (("profiles", str), ("startup_grid", int), ("points", dict)):
            values = entries.pop(name)
            if not isinstance(values, list) or not all(
                isinstance(value, kind) and not isinstance(value, bool) for value in values
            ):
                raise ReproError(
                    f"ABR report: field {name!r} must be a list of {kind.__name__}, got {values!r}"
                )
            lists[name] = tuple(values)
        lists["points"] = tuple(
            AbrPoint.from_dict(point, f"ABR report point {index}")
            for index, point in enumerate(lists["points"])
        )
        return cls(**lists, **entries)  # type: ignore[arg-type]


def abr_tradeoff(
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    startup_grid: tuple[int, ...] = DEFAULT_STARTUP_GRID,
    *,
    num_chunks: int = 32,
    chunk_slots: int = 4,
    seed: int = 0,
) -> AbrTradeoffReport:
    """Run the delay/buffer tradeoff sweep.

    One seeded session per ``profile x startup_chunks`` cell; deterministic
    in all arguments (re-running with the same inputs yields an identical
    report, byte for byte once serialized).
    """
    if not profiles:
        raise ReproError("abr_tradeoff needs at least one trace profile")
    if not startup_grid:
        raise ReproError("abr_tradeoff needs at least one startup target")
    registry = active_registry()
    points: list[AbrPoint] = []
    trace_span = max(64, num_chunks * chunk_slots)
    for profile in profiles:
        trace = build_profile(profile, trace_span, seed=seed)
        for startup_chunks in startup_grid:
            # The prebuffer target doubles as the steady-state buffer target
            # (+1 chunk of headroom): a bigger delay budget buys a deeper
            # buffer, which is exactly the tradeoff being measured.
            spec = AbrSessionSpec(
                num_chunks=num_chunks,
                chunk_slots=chunk_slots,
                startup_chunks=startup_chunks,
                max_buffer_chunks=startup_chunks + 1,
            )
            result = run_session(spec, trace)
            qoe = collect_qoe(result)
            points.append(
                AbrPoint(
                    profile=profile,
                    startup_chunks=startup_chunks,
                    seed=seed,
                    delay_slots=result.startup_slots,
                    buffer_slots=result.max_buffer_slots,
                    qoe=qoe,
                )
            )
            registry.counter("abr.sweep_points", profile=profile).inc()
    return AbrTradeoffReport(
        profiles=tuple(profiles),
        startup_grid=tuple(startup_grid),
        num_chunks=num_chunks,
        chunk_slots=chunk_slots,
        seed=seed,
        points=tuple(points),
    )
