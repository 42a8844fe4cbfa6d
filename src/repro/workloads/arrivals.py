"""Session arrival processes for the fleet service layer.

The paper models one source streaming to one receiver population; a
production service runs thousands of such sessions, arriving and departing
over time.  These generators produce the arrival slot sequences the fleet
scenario model (:mod:`repro.service.spec`) consumes:

* :func:`poisson_arrival_slots` — memoryless session arrivals at a target
  rate (the standard open-loop teletraffic model, and what the multi-stream
  admission literature assumes);
* :func:`uniform_arrival_slots` — arrivals spread evenly over a window
  (a scheduled-event model: everyone tunes in for the match);
* :func:`trace_arrival_slots` — replay an explicit measured arrival trace,
  cycling it to cover ``num_sessions``.

All generators are deterministic in their seed and return sorted
non-negative integer slots, one per session.  Each has a ``*_column`` form
that returns the same slots as one int64 NumPy column, which
``FleetSpec.resolve`` builds its session table from.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReproError, check_ints

__all__ = [
    "check_trace",
    "poisson_arrival_column",
    "poisson_arrival_slots",
    "trace_arrival_column",
    "trace_arrival_slots",
    "uniform_arrival_column",
    "uniform_arrival_slots",
]


def poisson_arrival_slots(num_sessions: int, rate: float, *, seed: int = 0) -> list[int]:
    """Arrival slots of a Poisson process with ``rate`` sessions per slot.

    Interarrival gaps are exponential with mean ``1/rate``; arrival times are
    their running sum floored to integer slots, so bursts (several sessions
    in one slot) occur naturally at high rates.
    """
    return poisson_arrival_column(num_sessions, rate, seed=seed).tolist()


def uniform_arrival_slots(num_sessions: int, horizon: int, *, seed: int = 0) -> list[int]:
    """``num_sessions`` arrival slots drawn uniformly over ``[0, horizon)``."""
    return uniform_arrival_column(num_sessions, horizon, seed=seed).tolist()


def trace_arrival_slots(num_sessions: int, trace: Sequence[int]) -> list[int]:
    """Replay an explicit arrival trace, cycling it to ``num_sessions`` entries.

    When the trace is shorter than the fleet, it repeats shifted past its own
    span (a second "day" of the same measured pattern).

    The trace must be a valid arrival sequence already: int entries,
    non-negative and non-decreasing.  A bool, float or NaN entry is rejected
    (not truncated), and so is an out-of-order trace (not silently sorted)
    — a measured trace that goes backwards in time is corrupt, and sorting
    would hide which entry is wrong.
    """
    check_trace(trace, "trace_arrival_slots.trace")
    return trace_arrival_column(num_sessions, trace).tolist()


def poisson_arrival_column(
    num_sessions: int, rate: float, *, seed: int = 0
) -> npt.NDArray[np.int64]:
    """:func:`poisson_arrival_slots` as an int64 column."""
    if num_sessions < 1:
        raise ReproError(f"num_sessions must be >= 1, got {num_sessions}")
    if rate <= 0:
        raise ReproError(f"arrival rate must be > 0, got {rate}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate, size=num_sessions)
    return np.cumsum(gaps).astype(np.int64)


def uniform_arrival_column(
    num_sessions: int, horizon: int, *, seed: int = 0
) -> npt.NDArray[np.int64]:
    """:func:`uniform_arrival_slots` as an int64 column."""
    if num_sessions < 1:
        raise ReproError(f"num_sessions must be >= 1, got {num_sessions}")
    if horizon < 1:
        raise ReproError(f"arrival horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.integers(0, horizon, size=num_sessions))


def trace_arrival_column(num_sessions: int, trace: Sequence[int]) -> npt.NDArray[np.int64]:
    """:func:`trace_arrival_slots` as an int64 column, for a ``trace`` that
    already passed :func:`check_trace`."""
    if num_sessions < 1:
        raise ReproError(f"num_sessions must be >= 1, got {num_sessions}")
    slots = np.asarray(trace, dtype=np.int64)
    index = np.arange(num_sessions)
    return slots[index % len(slots)] + (int(slots[-1]) + 1) * (index // len(slots))


def check_trace(trace: Sequence[int], name: str) -> None:
    """Reject an arrival trace that is empty, holds a non-int entry
    (``name[i]`` in the message), or goes negative or backwards."""
    if not len(trace):
        raise ReproError("arrival trace is empty")
    owner, _, field = name.rpartition(".")
    check_ints(owner, **{f"{field}[{i}]": slot for i, slot in enumerate(trace)})
    for i, s in enumerate(trace):
        if s is None:  # check_ints passes None, the "unset" of optional fields
            raise ReproError(f"{name}[{i}] must be an int, got None")
        if s < 0:
            raise ReproError(
                f"arrival trace entry {i} is negative ({s}); "
                "arrival slots must be >= 0"
            )
        if i > 0 and s < trace[i - 1]:
            raise ReproError(
                f"arrival trace entry {i} ({s}) is earlier than entry "
                f"{i - 1} ({trace[i - 1]}); arrival traces must be "
                "non-decreasing"
            )
