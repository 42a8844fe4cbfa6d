"""Exception hierarchy for the repro package, and the spec field check."""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral
from typing import Any

__all__ = [
    "ReproError",
    "ConstraintViolation",
    "SendCapacityViolation",
    "ReceiveCapacityViolation",
    "CausalityViolation",
    "DuplicateDeliveryViolation",
    "ConstructionError",
    "ScheduleError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConstraintViolation(ReproError):
    """A protocol violated the paper's per-slot communication model."""

    def __init__(self, message: str, *, slot: int | None = None, node: int | None = None):
        super().__init__(message)
        self.slot = slot
        self.node = node


class SendCapacityViolation(ConstraintViolation):
    """A node attempted to send more packets in one slot than its capacity."""


class ReceiveCapacityViolation(ConstraintViolation):
    """A node was scheduled to receive more packets in one slot than its capacity."""


class CausalityViolation(ConstraintViolation):
    """A node attempted to forward a packet it does not yet hold."""


class DuplicateDeliveryViolation(ConstraintViolation):
    """A node was scheduled to receive a packet it already holds (wasted slot)."""


class ConstructionError(ReproError):
    """Invalid parameters or broken invariants during overlay construction."""


class ScheduleError(ReproError):
    """Invalid parameters or broken invariants in a transmission schedule."""


def _not_int(value: Any) -> bool:
    """True for a bool or non-int (``None`` passes: optional values default to it)."""
    return value is not None and (
        isinstance(value, bool) or not isinstance(value, Integral)
    )


def check_fields(spec: Any, ints: tuple[str, ...] = ()) -> None:
    """Reject NaN in any field of dataclass ``spec``, and a bool or non-int
    in the ``ints`` fields.

    The shared boundary check of the frozen spec dataclasses; not in
    ``__all__``, which lists only the exception classes.
    """
    for name in (f.name for f in fields(spec)):
        value = getattr(spec, name)
        nan = isinstance(value, float) and math.isnan(value)
        if nan or name in ints and _not_int(value):
            problem = "must not be NaN" if nan else "must be an int"
            raise ReproError(f"{type(spec).__name__}.{name} {problem}, got {value!r}")


def check_ints(owner: str, **values: Any) -> None:
    """:func:`check_fields`' int rule for keyword arguments: reject a bool or
    non-int value, naming it as ``owner.name``."""
    for name, value in values.items():
        if _not_int(value):
            raise ReproError(f"{owner}.{name} must be an int, got {value!r}")
