"""Exception hierarchy for the repro package, and the boundary checks: the
spec field check, the payload field check of every report reader, and the
one JSON file loader."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from numbers import Integral, Real
from pathlib import Path
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


#: The JSON values each payload field annotation admits (a bool is no number).
_ADMITS: dict[str, type | tuple[type, ...]] = {
    "int": Integral, "float": Real, "str": str, "dict": dict,
    "int | None": (Integral, type(None)), "float | None": (Real, type(None)),
    "dict | None": (dict, type(None)),
}


def _admits(annotation: str, value: Any) -> bool:
    return isinstance(value, _ADMITS[annotation]) and not isinstance(value, bool)


def check_payload(values: dict, owner: Any, what: str) -> None:
    """Raise :class:`ReproError` naming the first missing, unknown or
    mistyped field of dataclass ``owner`` in ``values``, a JSON object.

    A field with a default may be missing.  A field whose annotation is not
    a scalar (a table, a nested report, pairs) is the caller's to check.
    """
    if not isinstance(values, dict):
        raise ReproError(f"{what} must be an object, got {type(values).__name__}")
    annotations = {}
    for field in fields(owner):
        name, annotation = field.name, str(field.type)
        annotations[name] = annotation
        if name not in values:
            if field.default is MISSING and field.default_factory is MISSING:
                raise ReproError(f"{what}: missing field {name!r}")
        elif annotation in _ADMITS and not _admits(annotation, values[name]):
            raise ReproError(f"{what}: field {name!r} must be {annotation}, got {values[name]!r}")
    for key in values:
        if key not in annotations:
            raise ReproError(f"{what}: unknown field {key!r}")


def check_pairs(values: Any, key: str, what: str, name: str) -> tuple[tuple, ...]:
    """Field ``name``, a list of ``[key, int]`` lists, as a tuple of pairs."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_admits, (key, "int"), pair))
        for pair in values
    ):
        raise ReproError(f"{what}: field {name!r} must be [{key}, int] pairs, got {values!r}")
    return tuple(map(tuple, values))


def read_json(path: str | Path, what: str, *, lines: bool = False) -> Any:
    """The JSON object in file ``path`` or, with ``lines`` (JSONL), one
    ``(line number, object)`` pair per non-blank line.

    An unreadable or undecodable file, or a value that is not an object,
    raises :class:`ReproError` naming ``what``, the path and the line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read {what} {path}: {exc}") from exc
    if not lines:
        return _json_object(text, f"{what} {path}")
    return [
        (number, _json_object(line, f"{what} {path} line {number}"))
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip()
    ]


def _json_object(text: str, where: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ReproError(f"{where} must hold a JSON object, got {type(value).__name__}")
    return value
