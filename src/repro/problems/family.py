"""One descriptor per LP-type problem family.

A problem class says how to solve; its :class:`ProblemFamily` (the class
attribute ``family``) says what an instance is made of.  The wire codec,
session edits and ingestion, ``python -m repro solve`` and
:meth:`~repro.core.lptype.LPTypeProblem.restrict` all read it, so a new
family is one class plus one descriptor.  Field names are both constructor
keywords and instance attributes.

A constraint block (an edit's ``added`` entry, an ingestion ``feed()``) is
either a tuple with one entry per per-constraint array, or one merged 2-d
array of their columns in declared order (``d`` columns per 2-d array, one
per 1-d array): ``(rows, rhs)`` or ``(m, d+1)`` for LP and QP, ``(m, d)``
points for MEB, ``(points, labels)`` or ``(m, d+1)`` for SVM.

A subclass inherits its parent's descriptor until it declares its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..core.exceptions import InvalidInstanceError, RequestValidationError, SessionError

__all__ = ["ProblemFamily", "holds_nan", "reject_nan"]

#: JSON name of each option type, for error messages.
_JSON_TYPES = {bool: "a boolean", float: "a number", str: "a string"}


def _is_json_type(value: Any, kind: type) -> bool:
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _width(arrays: Sequence[np.ndarray]) -> int:
    """``d``: the column count of the 2-d per-constraint arrays."""
    return next((arr.shape[1] for arr in arrays if arr.ndim == 2), 0)


def holds_nan(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds a NaN; infinities do not count.

    ``min`` propagates NaN, so the scan is one reduction with no temporary
    the size of ``arr``.
    """
    return arr.size > 0 and bool(np.isnan(arr.min()))


def reject_nan(**arrays: np.ndarray) -> None:
    """Raise :class:`InvalidInstanceError` naming the first array holding NaN."""
    for name, arr in arrays.items():
        if holds_nan(arr):
            raise InvalidInstanceError(f"{name} contains NaN")


def _wire_array(
    payload: Mapping[str, Any], family: str, name: str, ndim: int
) -> np.ndarray:
    field = f"problem.{name}"
    if name not in payload:
        raise RequestValidationError(
            f"problem family {family!r} requires field {name!r}", field=field
        )
    try:
        arr = np.asarray(payload[name], dtype=float)
    except (TypeError, ValueError) as exc:
        raise RequestValidationError(
            f"{field} is not a numeric array: {exc}", field=field
        ) from None
    if arr.ndim != ndim:
        raise RequestValidationError(
            f"{field} must be {ndim}-dimensional, got {arr.ndim}-d", field=field
        )
    if holds_nan(arr):
        raise RequestValidationError(f"{field} contains NaN", field=field)
    return arr


@dataclass(frozen=True)
class ProblemFamily:
    """The frozen descriptor of one problem family.

    ``name`` is the wire ``family`` tag, ``aliases`` its other spellings and
    ``cls`` the problem class.  ``instance_arrays`` (the objective, carried
    unchanged) and ``constraint_arrays`` (one row or entry per constraint,
    sliced and appended together) are ``(name, ndim)`` pairs; ``options``
    are ``(name, JSON type)`` pairs, the type being ``bool``, ``float`` (any
    number) or ``str``.  Payloads list them in that order after ``family``.
    ``synthetic(n, d, seed)``, if given, builds a random CLI instance.
    """

    name: str
    cls: type
    constraint_arrays: tuple[tuple[str, int], ...]
    instance_arrays: tuple[tuple[str, int], ...] = ()
    options: tuple[tuple[str, type], ...] = ()
    aliases: tuple[str, ...] = ()
    synthetic: Optional[Callable[[int, int, int], Any]] = None

    @property
    def names(self) -> tuple[str, ...]:
        """The wire name followed by its aliases."""
        return (self.name,) + self.aliases

    def encode(self, problem: Any) -> dict:
        """The plain-JSON payload of ``problem``; :meth:`decode` inverts it."""
        payload: dict[str, Any] = {"family": self.name}
        for name, _ in self.instance_arrays + self.constraint_arrays:
            payload[name] = getattr(problem, name).tolist()
        for name, _ in self.options:
            payload[name] = getattr(problem, name)
        return payload

    def decode(self, payload: Mapping[str, Any]) -> Any:
        """Rebuild an instance from its payload.

        Unknown keys, missing or non-numeric arrays, arrays of the wrong
        dimension or holding NaN, options of the wrong JSON type and
        instances the constructor rejects raise
        :class:`~repro.core.exceptions.RequestValidationError` naming the field.
        """
        arrays = self.instance_arrays + self.constraint_arrays
        known = tuple(name for name, _ in arrays + self.options)
        unknown = sorted(str(key) for key in payload if key not in known + ("family",))
        if unknown:
            raise RequestValidationError(
                f"unknown problem field(s) {', '.join(map(repr, unknown))} for "
                f"family {self.name!r}; supported: {', '.join(known)}",
                field=f"problem.{unknown[0]}",
            )
        kwargs = {
            name: _wire_array(payload, self.name, name, ndim) for name, ndim in arrays
        }
        for name, kind in self.options:
            if name not in payload:
                continue
            if not _is_json_type(payload[name], kind):
                raise RequestValidationError(
                    f"problem.{name} must be {_JSON_TYPES[kind]}, got "
                    f"{type(payload[name]).__name__}",
                    field=f"problem.{name}",
                )
            kwargs[name] = payload[name]
        try:
            return self.cls(**kwargs)
        except InvalidInstanceError as exc:
            # Instance-level validation (mismatched shapes, bad labels, ...)
            # surfaces as a request error: the instance came off the wire.
            raise RequestValidationError(str(exc), field="problem") from None

    def restrict(self, problem: Any, rows: Sequence[int]) -> Any:
        """A new instance over only the constraints ``rows``, in that order."""
        idx = np.asarray(list(rows), dtype=int)
        return self._rebuild(problem, [arr[idx] for arr in self._columns(problem)])

    def edit(self, problem: Any, keep: np.ndarray, chunks: list) -> Any:
        """``problem`` cut down to the constraints ``keep``, plus ``chunks``."""
        current = self._columns(problem)
        parts = [[arr[keep] for arr in current]]
        parts.extend(self._split(chunk, _width(current)) for chunk in chunks)
        return self._rebuild(problem, [np.concatenate(c, axis=0) for c in zip(*parts)])

    def build(self, chunks: list, static: Mapping[str, Any]) -> Any:
        """A fresh instance from blocks plus ``static`` instance arrays and options."""
        if not chunks:
            raise SessionError("ingestion handle finalised without any chunks")
        if any(name not in static for name, _ in self.instance_arrays):
            fields = ", ".join(f"{name}=..." for name, _ in self.instance_arrays)
            raise SessionError(
                f"ingesting a {self.cls.__name__} needs the objective: "
                f"session.ingest(family={self.name!r}, {fields})"
            )
        parts = [self._split(chunks[0])]
        parts.extend(self._split(chunk, _width(parts[0])) for chunk in chunks[1:])
        arrays = {
            name: np.concatenate(column, axis=0)
            for (name, _), column in zip(self.constraint_arrays, zip(*parts))
        }
        return self.cls(**arrays, **static)

    def _columns(self, problem: Any) -> tuple:
        return tuple(getattr(problem, name) for name, _ in self.constraint_arrays)

    def _rebuild(self, problem: Any, columns: list) -> Any:
        """``problem``'s class and other fields around new per-constraint arrays."""
        kwargs = {name: getattr(problem, name) for name, _ in self.instance_arrays}
        kwargs.update(zip((name for name, _ in self.constraint_arrays), columns))
        kwargs.update((name, getattr(problem, name)) for name, _ in self.options)
        return self.cls(**kwargs)

    def _split(self, chunk: Any, width: Optional[int] = None) -> list[np.ndarray]:
        """One constraint block as one array per per-constraint field.

        ``width`` is ``d``; ``None`` reads it off the block.
        """
        ndims = [ndim for _, ndim in self.constraint_arrays]
        if isinstance(chunk, tuple) and len(chunk) == len(ndims):
            parts = [
                np.atleast_2d(np.asarray(part, dtype=float))
                if k == 2
                else np.asarray(part, dtype=float).reshape(-1)
                for part, k in zip(chunk, ndims)
            ]
        else:
            merged = np.atleast_2d(np.asarray(chunk, dtype=float))
            if width is None:
                width = (merged.shape[-1] - ndims.count(1)) // max(1, ndims.count(2))
            edges = np.cumsum([0] + [width if k == 2 else 1 for k in ndims])
            if merged.ndim != 2 or merged.shape[1] != edges[-1]:
                names = ", ".join(name for name, _ in self.constraint_arrays)
                raise SessionError(
                    f"a {self.name} constraint block must be a ({names}) tuple or "
                    f"one (m, {edges[-1]}) array of those columns; got shape "
                    f"{merged.shape}"
                )
            parts = [
                merged[:, lo:hi] if k == 2 else merged[:, lo]
                for lo, hi, k in zip(edges, edges[1:], ndims)
            ]
        width = _width(parts) if width is None else width
        if len({p.shape[0] for p in parts}) > 1 or any(
            p.shape[1] != width for p, k in zip(parts, ndims) if k == 2
        ):
            raise SessionError(
                f"mismatched {self.name} block: shapes "
                f"{', '.join(str(p.shape) for p in parts)}; every array needs one "
                f"row per constraint and the 2-d ones {width} columns"
            )
        return parts
