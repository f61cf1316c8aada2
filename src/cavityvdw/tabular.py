"""Column table passed from computations to the exporters."""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

import numpy as np

from .errors import DomainError


class Table:
    """Ordered mapping from column name to values, a 1-d float array or a
    list of str, all of one length. Values are already in output units."""

    def __init__(self, columns: Mapping[str, object]):
        self._columns = {}
        for name, values in columns.items():
            if isinstance(values, list) and values and all(isinstance(v, str) for v in values):
                values = list(values)
            else:
                values = np.asarray(values)
                if values.ndim != 1 or values.dtype.kind not in "fiu":
                    raise DomainError(f"column {name!r} must be a 1-d float array or a list of str")
                values = values.astype(float)
            self._columns[name] = values
        lengths = {name: len(v) for name, v in self._columns.items()}
        if len(set(lengths.values())) > 1:
            raise DomainError(f"columns differ in length: {lengths}")
        self._len = next(iter(lengths.values()), 0)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def __len__(self) -> int:
        return self._len

    def column(self, name: str) -> list:
        if name not in self._columns:
            raise DomainError(f"no column named {name!r}")
        values = self._columns[name]
        return list(values) if isinstance(values, list) else values.tolist()

    @cached_property
    def rows(self) -> tuple[dict, ...]:
        """One dict per row, built on first access."""
        names = self.columns
        return tuple(dict(zip(names, values)) for values in zip(*map(self.column, names)))


def with_dimless(columns: Mapping[str, object], units: Mapping[str, float]) -> Table:
    """Table of the SI columns followed, in the order of units, by one
    <name>_dimless = column / unit per entry."""
    cols = dict(columns)
    for name, unit in units.items():
        cols[f"{name}_dimless"] = np.asarray(columns[name], dtype=float) / unit
    return Table(cols)
