"""One JSON rendering rule for every result record.

A dataclass renders as a dict of its fields, recursively; tuples become
lists, numpy arrays become lists via ``tolist``, and everything else
is kept as it is.  A record's JSON layout is therefore its field list.
"""
from __future__ import annotations

import dataclasses

import numpy as np


def render(value):
    """``value`` as JSON-ready Python data, by the rule above."""
    if dataclasses.is_dataclass(value):
        return {f.name: render(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [render(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


class Record:
    """Base of the result dataclasses: ``to_json`` renders the record's fields."""

    def to_json(self) -> dict:
        return render(self)
