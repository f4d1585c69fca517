import dataclasses
import math
from typing import Optional

import numpy as np

import dynamite as dm
from dynamite.records import Record


@dataclasses.dataclass(frozen=True)
class Inner:
    values: np.ndarray
    label: str


@dataclasses.dataclass(frozen=True)
class Outer(Record):
    pairs: tuple
    inner: Inner
    missing: Optional[Inner]


def test_fields_render_recursively_as_plain_python():
    record = Outer(pairs=((0, 1), (2, 3)), inner=Inner(np.array([0.5, 0.25]), "x"), missing=None)
    payload = record.to_json()
    assert payload == {"pairs": [[0, 1], [2, 3]], "inner": {"values": [0.5, 0.25], "label": "x"}, "missing": None}
    assert all(type(v) is float for v in payload["inner"]["values"])


def test_every_result_record_renders_exactly_its_fields():
    cycle, f = dm.make_cycle(8), dm.make_cycle_function(8, 1)
    constant = dm.ScalarFunction(lambda xs: [0.5] * len(xs), lo=0.5, hi=0.5)
    records = [
        dm.mcmc_pro((0, 4), cycle, 0.9, f, 0.2, 0.1, seed=8),
        dm.mcmc_pro((0, 4), cycle, 0.9, constant, 0.2, 0.1, seed=8),
        dm.static_estimate(0, cycle, 0.9, None, f, 0.2, 0.1, 8),
        dm.static_estimate(0, cycle, 0.9, None, constant, 0.2, 0.1, 8),
        dm.summarize(dm.make_cycle(4), dm.make_cycle_function(4, 1)),
        dm.check_sandwich(dm.make_cycle(4), dm.make_cycle_function(4, 1),
                          dm.exact_trace_variance(dm.make_cycle(4), dm.make_cycle_function(4, 1), 3)),
        dm.Graph(3, ((0, 1),)),
    ]
    for record in records:
        assert list(record.to_json()) == [f.name for f in dataclasses.fields(record)]


def test_count_result_adds_only_its_derived_count():
    result = dm.jvv_count(dm.Graph(3, ()), 3, 0.25, 0.25)
    fields = [f.name for f in dataclasses.fields(result)]
    assert list(result.to_json()) == fields + ["count"]
    assert result.to_json()["count"] == 27.0
    huge = dataclasses.replace(result, log_count=1000.0)
    assert huge.to_json()["count"] is None and math.isinf(huge.count)
