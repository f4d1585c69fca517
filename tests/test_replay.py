"""Per-seed replay: seeded reports must match the recorded payloads exactly.

``data/replay.json`` holds ``to_json()`` of every case below, recorded before
the trace-chain wrapper was folded into the estimator loop.  Any change to a
sampled state, an estimate, a schedule or a step count shows up here as a
payload mismatch.  To record the file again from a given revision::

    PYTHONPATH=src python tests/test_replay.py > tests/data/replay.json
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import dynamite as dm

DATA = Path(__file__).parent / "data" / "replay.json"

CYCLE8_LAMBDA = math.cos(math.pi / 8) ** 2  # T = 5


def _cycle8():
    return dm.make_cycle(8), dm.make_cycle_function(8, 1)


def _lazy_skewed():
    # lazify's sampler steps the base kernel's path sampler one step at a time
    base = dm.matrix_kernel(np.array([[0.3, 0.7], [0.3, 0.7]]), "skewed-two-state", is_reversible=True)
    return dm.lazify(base), dm.indicator_function([1])


def _c4():
    return dm.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


def mcmc_pro_cycle8():
    kernel, f = _cycle8()
    return dm.mcmc_pro((0, 4), kernel, CYCLE8_LAMBDA, f, 0.05, 0.1, seed=11)


def dynamite_cycle8():
    kernel, f = _cycle8()
    return dm.dynamite((0, 4), kernel, CYCLE8_LAMBDA, f, 0.05, 0.1, seed=12)


def dynamite_constant():
    kernel, _ = _cycle8()
    const = dm.ScalarFunction(lambda xs: np.full(len(xs), 0.7), lo=0.7, hi=0.7, name="const")
    return dm.dynamite((0, 4), kernel, CYCLE8_LAMBDA, const, 0.05, 0.1, seed=13)


def warm_start_cycle8():
    kernel, f = _cycle8()
    return dm.warm_start(1, kernel, CYCLE8_LAMBDA, 1 / 8, f, 0.05, 0.1, seed=14)


def warm_start_lazy_skewed():
    kernel, f = _lazy_skewed()
    return dm.warm_start(0, kernel, 0.5, 0.3, f, 0.1, 0.1, seed=15)


def jvv_count_c4_dynamite():
    return dm.jvv_count(_c4(), 3, 0.25, 0.25, estimator="dynamite", seed=16)


def jvv_count_c4_static():
    return dm.jvv_count(_c4(), 3, 0.25, 0.25, estimator="static-hoeffding", seed=17)


CASES = {
    fn.__name__: fn
    for fn in (
        mcmc_pro_cycle8,
        dynamite_cycle8,
        dynamite_constant,
        warm_start_cycle8,
        warm_start_lazy_skewed,
        jvv_count_c4_dynamite,
        jvv_count_c4_static,
    )
}


def payload(name):
    """The case's JSON rendering, round-tripped the way the CLI writes it."""
    return json.loads(json.dumps(CASES[name]().to_json()))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_recording_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_recording(name, recorded):
    assert payload(name) == recorded[name]


if __name__ == "__main__":
    json.dump({name: payload(name) for name in sorted(CASES)}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
