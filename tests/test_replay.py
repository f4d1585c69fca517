"""Per-seed replay: seeded reports must match the recorded payloads exactly.

``data/replay.json`` holds ``to_json()`` of every case below.  The cycle and
two-state payloads were recorded before the trace-chain wrapper was folded
into the estimator loop.  The coloring counts were recorded again when each
counting phase took its eigenvalue bound from its own sampling graph (the
Jerrum path-coupling bound where k >= 2 d_max + 1), which changed their trace lengths, warm-ups and step counts; the caller-bound count
was added then.  ``warm_start_lazy_skewed`` was recorded again when its
kernel became a ``matrix_kernel`` over the lazy matrix 0.5 (I + M): the
matrix is the same, but that sampler draws one uniform per step where the
former hold-then-step wrapper drew a hold and then a base step, so the same
seed walks another path (estimate 0.684426 -> 0.697404, same steps and
schedule).  The four Glauber counting payloads (``jvv_count_c4_dynamite``,
``jvv_count_c4_static``, ``jvv_count_c4_caller_lambda`` and
``jvv_count_planted6_dynamite``) were recorded again when every estimator and
warm-up began to walk its chain through ``TransitionKernel.advance``: the
Glauber sampler draws its holds, vertices and colors per request, and
``advance`` requests at most ``CHUNK`` steps at a time, so the same seed walks
another path; every step count stayed the same.  The cycle and matrix
samplers consume their generators alike in pieces or whole, so the other
five payloads were not recorded again.  The ``zeta_estimate_sampled`` payload
was dropped, by deleting its key alone, when the looseness diagnostic it
replayed was deleted; the nine payloads left are byte-identical to before.
The payloads were not recorded again when each counting phase began to walk
only the Glauber chain's marginal on its support (the components of its
edge's endpoints in its sampling graph): that marginal draws from the
generator exactly as the whole chain does, and its path is the whole chain's
path restricted to the support, so every payload replays unchanged.
Nor were they when ``static_estimate`` became the one static estimator and
began to sum f ``CHUNK`` steps at a time: ``jvv_count_c4_static`` walks the
same warm-up and path on the same streams, and its f is an indicator, whose
sums are exact in any order.
``jvv_count_c4_dynamite`` and ``jvv_count_c4_static`` were recorded again,
alone, when a counting phase outside Jerrum's bound began to take the exact
eigenvalue of the marginal chain it walks in place of the unproven
1 - 1/(n^2 k): phases 3 and 4 of C4 at k=3 now plan shorter traces and
warm-ups (754,372 -> 509,164 and 197,944 -> 133,594 steps).
Any change to a sampled state, an estimate, a schedule or a step count shows
up here as a payload mismatch.  To record the file again from a given
revision::

    PYTHONPATH=src python tests/test_replay.py > tests/data/replay.json
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynamite as dm

DATA = Path(__file__).parent / "data" / "replay.json"
SRC = Path(__file__).resolve().parents[1] / "src"

CYCLE8_LAMBDA = math.cos(math.pi / 8) ** 2  # T = 5


def _cycle8():
    return dm.make_cycle(8), dm.make_cycle_function(8, 1)


def _lazy_skewed():
    # hold with probability 1/2, else step the rank-one chain with rows (0.3, 0.7)
    skewed = np.array([[0.3, 0.7], [0.3, 0.7]])
    kernel = dm.matrix_kernel(
        0.5 * (np.eye(2) + skewed), "lazy(skewed-two-state)", is_lazy=True, is_reversible=True
    )
    return kernel, dm.indicator_function([1])


def _c4():
    return dm.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


def _planted6():
    # two communities {0, 1, 2} and {3, 4, 5}: a triangle, a pendant edge and one cross edge
    return dm.Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (2, 4)))


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


def jvv_count_c4_caller_lambda():
    return dm.jvv_count(_c4(), 3, 0.25, 0.25, estimator="dynamite", seed=20, lambda_bound=0.9)


def jvv_count_planted6_dynamite():
    # the hub edge (2, 4) moves last, so every phase shares the Jerrum bound of the largest
    # sampling graph (T = 42); its paths span many sampler chunks
    return dm.jvv_count(_planted6(), 5, 0.25, 0.25, estimator="dynamite", seed=19)


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
        jvv_count_c4_caller_lambda,
        jvv_count_planted6_dynamite,
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


OPTIMIZED_CASES = (
    "dynamite_cycle8", "mcmc_pro_cycle8", "warm_start_cycle8", "jvv_count_planted6_dynamite", "jvv_count_c4_static",
)
OPTIMIZED_SCRIPT = """
import json, sys
import test_replay
kernel, f = test_replay._cycle8()
glauber = test_replay.dm.glauber_kernel(test_replay._c4(), 3)
constant = test_replay.dm.ScalarFunction(lambda xs: [0.0] * len(xs), lo=0.0, hi=0.0)
rotor = test_replay.dm.matrix_kernel([[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [0.4, 0.0, 0.6]], "rotor", is_lazy=True)
star30 = test_replay.dm.Graph(31, tuple((0, i) for i in range(1, 31)))
refused = []
for check in (lambda: f(8), lambda: f.values([0, -1]), lambda: kernel.check_start(8),
              lambda: glauber.check_start([1, 1, 2, 3]), lambda: kernel.advance(8, 0, None),
              lambda: glauber.advance([1, 1, 2, 3], 0, None), lambda: kernel.advance(0, 10, None, f, 3),
              lambda: test_replay.dm.glauber_kernel(test_replay._c4(), 3, [0, 1]),
              lambda: test_replay.dm.mcmc_pro((99, -5), kernel, 0.5, constant, 0.1, 0.1, seed=0),
              lambda: test_replay.dm.static_estimate(8, kernel, 0.5, None, f, 0.1, 0.1, 0),
              lambda: test_replay.dm.mcmc_pro((0, 4), kernel, 0.5, constant, -1.0, 0.1, seed=0),
              lambda: test_replay.dm.static_estimate(0, kernel, 0.5, 0.0, constant, 0.1, 0.1, 0),
              lambda: test_replay.dm.static_estimate(0, rotor, 0.9, 1 / 3, test_replay.dm.indicator_function([1]),
                                                     0.1, 0.1, 0),
              lambda: test_replay.dm.mcmc_pro((0, 4), kernel, 0.5, f, 1e-9, 0.1, seed=0),
              lambda: test_replay.dm.spectral.check_horizon(512, 10 ** 5),
              lambda: test_replay.dm.jvv_count(star30, 3, 0.25, 0.25),
              lambda: test_replay.dm.static_estimate(0, kernel, 0.5, None, f, 1e-200, 0.1, 0)):
    try:
        check()
    except ValueError as exc:
        refused.append(type(exc).__name__)
    else:
        refused.append(None)
json.dump({"payloads": {name: test_replay.payload(name) for name in sys.argv[1:]}, "refused": refused},
          sys.stdout)
"""


def test_payloads_and_state_checks_survive_optimized_mode(recorded):
    # python -O strips asserts: the cycle and counting payloads must replay, and out-of-range
    # states, an improper coloring, steps that are not whole blocks, a vertex set that is not
    # a union of components, a bad start with a constant f, a bad static start, a negative
    # epsilon or a zero pi_min beside a constant f, a warm-up on a non-reversible chain, a plan
    # above the step cap, a horizon above the work cap, a count with no proven bound and an epsilon
    # whose sizes would overflow must still be refused
    path = os.pathsep.join(filter(None, [str(SRC), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, *OPTIMIZED_CASES],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["refused"] == ["ValueError"] * 13 + ["GuardError"] * 4
    for name in OPTIMIZED_CASES:
        assert out["payloads"][name] == recorded[name], name


if __name__ == "__main__":
    json.dump({name: payload(name) for name in sorted(CASES)}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
