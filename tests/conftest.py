import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import dynamite as dm


def _glauber_path3_fixture():
    graph = dm.Graph(3, ((0, 1), (1, 2)))
    states, matrix = dm.exact_glauber_matrix(graph, 3, lazy=True)
    kernel = dm.matrix_kernel(matrix, "glauber-P3-k3-lazy", is_lazy=True, is_reversible=True)
    fvals = np.array([1.0 if s[0] == 1 else 0.0 for s in states])
    f = dm.ScalarFunction(lambda xs: fvals[np.asarray(xs, dtype=int)], lo=0.0, hi=1.0, name="vertex0-is-1")
    return kernel, f


def _lazy_skewed_two_state():
    base = dm.matrix_kernel(
        np.array([[0.3, 0.7], [0.3, 0.7]]), "skewed-two-state", is_reversible=True
    )
    return dm.lazify(base)


def lazy_reversible_registry():
    """Every (name, kernel, function) triple the property suites sweep."""
    triples = []
    for n in (4, 6, 8, 16):
        kernel = dm.make_cycle(n)
        for i in range(1, n // 2 + 1):
            if n % (2 * i) == 0:
                triples.append((f"cycle{n}-f{i}", kernel, dm.make_cycle_function(n, i)))
    triples.append(
        ("two-state-uniform", dm.make_two_state_uniform(), dm.indicator_function([1]))
    )
    triples.append(
        ("lazy-skewed", _lazy_skewed_two_state(), dm.indicator_function([1]))
    )
    kernel, f = _glauber_path3_fixture()
    triples.append(("glauber-P3-k3", kernel, f))
    return triples


@pytest.fixture(scope="session")
def registry():
    return lazy_reversible_registry()


@pytest.fixture(scope="session")
def cycle8():
    return dm.make_cycle(8)


@pytest.fixture(scope="session")
def cycle8_f1():
    return dm.make_cycle_function(8, 1)
