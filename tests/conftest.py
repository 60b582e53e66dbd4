import os
import subprocess
import sys

import numpy as np
import pytest

import treeshell
from treeshell import ConstantSolution, RcmModel, lambda_family

# Child interpreters import the package from the same source tree as this one.
SUBPROCESS_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(treeshell.__file__)),
                      os.environ.get("PYTHONPATH")])))


def run_capped(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code argv...`` in a child interpreter whose address space
    is capped at 2 GiB, with a 30 s timeout: a size that is formed or
    allocated without bound fails the test, not the machine."""
    cap = ("import resource; "
           "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n")
    return subprocess.run([sys.executable, "-c", cap + code, *argv],
                          capture_output=True, text=True, timeout=30,
                          env=SUBPROCESS_ENV)


@pytest.fixture(scope="session")
def flat_d1():
    return RcmModel.create(1, 1.5, [1.0, 1.0])


@pytest.fixture(scope="session")
def d12():
    """The workhorse non-flat model: d=1, alpha=3/2, deltas=(1,2)."""
    return RcmModel.create(1, 1.5, [1.0, 2.0])


@pytest.fixture(scope="session")
def flat_d3():
    return RcmModel.create(3, 2.5, [1.0] * 8)


@pytest.fixture(scope="session")
def lam02():
    return lambda_family(0.2)


@pytest.fixture(scope="session")
def d12_solution(d12):
    return ConstantSolution(d12)


@pytest.fixture(scope="session")
def flat_d1_solution(flat_d1):
    return ConstantSolution(flat_d1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_rcm(rng, allow_flat=False, d_choices=(1, 2, 3)):
    """A random model with positive coefficients and alpha in (0.6, 6)."""
    d = int(rng.choice(d_choices))
    alpha = float(rng.uniform(0.6, 6.0))
    forcing = float(rng.uniform(0.3, 3.0))
    deltas = np.exp(rng.uniform(-1.5, 1.5, size=2**d))
    if allow_flat and rng.random() < 0.2:
        deltas[:] = deltas[0]
    return RcmModel.create(d, alpha, deltas, forcing)


def heap_index(j):
    """Index of node j in the generation-major state layout of the dynamics."""
    return (j.arity**j.generation - 1) // (j.arity - 1) + j.code


def subtree_mask(nodes, depth):
    """The nodes as a boolean mask over the state of generations 0..depth."""
    index = [heap_index(j) for j in nodes]
    arity = next(iter(nodes)).arity
    mask = np.zeros((arity ** (depth + 1) - 1) // (arity - 1), dtype=bool)
    mask[index] = True
    return mask


def same_bits(a, b) -> bool:
    """Equal arrays, down to the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))
