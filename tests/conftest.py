import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from srkilling import expr as ex
from srkilling.frame import load_structure
from srkilling.connection import compute_connection, curvature

from eval_reference import evaluate

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def heis():
    return load_structure("heisenberg:1")


@pytest.fixture(scope="session")
def heis_cd(heis):
    return curvature(compute_connection(heis))


@pytest.fixture(scope="session")
def su2():
    return load_structure("su2")


@pytest.fixture(scope="session")
def su2_cd(su2):
    return curvature(compute_connection(su2))


@pytest.fixture(scope="session")
def su2c():
    return load_structure("su2:chart")


@pytest.fixture(scope="session")
def su2c_cd(su2c):
    return curvature(compute_connection(su2c))


def traced_peak(fn):
    """(fn(), the most memory tracemalloc traced while fn ran, beyond what is
    still held when it returns): fn's working memory in bytes, its result
    and anything it cached left out.  numpy reports its buffers to
    tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def fresh_rusage(*args):
    """(exit code, max-RSS in MB, minor page faults) of `python *args` in a
    fresh process, run as perfbench runs a job: srkilling from this
    checkout's src, one BLAS thread, and the child's own rusage read by
    os.wait4.  Its output is dropped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_minflt


def parse(text, coords=("x", "y", "z")):
    return ex.parse_expression(text, list(coords))


def field(texts, coords=("x", "y", "z")):
    return [parse(t, coords) for t in texts]


# The four Heisenberg Killing fields: the Reeb field, the two left
# translations, and the rotation about the vertical axis.
HEIS_KILLING = {
    "xi": ["0", "0", "-1"],
    "Y1": ["1", "0", "y/2"],
    "Y2": ["0", "1", "-x/2"],
    "J": ["-y", "x", "0"],
}

# Killing fields of the su2 chart realization: the Reeb field (minus the
# third left-invariant field) and the three right-invariant fields.
SU2C_KILLING = {
    "xi": ["-(x*z + y)/2", "(x - y*z)/2", "(x^2 + y^2 - z^2 - 1)/4"],
    "Y1": ["(1 + x^2 - y^2 - z^2)/4", "(x*y - z)/2", "(x*z + y)/2"],
    "Y2": ["(x*y + z)/2", "(1 - x^2 + y^2 - z^2)/4", "(y*z - x)/2"],
    "Y3": ["(x*z - y)/2", "(y*z + x)/2", "(1 - x^2 - y^2 + z^2)/4"],
}


def random_expression(rng, variables, depth=3, trig=True):
    """Seeded random expression over the given variables: polynomials with
    optional sin/cos/exp wrappers, rational constants."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Var(variables[rng.integers(len(variables))])
        num = int(rng.integers(-6, 7))
        den = int(rng.integers(1, 5))
        return ex.const(f"{num}/{den}")
    roll = rng.random()
    if roll < 0.25:
        return ex.add(
            random_expression(rng, variables, depth - 1, trig),
            random_expression(rng, variables, depth - 1, trig),
        )
    if roll < 0.5:
        return ex.sub(
            random_expression(rng, variables, depth - 1, trig),
            random_expression(rng, variables, depth - 1, trig),
        )
    if roll < 0.75:
        return ex.mul(
            random_expression(rng, variables, depth - 1, trig),
            random_expression(rng, variables, depth - 1, trig),
        )
    if trig and roll < 0.85:
        fn = ("sin", "cos", "exp")[rng.integers(3)]
        return ex.call(fn, random_expression(rng, variables, depth - 1, trig=False))
    if roll < 0.95:
        return ex.pow_(random_expression(rng, variables, depth - 1, trig=False), int(rng.integers(2, 4)))
    return ex.neg(random_expression(rng, variables, depth - 1, trig))


def finite_difference(e, variables, var, point, h=1e-5):
    env_p = dict(zip(variables, point))
    env_m = dict(env_p)
    env_p[var] = env_p[var] + h
    env_m[var] = env_m[var] - h
    return (evaluate(e, env_p) - evaluate(e, env_m)) / (2 * h)
