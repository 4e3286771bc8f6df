"""The stacked matrix exponential of the product integrals, against the
per-matrix scaling-and-squaring it replaced.

``reference_expm`` is that per-matrix exponential, kept here as the
specification: the stack must give every matrix the same norm, squarings,
series terms, stopping index and squaring sequence, so the results agree
bit for bit, and so do the ordered products built from them.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronexp import (  # noqa: E402
    MatrixPath,
    airy_path,
    matrix_texp,
    matrix_texp_inverse,
    random_path,
)
from chronexp.dyson import EXPM_TOL, _expm_stack  # noqa: E402


def reference_expm(m, tol=EXPM_TOL):
    """Scaling-and-squaring truncated-series exponential of one matrix."""
    norm = abs(m).sum(axis=1).max()
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    scaled = m / (2 ** squarings)
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, 64):
        term = term @ scaled / k
        result = result + term
        if abs(term).sum(axis=1).max() <= tol:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def reference_texp(path):
    out = np.eye(path.dimension)
    for tau in path.midpoints():
        out = reference_expm(path.h * np.asarray(path.sampler(tau))) @ out
    return out


def reference_texp_inverse(path):
    out = np.eye(path.dimension)
    for tau in path.midpoints():
        out = out @ reference_expm(-path.h * np.asarray(path.sampler(tau)))
    return out


def squarings_of(m):
    norm = abs(m).sum(axis=1).max()
    return 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))


@st.composite
def stacks(draw):
    """K in 1..40 matrices of size d in 1..5.  Integer entries times a power
    of two give exact norms (0 and 0.5 among them); uniform entries or a
    free factor give the rest.  Norms reach about 1e3, 11 squarings.
    """
    k = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (k, d, d)
    entries = np.where(rng.random(shape) < draw(st.floats(0.0, 1.0)),
                       rng.integers(-3, 4, shape), rng.uniform(-1, 1, shape))
    scales = draw(st.lists(st.one_of(
        st.integers(-12, 6).map(lambda p: 2.0 ** p),
        st.floats(1e-3, 60.0)), min_size=k, max_size=k))
    return entries * np.array(scales)[:, None, None]


HALF = np.array([[0.25, -0.25], [0.5, 0.0]])       # norm exactly 0.5
LARGE = np.array([[0.0, 960.0], [-17.0, 3.0]])    # 11 squarings


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ms=stacks())
@example(ms=np.stack([np.zeros((2, 2)), HALF, LARGE, np.nextafter(HALF, 1)]))
def test_stack_matches_each_matrix(ms):
    got = _expm_stack(ms)
    assert got.shape == ms.shape
    for m, e in zip(ms, got):
        assert e.tobytes() == reference_expm(m).tobytes()


def test_example_reaches_the_norm_boundaries():
    assert [squarings_of(m) for m in (np.zeros((2, 2)), HALF, LARGE)] == \
        [0, 0, 11]
    assert squarings_of(np.nextafter(HALF, 1)) == 1


def test_empty_stack():
    assert _expm_stack(np.empty((0, 3, 3))).shape == (0, 3, 3)


PATHS = {
    "airy": airy_path(h=1e-2),
    **{f"random seed {s}": random_path(seed=s, h=1e-2) for s in range(4)},
    "one step": random_path(seed=4, dimension=3, end=0.7, h=1.0),
    "zero length": MatrixPath(2, 0.5, 0.5, 1, airy_path().sampler),
    "squarings": airy_path(end=30.0, h=4.0),
    "squarings 6x6": random_path(seed=5, dimension=6, end=40.0, h=5.0),
}


@pytest.mark.parametrize("name", PATHS)
def test_products_match_the_sequential_loops(name):
    path = PATHS[name]
    assert matrix_texp(path).tobytes() == reference_texp(path).tobytes()
    assert matrix_texp_inverse(path).tobytes() == \
        reference_texp_inverse(path).tobytes()


def test_paths_cover_the_edge_cases():
    assert PATHS["one step"].steps == 1
    assert len(PATHS["zero length"].midpoints()) == 0
    path = PATHS["squarings"]
    assert max(squarings_of(path.h * path.sampler(tau))
               for tau in path.midpoints()) >= 5
