import tracemalloc

import numpy as np
import pytest

from hsconvex import domain as dom
from hsconvex import homtype


@pytest.fixture(scope="session")
def ball():
    return dom.ball()


@pytest.fixture(scope="session")
def ellipsoid():
    return dom.ellipsoid()


@pytest.fixture(scope="session")
def perturbed():
    return dom.perturbed_ball()


@pytest.fixture(scope="session")
def ball_grid(ball):
    return homtype.build_boundary_grid(ball, 0.0, 10000)


@pytest.fixture(scope="session")
def ball_grid_small(ball):
    return homtype.build_boundary_grid(ball, 0.0, 3000)


@pytest.fixture(scope="session")
def ball_grid_mc(ball):
    return homtype.build_boundary_grid(ball, 0.0, 12000, kind="random",
                                       seed=1)


@pytest.fixture()
def rng():
    # function scoped: every test sees the same stream regardless of order
    return np.random.default_rng(42)


@pytest.fixture()
def traced_peak_mib():
    """Peak MiB that a call allocates through Python's allocators.

    numpy reports its array buffers to tracemalloc; BLAS workspaces are not
    seen, so the figure bounds the arrays a function keeps alive at once.
    """

    def peak(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    return peak
