import tracemalloc

# hsconvex first: it sets the BLAS thread variables, which the BLAS reads
# once, when numpy loads; so the suite runs at the CLI's thread count
from hsconvex import domain as dom
from hsconvex import homtype

import numpy as np
import pytest


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


@pytest.fixture(scope="session")
def whole_shell():
    """The collar's nodes (L, N, n) and volume weights (L, N), whole.

    The oracle of a shell grid's row blocks: each level's nodes, surface
    weights and gradients from one :func:`hsconvex.sphere.surface_nodes`
    call, and its volume weights from them, all held at once.
    """
    from hsconvex.sphere import (angular_mesh, gauss_legendre_segments,
                                 surface_nodes)

    def build(domain, eps, resolution, n_bands, nodes_per_band):
        mesh = angular_mesh(resolution)
        levels, weights = gauss_legendre_segments(
            [(eps * 2.0 ** (-m), eps * 2.0 ** (-m + 1))
             for m in range(1, n_bands + 1)], nodes_per_band)
        nodes, w_mu = [], []
        for t, wt in zip(levels[::-1], weights[::-1]):
            x, w_sigma, g = surface_nodes(domain, mesh, t)
            nodes.append(x)
            w_mu.append(wt * w_sigma / (2.0 * np.linalg.norm(g, axis=-1)))
        return np.array(nodes), np.array(w_mu)
    return build
