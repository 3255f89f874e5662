"""Quasimetric structure of the boundary: quasiballs, measure, maximal function.

The boundary with the quasimetric d(w, z) = |<d rho(w), w - z>| and surface
measure is a space of homogeneous type: quasiballs of radius delta have
measure comparable to delta^n.  This module builds quadrature grids on level
surfaces, verifies the homogeneity numerically, checks the two comparison
estimates relating d to the defining function on the shell, and computes the
Hardy-Littlewood maximal function over centred quasiballs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import pairing, project_boundary, row_blocks
from .exterior import grid_leray_density
from .sphere import angular_mesh, random_angular_mesh, surface_nodes

__all__ = [
    "BoundaryGrid",
    "build_boundary_grid",
    "qdist",
    "grid_qdist",
    "quasiball",
    "check_homogeneous",
    "qm_exterior_check",
    "maximal_function",
    "maximal_function_brute",
    "percentile",
    "median",
]

# the diameter's distance matrix goes in blocks of sample rows, not the
# whole 256 x N: at most _DIAMETER_ROWS rows, and no more than
# _DIAMETER_VALUES complex values (2 MiB) a block, so the block keeps its
# 32 rows up to 4096 nodes and takes fewer on larger grids
_DIAMETER_ROWS = 32
_DIAMETER_VALUES = 32 * 4096


@dataclass(frozen=True)
class BoundaryGrid:
    """Quadrature grid on a level surface rho = t.

    ``w_sigma`` are surface-measure weights, ``w_S`` the Leray-Levy weights
    (density times w_sigma; the two measures are equivalent, so both weight
    vectors are strictly positive).  ``grad`` and ``pair_self`` cache the
    holomorphic gradient and <d rho(w), w> per node, which makes quasimetric
    distance fields a single matrix product.
    """

    domain: object
    nodes: np.ndarray      # (N, n)
    grad: np.ndarray       # (N, n)
    w_sigma: np.ndarray    # (N,)
    w_S: np.ndarray        # (N,)
    pair_self: np.ndarray  # (N,)

    @property
    def size(self):
        return self.nodes.shape[0]

    @property
    def sigma_total(self):
        return float(self.w_sigma.sum())

    @property
    def quasi_spacing(self):
        """Radius at which a quasiball holds about one node on average."""
        return float(np.sqrt(self.sigma_total / self.size))

    def diameter(self, seed=0):
        """Largest distance from a seeded sample of 256 nodes to any node.

        The seed-0 value, which the centre strata and the maximal function's
        radius ladder read, is computed once per grid.
        """
        if seed == 0:
            return self._diameter_seed0
        return self._sample_diameter(seed)

    @cached_property
    def _diameter_seed0(self):
        return self._sample_diameter(0)

    def _sample_diameter(self, seed):
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.size, size=min(256, self.size), replace=False)
        # one product buffer and one modulus buffer serve every block:
        # the same matmul, subtraction and modulus, written in place.  A
        # budget-sized block takes an even row count, so no block's product
        # is a lone row, which the BLAS multiplies on another kernel
        rows = min(_DIAMETER_ROWS,
                   max(2, _DIAMETER_VALUES // self.size // 2 * 2))
        prod = np.empty((rows, self.size), dtype=complex)
        mod = np.empty(prod.shape)
        peaks = []
        for sl in row_blocks(idx.size, rows):
            rows = idx[sl]
            d = np.matmul(self.grad[rows], self.nodes.T, out=prod[:rows.size])
            np.subtract(self.pair_self[rows, None], d, out=d)
            peaks.append(np.abs(d, out=mod[:rows.size]).max())
        return float(np.max(peaks))


def build_boundary_grid(domain, t=0.0, resolution=10000, kind="product",
                        seed=0, mesh=None):
    """Grid on rho = t; ``resolution`` is a node-count target or an angle triple.

    ``kind="product"`` gives the Gauss-Legendre/trapezoid mesh (high order for
    smooth integrands); ``kind="random"`` gives seeded Monte Carlo nodes whose
    quasiball measures are unbiased, for homogeneity and maximal-function
    statistics.
    """
    if mesh is None:
        if kind == "product":
            mesh = angular_mesh(resolution)
        elif kind == "random":
            n = resolution if np.isscalar(resolution) else int(np.prod(resolution))
            mesh = random_angular_mesh(n, seed=seed)
        else:
            raise ValueError(f"unknown grid kind {kind!r}")
    nodes, w_sigma, g = surface_nodes(domain, mesh, t)
    w_s = grid_leray_density(domain, nodes, g) * w_sigma
    return BoundaryGrid(domain=domain, nodes=nodes, grad=g, w_sigma=w_sigma,
                        w_S=w_s, pair_self=pairing(g, nodes))


def qdist(domain, w, z):
    """Quasimetric d(w, z) = |<d rho(w), w - z>| (not symmetric)."""
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    g = np.asarray(domain.grad(w))
    return np.abs(pairing(g, w - z))


def grid_qdist(grid, z):
    """Distances d(w_i, z) from every grid node; z may be a batch (..., n)."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        return np.abs(grid.pair_self - grid.grad @ z)
    return np.abs(grid.pair_self[None, :] - z @ grid.grad.T)


def quasiball(grid, z, delta):
    """Node subset {w : d(w, z) < delta} and its surface measure."""
    mask = grid_qdist(grid, z) < delta
    return mask, float(grid.w_sigma[mask].sum())


def check_homogeneous(grid, seed=0):
    """Fit the measure-scaling exponent and sample the quasi-triangle constant.

    Returns a dict with ``fitted_dimension`` (mean least-squares slope of
    log sigma(B(z, delta)) against log delta over 50 random centers, with
    delta 0.025, 0.05, 0.1 and 0.2 of the grid's diameter; a centre whose
    smallest quasiball holds fewer than two nodes is skipped, and a
    ValueError says the grid is too coarse when none is left) and
    ``quasi_triangle_constant`` (max of d(x,z)/(d(x,y)+d(y,z)) over 4000
    sampled triples of nodes).
    """
    rng = np.random.default_rng(seed)
    deltas = grid.diameter(seed=seed) * np.array([0.025, 0.05, 0.1, 0.2])
    centers = rng.choice(grid.size, size=min(50, grid.size),
                         replace=False)
    slopes = []
    for ci in centers:
        d = grid_qdist(grid, grid.nodes[ci])
        if np.count_nonzero(d < deltas[0]) < 2:
            # the smallest quasiball holds at most its centre: no scaling
            continue
        meas = np.array([grid.w_sigma[d < r].sum() for r in deltas])
        slope = np.polyfit(np.log(deltas), np.log(meas), 1)[0]
        slopes.append(slope)
    if not slopes:
        raise ValueError("every sampled centre's smallest quasiball holds "
                         "fewer than two nodes; grid too coarse")

    xi = rng.choice(grid.size, size=(4000, 3))
    ok = (xi[:, 0] != xi[:, 1]) & (xi[:, 1] != xi[:, 2])
    xi = xi[ok]
    x, y, z = (grid.nodes[xi[:, 0]], grid.nodes[xi[:, 1]], grid.nodes[xi[:, 2]])
    gx = grid.grad[xi[:, 0]]
    gy = grid.grad[xi[:, 1]]
    dxz = np.abs(pairing(gx, x - z))
    dxy = np.abs(pairing(gx, x - y))
    dyz = np.abs(pairing(gy, y - z))
    denom = dxy + dyz
    keep = denom > 1e-14
    ratios = dxz[keep] / denom[keep]
    return {
        "fitted_dimension": float(np.mean(slopes)),
        "dimension_std": float(np.std(slopes)),
        "quasi_triangle_constant": float(ratios.max()),
        "deltas": deltas.tolist(),
        "n_centers": int(len(slopes)),
    }


def _order_stats(a, ranks):
    """Sorted values of a 1-D float array at ``ranks``, NaN if a has one.

    ``np.partition`` puts every listed rank in its sorted place and NaNs
    last; ``np.percentile`` and ``np.median`` import ``numpy.ma``, which
    costs a command 10-17 ms and about 1 MB, so the kit avoids them.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    part = np.partition(a, sorted({r % a.size for r in ranks} | {-1 % a.size}))
    if np.isnan(part[-1]):
        return [np.nan] * len(ranks)
    return [part[r] for r in ranks]


def percentile(a, q):
    """``np.percentile(a, q)`` of a non-empty 1-D float array, bit for bit.

    numpy's default 'linear' method: the virtual index (N - 1) q / 100
    falls between two order statistics, which numpy's lerp blends by its
    fractional part (from the top one when the fraction is at least 1/2);
    past the last rank both are the largest value.
    """
    n = np.size(a)
    v = (n - 1) * (q / 100.0)
    lo = -1 if v >= n - 1 else int(np.floor(v))
    t = v - lo
    a, b = _order_stats(a, [lo, -1 if lo == -1 else lo + 1])
    d = b - a
    return float(b - d * (1.0 - t) if t >= 0.5 else a + d * t)


def median(a):
    """``np.median(a)`` of a non-empty 1-D float array, bit for bit.

    The mean of the middle order statistic or of the middle two, summed as
    numpy sums, from +0.0.
    """
    n = np.size(a)
    mid = _order_stats(a, [(n - 1) // 2, n // 2])
    return float(((0.0 + mid[0]) + mid[1]) / 2.0 if n % 2 == 0
                 else (0.0 + mid[0]) / 1.0)


def _percentile_range(r):
    return {
        "lo": percentile(r, 0.5),
        "hi": percentile(r, 99.5),
        "min": float(r.min()),
        "max": float(r.max()),
        "n": int(r.size),
    }


def qm_exterior_check(domain, w_exterior=None, z_boundary=None,
                      tau=None, tau_center=None, w2=None):
    """Empirical ratio ranges for the two shell comparison estimates.

    First estimate: d(w, z) against rho(w) + d(pr(w), z) for exterior w and
    boundary z.  Second: d(tau, w) against rho(tau) + d(z, w) for tau in an
    external approach region with apex z.  Ranges are reported as the
    [0.5, 99.5] percentile envelope plus full min/max.
    """
    report = {}
    if w_exterior is not None:
        w = np.asarray(w_exterior, dtype=complex)
        z = np.asarray(z_boundary, dtype=complex)
        num = qdist(domain, w, z)
        pr = project_boundary(domain, w)
        den = np.asarray(domain.rho(w)) + qdist(domain, pr, z)
        ratios = num / den
        report["shell_comparison"] = _percentile_range(ratios)
    if tau is not None:
        tau = np.asarray(tau, dtype=complex)
        zc = np.asarray(tau_center, dtype=complex)
        w2 = np.asarray(w2, dtype=complex)
        num = qdist(domain, tau, w2)
        den = np.asarray(domain.rho(tau)) + qdist(domain, zc, w2)
        ratios = num / den
        report["region_comparison"] = _percentile_range(ratios)
    return report


@dataclass(frozen=True)
class CenterSet:
    """Weighted boundary points for outer integrals (stratified quadrature)."""

    nodes: np.ndarray
    w_sigma: np.ndarray


def stratified_centers(grid, pole=None, n_bulk=24, n_per_annulus=3,
                       n_annuli=8, seed=0):
    """Centers stratified in quasimetric annuli around a boundary pole.

    Outer integrals of fields that blow up toward one boundary point need
    centers that resolve every dyadic distance scale; uniform random centers
    almost surely miss the near zone.  Weights are the annulus measures split
    over their samples, so sums against them estimate the surface integral.
    Strata are seeded independently, so deepening the ladder only adds inner
    annuli and leaves shared strata (including the bulk) identical; ratio
    tests across refinement stages then see the added strata, not redraw
    noise.
    """
    if pole is None:
        pole = np.zeros(grid.nodes.shape[1], dtype=complex)
        pole[0] = 1.0
    d = grid_qdist(grid, np.asarray(pole, dtype=complex))
    edges = 0.5 * grid.diameter() * 2.0 ** (-np.arange(n_annuli + 1.0))
    # (mask, quota, rng key) per stratum: the annuli, then the bulk outside
    # them.  The disk inside the last annulus is omitted: the estimator
    # measures the integral truncated at the ladder depth, which is the
    # monotone refinement object the finite/infinite verdicts compare
    strata = [((d >= edges[i + 1]) & (d < edges[i]), n_per_annulus, i)
              for i in range(n_annuli)]
    strata.append((d >= edges[0], n_bulk, 10 ** 6))
    nodes, weights = [], []
    for mask, quota, key in strata:
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        take = min(quota, cnt)
        idx = np.random.default_rng([seed, key]).choice(
            np.nonzero(mask)[0], size=take, replace=False)
        nodes.append(grid.nodes[idx])
        weights.append(np.full(take, float(grid.w_sigma[mask].sum()) / take))
    return CenterSet(nodes=np.concatenate(nodes),
                     w_sigma=np.concatenate(weights))


def maximal_function(grid, a, n_levels=12, at=None):
    """Centred quasiball maximal function over a dyadic radius ladder.

    Ma(z) = sup over radii of the sigma-average of |a| over B(z, r); the
    degenerate radius (the node itself) is always included, so Ma >= |a|.
    ``at`` lists the node indices to evaluate at (default: every node); the
    result has one value per listed node, each computed as in the full run.
    """
    a = np.abs(np.asarray(a, dtype=float))
    if a.shape != (grid.size,):
        raise ValueError("field must be per-node")
    idx = np.arange(grid.size) if at is None else np.asarray(at)
    radii = grid.diameter() * 2.0 ** (-np.arange(n_levels, dtype=float))
    aw = a * grid.w_sigma
    out = a[idx]
    for sl in row_blocks(idx.size, 256):
        d = grid_qdist(grid, grid.nodes[idx[sl]])    # (C, N)
        for r in radii:
            mask = d < r
            num = mask @ aw
            den = mask @ grid.w_sigma
            avg = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            out[sl] = np.maximum(out[sl], avg)
    return out


def maximal_function_brute(grid, a):
    """Exact discrete sup over all radii.

    Test oracle for the dyadic radius ladder of :func:`maximal_function`.
    """
    a = np.abs(np.asarray(a, dtype=float))
    aw = a * grid.w_sigma
    out = np.empty(grid.size)
    for sl in row_blocks(grid.size, 64):
        d = grid_qdist(grid, grid.nodes[sl])
        order = np.argsort(d, axis=1)
        num = np.cumsum(np.take_along_axis(
            np.broadcast_to(aw, d.shape), order, axis=1), axis=1)
        den = np.cumsum(np.take_along_axis(
            np.broadcast_to(grid.w_sigma, d.shape), order, axis=1), axis=1)
        out[sl] = (num / den).max(axis=1)
    return out
