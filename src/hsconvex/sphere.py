"""Product quadrature on S^3 and radial-graph meshes of level surfaces.

The boundary of every catalog domain is a radial graph r(theta) * theta over
the unit sphere of C^2 (the domains are convex with interior origin).  We use
Hopf coordinates

    z1 = cos(a) e^{i p1},  z2 = sin(a) e^{i p2},
    a in (0, pi/2), p1, p2 in [0, 2 pi),

with measure cos(a) sin(a) da dp1 dp2.  Gauss-Legendre in ``a`` and the
(periodic, spectrally accurate) trapezoid rule in both angles give smooth
integrands high-order convergence; total mass of S^3 is 2 pi^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (radial_level, random_unit_directions, real_dot,
                     row_blocks)

__all__ = ["AngularMesh", "angular_mesh", "split_resolution", "surface_nodes",
           "surface_block", "radial_graph_jacobian",
           "gauss_legendre_segments", "hopf_directions"]


@dataclass(frozen=True)
class AngularMesh:
    dirs: np.ndarray       # (N, 2) complex unit directions
    weights: np.ndarray    # (N,) quadrature weights for the S^3 measure

    @property
    def size(self):
        return self.dirs.shape[0]


def split_resolution(target):
    """Deterministic (n_alpha, n_phi1, n_phi2) with about ``target`` nodes."""
    target = int(target)
    if target < 16:
        raise ValueError("need at least 16 angular nodes")
    na = max(2, round((target / 4.0) ** (1.0 / 3.0)))
    return (na, 2 * na, 2 * na)


def angular_mesh(resolution):
    """Product mesh on S^3; ``resolution`` is a triple or a node-count target."""
    if np.isscalar(resolution):
        resolution = split_resolution(resolution)
    na, np1, np2 = (int(v) for v in resolution)
    xa, wa = np.polynomial.legendre.leggauss(na)
    a = 0.25 * np.pi * (xa + 1.0)
    wa = 0.25 * np.pi * wa * np.cos(a) * np.sin(a)
    p1 = 2.0 * np.pi * np.arange(np1) / np1
    p2 = 2.0 * np.pi * np.arange(np2) / np2
    w1 = 2.0 * np.pi / np1
    w2 = 2.0 * np.pi / np2

    return AngularMesh(dirs=hopf_directions(a, p1, p2),
                       weights=np.repeat(wa * w1 * w2, np1 * np2))


def hopf_directions(a, p1, p2):
    """Directions (cos a e^{i p1}, sin a e^{i p2}) of the (a, p1, p2) grid.

    The trig runs on the 1-D axes and is broadcast into the (N, 2) result,
    which holds each node's value of the elementwise formula on the full
    angle grid.
    """
    dirs = np.empty((a.size, p1.size, p2.size, 2), dtype=complex)
    dirs[..., 0] = (np.cos(a)[:, None] * np.exp(1j * p1)[None, :])[..., None]
    dirs[..., 1] = np.sin(a)[:, None, None] * np.exp(1j * p2)[None, None, :]
    return dirs.reshape(-1, 2)


def gauss_legendre_segments(segments, q):
    """Composite Gauss-Legendre nodes/weights, q per segment (lo, hi)."""
    xg, wg = np.polynomial.legendre.leggauss(int(q))
    nodes, weights = [], []
    for lo, hi in segments:
        nodes.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _graded_segments(lo, split, hi, n_uniform):
    """Geometric octave segments on [lo, split] plus uniform on [split, hi]."""
    n_oct = max(1, int(np.ceil(np.log2(split / lo))))
    edges = split * 2.0 ** (-np.arange(n_oct + 1, dtype=float))
    edges[-1] = lo
    segs = [(edges[i + 1], edges[i]) for i in range(n_oct)][::-1]
    ue = np.linspace(split, hi, n_uniform + 1)
    segs += [(ue[i], ue[i + 1]) for i in range(n_uniform)]
    return segs


def graded_angular_mesh(n_phi2=12, alpha_floor=3e-3, phi_floor=1e-4,
                        q=(7, 6), deg_hint=32):
    """Mesh graded toward the boundary point z = (1, 0) (Hopf angles (0, 0)).

    Composite Gauss-Legendre axes refine geometrically toward the pole at
    the quasimetric's anisotropic rates (sqrt of the scale in alpha, linear
    in phi_1), in octaves below alpha = 0.12 and phi_1 = 0.3 and uniformly
    above; phi_2 stays a uniform trapezoid.  Used for integrands peaked
    along the z_1 = 1 ray (the corpus singularities).  ``deg_hint`` sizes
    the uniform segments so monomial oscillation up to that degree is
    integrated by the per-segment Gauss rule.
    """
    n_uniform = (max(5, int(np.ceil(deg_hint / 8))),
                 max(6, int(np.ceil(deg_hint / 4))))
    a_nodes, a_w = gauss_legendre_segments(
        _graded_segments(alpha_floor, 0.12, 0.5 * np.pi, n_uniform[0]),
        q[0])
    p_nodes_half, p_w_half = gauss_legendre_segments(
        _graded_segments(phi_floor, 0.3, np.pi, n_uniform[1]), q[1])
    p_nodes = np.concatenate([-p_nodes_half[::-1], p_nodes_half])
    p_w = np.concatenate([p_w_half[::-1], p_w_half])
    p2 = 2.0 * np.pi * np.arange(n_phi2) / n_phi2
    w2 = 2.0 * np.pi / n_phi2

    w_a = a_w * np.cos(a_nodes) * np.sin(a_nodes)
    return AngularMesh(dirs=hopf_directions(a_nodes, p_nodes, p2),
                       weights=np.repeat(np.outer(w_a, p_w) * w2, n_phi2))


def random_angular_mesh(n, seed=0):
    """Monte Carlo mesh: uniform directions with equal S^3 weights.

    Structured product meshes quantize thin anisotropic quasiballs (their
    nodes sit on angle planes), which biases small-ball measure statistics;
    uniform random nodes are unbiased, at O(n^{-1/2}) accuracy.  Use these
    for measure/maximal-function statistics, the product mesh for smooth
    quadrature.
    """
    dirs = random_unit_directions(np.random.default_rng(seed), int(n), 2)
    w = np.full(int(n), 2.0 * np.pi ** 2 / int(n))
    return AngularMesh(dirs=dirs, weights=w)


def radial_graph_jacobian(r, dirs, g):
    """Surface Jacobian of the radial graph F(theta) = R(theta) theta, n = 2.

    The pulled-back measure is R^(2n-2) sqrt(R^2 + |grad_S R|^2) d(theta);
    the spherical gradient of R follows from implicit differentiation of
    rho(R theta) = t, with ``g`` the holomorphic gradient at R theta.  ``r``
    has the shape of ``dirs`` without its last axis.
    """
    grad_re = 2.0 * np.conj(g)                       # real gradient in C^2
    slope = real_dot(grad_re, dirs)                  # d rho / dr
    tang = grad_re - slope[..., None] * dirs         # tangential part on S^3
    grad_s_r = r[..., None] * (-tang) / slope[..., None]
    gs2 = real_dot(grad_s_r, grad_s_r)
    return r ** 2 * np.sqrt(r ** 2 + gs2)


def surface_block(domain, dirs, weights, r, nodes, g):
    """Fill one row block's nodes and gradients; return its surface weights.

    ``dirs``, ``weights`` and the radii ``r`` are the block's rows of a mesh
    and of its level-set radii; ``nodes`` and ``g`` are (B, 2) output
    buffers.  Each row's arithmetic does not depend on its block.
    """
    nodes[...] = r[:, None] * dirs
    g[...] = domain.grad(nodes)
    return weights * radial_graph_jacobian(r, dirs, g)


def surface_nodes(domain, mesh, t=0.0):
    """Nodes, surface-measure weights and gradients of the level set rho = t.

    The radii come from one whole-batch :func:`radial_level` call, whose
    stop test is batch-wide; nodes, gradients and the surface Jacobian are
    then filled over row blocks (:func:`hsconvex.domain.row_blocks`,
    :func:`surface_block`), so the Jacobian's temporaries of only one block
    are alive at once.
    """
    dirs = mesh.dirs
    r = radial_level(domain, dirs, t)
    nodes = np.empty_like(dirs)
    g = np.empty_like(dirs)
    w_sigma = np.empty(r.shape)
    for sl in row_blocks(r.size):
        w_sigma[sl] = surface_block(domain, dirs[sl], mesh.weights[sl],
                                    r[sl], nodes[sl], g[sl])
    return nodes, w_sigma, g
