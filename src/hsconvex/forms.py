"""The reproducing integral on level-surface quadrature, and shell grids.

The kernel K(xi, z) = <d rho(xi), xi - z>^(-n) paired with the Leray-Levy
measure reproduces holomorphic functions from their boundary values.  (The
Hardy-Sobolev level-norm trends behind the corpus labels live in
:func:`hsconvex.corpus.oracle_labels`.)

Shell grids discretize the outer collar between the boundary and rho = eps
with dyadic bands in the level and Gauss-Legendre nodes inside each band, so
integrands with a power-of-rho profile are resolved band by band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domain import pairing
from .homtype import BoundaryGrid
from .sphere import angular_mesh, gauss_legendre_segments, surface_nodes

__all__ = [
    "HoloFunction",
    "ShellGrid",
    "CLFValue",
    "SingularKernelError",
    "build_shell_grid",
    "clf_kernel",
    "clf_reproduce",
    "multi_indices",
]


# the highest derivative order a HoloFunction hands out
MAX_ORDER = 8


class SingularKernelError(ZeroDivisionError):
    """Kernel denominator vanished (evaluation on the singular set)."""


@dataclass
class HoloFunction:
    """Holomorphic function with closed-form derivatives.

    ``eval`` maps points (..., n) to values (...); ``deriv(alpha, z)`` returns
    the holomorphic derivative for a multi-index; ``validity`` is the largest
    level t such that the function is holomorphic on the closure of rho < t.
    """

    eval: Callable
    deriv: Optional[Callable] = None
    validity: float = 0.0
    label: str = ""

    def __call__(self, z):
        return self.eval(np.asarray(z, dtype=complex))

    def d(self, alpha, z):
        if self.deriv is None:
            raise ValueError(f"function {self.label!r} has no derivative data")
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) > MAX_ORDER:
            raise ValueError(
                f"derivative order {sum(alpha)} exceeds available "
                f"{MAX_ORDER} for {self.label!r}")
        return self.deriv(alpha, np.asarray(z, dtype=complex))


def multi_indices(n, order):
    """All multi-indices of length n with |alpha| <= order, lexicographic."""
    if n == 1:
        return [(k,) for k in range(order + 1)]
    out = []
    for k in range(order + 1):
        for rest in multi_indices(n - 1, order - k):
            out.append((k,) + rest)
    return sorted(out, key=lambda a: (sum(a), a))


# ---------------------------------------------------------------------------
# kernel and reproduction
# ---------------------------------------------------------------------------

def clf_kernel(domain, xi, z, grad_xi=None):
    """K(xi, z) = <d rho(xi), xi - z>^(-n), batched over xi and/or z."""
    xi = np.asarray(xi, dtype=complex)
    z = np.asarray(z, dtype=complex)
    g = np.asarray(domain.grad(xi)) if grad_xi is None else grad_xi
    den = pairing(g, xi - z)
    if np.any(np.abs(den) < 1e-14):
        raise SingularKernelError("kernel denominator below 1e-14")
    return den ** (-domain.n)


@dataclass(frozen=True)
class CLFValue:
    value: complex
    degraded: bool = False


def _euclid_spacing(grid):
    # mean node spacing of a (2n-1)-dimensional surface grid
    return (grid.sigma_total / grid.size) ** (1.0 / 3.0)


def clf_reproduce(grid: BoundaryGrid, f, z):
    """Quadrature of f * K against the Leray-Levy weights.

    Returns a :class:`CLFValue`; the ``degraded`` flag marks evaluation
    points closer to the surface than three mean node spacings, where the
    quadrature no longer resolves the kernel.
    """
    z = np.asarray(z, dtype=complex)
    dom = grid.domain
    den = grid.pair_self - grid.grad @ z
    amin = float(np.abs(den).min())
    spacing = _euclid_spacing(grid)
    gnorm = float(np.linalg.norm(np.asarray(dom.grad(z))))
    dist_est = abs(float(dom.rho(z))) / max(2.0 * gnorm, 1e-10)
    degraded = dist_est < 3.0 * spacing
    if degraded:
        warnings.warn("evaluation point within 3 node spacings of the "
                      "surface; reproduction accuracy degraded", stacklevel=2)
    if amin < 1e-14:
        raise SingularKernelError("kernel denominator below 1e-14 on grid")
    vals = np.asarray(f(grid.nodes))
    total = np.sum(vals * den ** (-dom.n) * grid.w_S)
    return CLFValue(value=complex(total), degraded=bool(degraded))


# ---------------------------------------------------------------------------
# shell grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellGrid:
    """Quadrature of the collar 0 < rho <= eps.

    Levels are grouped in dyadic bands [eps 2^-m, eps 2^-(m-1)] with
    Gauss-Legendre nodes inside each band; every level reuses one angular
    mesh, so nodes correspond across levels.  ``w_mu`` are Lebesgue volume
    weights from the coarea factorization d(mu) = d(sigma_t) dt / |grad rho|.
    The grid holds no gradients: ``domain.grad`` is elementwise, so a
    consumer recomputes a row block's gradients bit for bit as the grid was
    built with them (see :func:`hsconvex.continuation.shell_defect`).
    """

    levels: np.ndarray     # (L,)
    nodes: np.ndarray      # (L, N, n)
    w_mu: np.ndarray       # (L, N)

    @property
    def size(self):
        return self.levels.size * self.nodes.shape[1]

    @property
    def volume(self):
        """Test oracle for the w_mu weights: the collar's Lebesgue volume."""
        return float(self.w_mu.sum())


def build_shell_grid(domain, eps=None, resolution=4000, n_bands=10,
                     nodes_per_band=3):
    """Shell grid on 0 < rho <= eps (eps defaults to the validated width)."""
    eps = domain.eps_shell if eps is None else float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    mesh = angular_mesh(resolution)
    levels, weights = gauss_legendre_segments(
        [(eps * 2.0 ** (-m), eps * 2.0 ** (-m + 1))
         for m in range(1, n_bands + 1)], nodes_per_band)
    levels, weights = levels[::-1].copy(), weights[::-1].copy()

    # each level is written into its slot as it comes, so no second copy
    # of the whole grid is alive at once; a level's gradients live only
    # while its weights are formed
    nodes = np.empty((levels.size, mesh.size, domain.n), dtype=complex)
    w_mu = np.empty(nodes.shape[:2])
    for i, (t, wt) in enumerate(zip(levels, weights)):
        nodes[i], w_sigma, grad = surface_nodes(domain, mesh, t)
        w_mu[i] = wt * w_sigma / (2.0 * np.linalg.norm(grad, axis=-1))
    return ShellGrid(levels=levels, nodes=nodes, w_mu=w_mu)
