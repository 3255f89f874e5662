"""The reproducing integral and the norms built on level-surface quadrature.

The kernel K(xi, z) = <d rho(xi), xi - z>^(-n) paired with the Leray-Levy
measure reproduces holomorphic functions from their boundary values.  Hardy
norms take a sup of L^p level norms over an inner geometric ladder; the
Hardy-Sobolev norm adds all holomorphic derivatives up to the given order
(the order-zero term appears twice, following the definition literally).

Shell grids discretize the outer collar between the boundary and rho = eps
with dyadic bands in the level and Gauss-Legendre nodes inside each band, so
integrands with a power-of-rho profile are resolved band by band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import exterior
from .domain import pairing
from .homtype import BoundaryGrid
from .sphere import angular_mesh, surface_nodes

__all__ = [
    "HoloFunction",
    "ShellGrid",
    "CLFValue",
    "SingularKernelError",
    "build_shell_grid",
    "clf_kernel",
    "clf_reproduce",
    "leray_density",
    "pair_dbar_with_leray",
    "hardy_norm",
    "sobolev_norm",
    "multi_indices",
]

leray_density = exterior.leray_density


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
    max_order: int = 8

    def __call__(self, z):
        return self.eval(np.asarray(z, dtype=complex))

    def d(self, alpha, z):
        if self.deriv is None:
            raise ValueError(f"function {self.label!r} has no derivative data")
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) > self.max_order:
            raise ValueError(
                f"derivative order {sum(alpha)} exceeds available "
                f"{self.max_order} for {self.label!r}")
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


def pair_dbar_with_leray(domain, dbar, xi):
    """Scalar density g with (sum c_j dzbar_j) ^ omega = g d(mu) at xi.

    ``dbar`` holds the components d f / d zbar_j, shape (..., n); ``xi`` the
    matching points.  Evaluates the top-degree form on the standard real
    basis, whose Lebesgue volume element is 1.
    """
    xi = np.asarray(xi, dtype=complex)
    g = np.asarray(domain.grad(xi))
    a = np.asarray(domain.hess_mixed(xi))
    return exterior.volume_density(np.asarray(dbar, dtype=complex), g, a)


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
    """

    domain: object
    eps: float
    levels: np.ndarray     # (L,)
    w_t: np.ndarray        # (L,)
    nodes: np.ndarray      # (L, N, n)
    grad: np.ndarray       # (L, N, n)
    w_sigma: np.ndarray    # (L, N)
    w_mu: np.ndarray       # (L, N)
    resolution: tuple

    @property
    def size(self):
        return self.levels.size * self.nodes.shape[1]

    def flat(self):
        """Flattened (points, grads, weights, rho-levels) views."""
        L, N, n = self.nodes.shape
        lev = np.repeat(self.levels, N)
        return (self.nodes.reshape(L * N, n), self.grad.reshape(L * N, n),
                self.w_mu.reshape(L * N), lev)

    @property
    def volume(self):
        return float(self.w_mu.sum())


def build_shell_grid(domain, eps=None, resolution=4000, n_bands=10,
                     nodes_per_band=3, mesh=None):
    """Shell grid on 0 < rho <= eps (eps defaults to the validated width)."""
    eps = domain.eps_shell if eps is None else float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mesh is None:
        mesh = angular_mesh(resolution)
    xg, wg = np.polynomial.legendre.leggauss(int(nodes_per_band))
    levels = []
    weights = []
    for m in range(1, n_bands + 1):
        lo, hi = eps * 2.0 ** (-m), eps * 2.0 ** (-m + 1)
        levels.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * wg)
    levels = np.concatenate(levels)[::-1].copy()
    weights = np.concatenate(weights)[::-1].copy()

    all_nodes, all_grad, all_wsig, all_wmu = [], [], [], []
    for t, wt in zip(levels, weights):
        nodes, w_sigma, g = surface_nodes(domain, mesh, t)
        grad_norm = 2.0 * np.linalg.norm(g, axis=-1)
        all_nodes.append(nodes)
        all_grad.append(g)
        all_wsig.append(w_sigma)
        all_wmu.append(wt * w_sigma / grad_norm)
    return ShellGrid(domain=domain, eps=eps, levels=levels, w_t=weights,
                     nodes=np.array(all_nodes), grad=np.array(all_grad),
                     w_sigma=np.array(all_wsig), w_mu=np.array(all_wmu),
                     resolution=mesh.resolution + (n_bands, nodes_per_band))


# ---------------------------------------------------------------------------
# Hardy and Hardy-Sobolev norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardyNorm:
    value: float
    levels: tuple
    level_values: tuple
    trend: str          # "converging" | "diverging" | "flat"

    def __float__(self):
        return self.value


def hardy_norm(domain, f, p, t_levels=None, resolution=3000, n_levels=6):
    """sup over inner levels of the L^p norm on rho = t.

    The sup is discretized on the geometric ladder t = -eps 2^-m and reported
    as the maximum together with a trend flag comparing the innermost levels.
    """
    if not p > 1:
        raise ValueError("p must exceed 1")
    if t_levels is None:
        t_levels = [-domain.eps_shell * 2.0 ** (-m) for m in range(n_levels)]
    t_levels = sorted(float(t) for t in t_levels)   # most negative first
    if any(t >= 0 or t < -domain.eps_shell for t in t_levels):
        raise ValueError("levels must lie in (-eps, 0)")
    mesh = angular_mesh(resolution)
    vals = []
    for t in t_levels:
        nodes, w_sigma, _ = surface_nodes(domain, mesh, t)
        fv = np.asarray(f(nodes))
        if not np.all(np.isfinite(fv)):
            vals.append(np.inf)
            continue
        vals.append(float(np.sum(np.abs(fv) ** p * w_sigma) ** (1.0 / p)))
    vals_arr = np.array(vals)
    value = float(vals_arr.max())
    trend = "flat"
    if np.all(np.isfinite(vals_arr)) and len(vals_arr) >= 3:
        r = vals_arr[-1] / max(vals_arr[-2], 1e-300)
        r2 = vals_arr[-2] / max(vals_arr[-3], 1e-300)
        if max(r, r2) <= 1.05:
            trend = "converging"
        elif min(r, r2) >= 1.25:
            trend = "diverging"
    elif not np.all(np.isfinite(vals_arr)):
        trend = "diverging"
    return HardyNorm(value=value, levels=tuple(t_levels),
                     level_values=tuple(vals), trend=trend)


@dataclass(frozen=True)
class SobolevNorm:
    value: float
    terms: dict
    trend: str

    def __float__(self):
        return self.value


def sobolev_norm(domain, f, p, l, t_levels=None, resolution=3000,
                 n_levels=6):
    """Hardy-Sobolev norm: hardy(f) + sum over |alpha| <= l of hardy(d^alpha f)."""
    if f.deriv is None and l > 0:
        raise ValueError("derivatives unavailable; cannot form Sobolev norm")
    terms = {}
    base = hardy_norm(domain, f, p, t_levels, resolution, n_levels)
    total = base.value
    worst = base.trend
    for alpha in multi_indices(domain.n, l):
        if sum(alpha) == 0:
            term = base
        else:
            df = lambda z, a=alpha: f.d(a, z)
            term = hardy_norm(domain, df, p, t_levels, resolution, n_levels)
        terms[alpha] = term
        total += term.value
        if term.trend == "diverging":
            worst = "diverging"
    return SobolevNorm(value=float(total), terms=terms, trend=worst)
