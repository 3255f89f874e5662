"""Pseudoanalytic continuations and their reconstruction identity.

A continuation extends a holomorphic function past the boundary as a C^1
function supported in the collar rho < eps whose dbar-defect reproduces the
function through the kernel-weighted shell integral.  Two constructions:

* symmetry: the Taylor jet of order m - 1 evaluated at the reflected point
  z* = 2 pr(z) - z, cut off in the collar.  Only the top-order jet terms
  survive in dbar (the lower ones telescope), so the defect decays like
  rho^(m-1) times the m-th derivatives at the reflection.
* global: a dyadic blend of a polynomial sequence, P on each shell
  2^-k < rho <= 2^-k+1 plus a cutoff ramp of the next difference; the defect
  is controlled by the scaled difference field lambda = |P_next - P_cur|/rho.

The reconstruction (verify_pac) integrates the paired volume density against
the kernel over a shell grid; with boundary frames oriented outward-first the
exterior Stokes identity carries a minus sign (see the orientation note in
the Leray density), which is folded in here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import pairing, row_blocks, sum_last, symmetric_point_dbar
from .exterior import volume_density
from .forms import ShellGrid, multi_indices
from . import koranyi

__all__ = [
    "Cutoff",
    "Continuation",
    "extend_by_symmetry",
    "extend_by_global",
    "verify_pac",
    "shell_defect",
    "dbar_region_mass",
    "sobolev_functional",
    "sobolev_verdict",
]


@dataclass(frozen=True)
class Cutoff:
    """Quintic smoothstep profile: 1 below a, 0 above b, C^2 in between."""

    a: float
    b: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)
        return 1.0 - (10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        s = np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)
        return -30.0 * s ** 2 * (1.0 - s) ** 2 / (self.b - self.a)


@dataclass
class Continuation:
    """Evaluator of the extension and its dbar-components on the collar."""

    # points (..., n) -> values; test oracle for dbar_eval by finite
    # differences (the reconstruction only needs dbar_blocks)
    f_eval: Callable
    dbar_eval: Callable            # points (M, n) -> (M, n) components
    # points (M, n) -> (sl, (B, n) components) over every row in order
    dbar_blocks: Callable
    support_height: float
    domain: object


def _on_collar(domain, core, eps, shape=(), floor=-np.inf):
    """Block stream and evaluator of core(z, rho) where floor < rho < eps.

    Returns ``(evaluate, blocks)``.  ``shape`` is the shape of one point's
    value: () for the extension, (n,) for its dbar components.
    ``blocks(z)`` takes points (M, n) and yields ``(sl, values)`` for
    consecutive row slices ``sl`` that cover every row in order, zero where
    a row is not live; ``evaluate(z)`` writes that stream into one output.
    ``core`` is called once with all live points and yields ``(sl,
    values)`` for consecutive row blocks ``sl`` of them; each is handed on
    as it comes, so only one block's temporaries are alive at once.  When
    every point is live, as on a collar shell, the core runs on the points
    themselves, with no copy of them, and its blocks are the stream's;
    otherwise the core's blocks are written into one zero array, which is
    the stream's only block.
    """
    def blocks(zz):
        rho = np.asarray(domain.rho(zz))
        mask = (rho < eps) & (rho > floor)
        if mask.all():
            yield from core(zz, rho)
            return
        out, live = np.zeros(rho.shape + shape, dtype=complex), \
            np.flatnonzero(mask)
        for sl, values in core(zz[live], rho[live]) if live.size else ():
            out[live[sl]] = values
        yield slice(0, rho.size), out

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        zz = z.reshape(-1, z.shape[-1])
        out = np.empty((zz.shape[0],) + shape, dtype=complex)
        for sl, values in blocks(zz):
            out[sl] = values
        return out[0] if z.ndim == 1 else out.reshape(z.shape[:-1] + shape)
    return evaluate, blocks


def _per_block(fn):
    """A collar core that applies fn(z, rho) to each row block on its own."""
    def core(z, rho):
        for sl in row_blocks(z.shape[0]):
            yield sl, fn(z[sl], rho[sl])
    return core


def extend_by_symmetry(domain, f, m, eps=None):
    """Jet-of-order-(m-1) continuation evaluated at the reflected point.

    Requires derivative data of f up to order m.  The dbar field uses the
    telescoped closed form (only |alpha| = m - 1 jet terms survive against
    the dbar of the reflection, which comes in closed form from the
    projection's KKT system) plus the cutoff ramp term; each collar point is
    projected once.
    """
    eps = domain.eps_shell if eps is None else float(eps)
    if f.deriv is None:
        raise ValueError("symmetry continuation needs derivative data")
    if m < 1:
        raise ValueError("jet order m must be >= 1")
    chi = Cutoff(eps / 2.0, eps)
    jets = multi_indices(domain.n, m - 1)
    top = [a for a in jets if sum(a) == m - 1]

    def f0(z, zs):
        dz = z - zs
        out = np.zeros(z.shape[:-1], dtype=complex)
        for alpha in jets:
            mono = np.prod(dz ** np.array(alpha), axis=-1)
            out += (f.d(alpha, zs) * mono
                    / math.prod(map(math.factorial, alpha)))
        return out

    def f_core(zl, rho):
        for sl, zs, _ in symmetric_point_dbar(domain, zl):
            yield sl, f0(zl[sl], zs) * chi(rho[sl])

    def dbar_block(z, rho, zs, dstar):
        # dstar: (B, j, k)
        dz = z - zs
        # telescoped jet term: sum_k dbar_j z*_k sum_{|a|=m-1} f^(a+e_k)(z*)
        # (z - z*)^a / a!
        jet_term = np.zeros_like(z)
        for alpha in top:
            mono = np.prod(dz ** np.array(alpha), axis=-1) / \
                math.prod(map(math.factorial, alpha))
            for k in range(domain.n):
                ak = tuple(alpha[i] + (1 if i == k else 0)
                           for i in range(domain.n))
                jet_term[:, :] += (f.d(ak, zs) * mono)[:, None] * \
                    dstar[:, :, k]
        # cutoff ramp: f0 * chi'(rho) * dbar rho
        g = np.asarray(domain.grad(z))
        ramp = (f0(z, zs) * chi.deriv(rho))[:, None] * np.conj(g)
        return jet_term * chi(rho)[:, None] + ramp

    def dbar_core(zl, rho):
        # one reflection call for all live points (its radial Newton start
        # is batch-wide), then the jet, ramp and cutoff of each row block
        # as the reflection hands it over
        for sl, zs, dstar in symmetric_point_dbar(domain, zl):
            yield sl, dbar_block(zl[sl], rho[sl], zs, dstar)

    dbar_eval, dbar_blocks = _on_collar(domain, dbar_core, eps,
                                        shape=(domain.n,))
    return Continuation(f_eval=_on_collar(domain, f_core, eps)[0],
                        dbar_eval=dbar_eval, dbar_blocks=dbar_blocks,
                        support_height=eps, domain=domain)


def extend_by_global(domain, p_seq: Sequence, eps=None):
    """Dyadic blend of a polynomial sequence P_2, P_4, ..., P_{2^K}.

    On the shell 2^-k < rho <= 2^-k+1 the extension is
    P_k + chi(2^k rho) (P_{k+1} - P_k) with cutoff endpoints 5/4 and 7/4
    (adjacent shells agree at the interfaces); below the finest shell it is
    the last polynomial; an outer cutoff confines the support to rho < eps.
    """
    eps = domain.eps_shell if eps is None else float(eps)
    K = len(p_seq)
    if K < 2:
        raise ValueError("global continuation needs at least two polynomials")
    chi_blend = Cutoff(1.25, 1.75)
    chi_out = Cutoff(eps / 2.0, eps)

    def shell_index(rho):
        # shell k covers 2^-k < rho <= 2^-k+1, clipped to the available range
        with np.errstate(divide="ignore"):
            k = np.ceil(-np.log2(np.maximum(rho, 1e-300))).astype(int)
        return k

    def blend(z, rho):
        """Blended values and, per blended shell k, its selection and the
        difference P_{k+1} - P_k there."""
        z = np.atleast_2d(z)
        k = shell_index(rho)
        out = np.zeros(z.shape[:-1], dtype=complex)
        diffs = {}
        deep = k > K - 1
        if np.any(deep):
            out[deep] = p_seq[-1](z[deep])
        for kk in range(max(1, int(k.min())), K):
            sel = k == kk
            if not np.any(sel):
                continue
            cur = p_seq[kk - 1](z[sel])
            diff = p_seq[kk](z[sel]) - cur
            diffs[kk] = sel, diff
            out[sel] = cur + chi_blend(2.0 ** kk * rho[sel]) * diff
        shallow = k < 1
        if np.any(shallow):
            out[shallow] = p_seq[0](z[shallow])
        return out, diffs

    def dbar_core(zl, rl):
        g = np.conj(np.asarray(domain.grad(zl)))     # dbar rho components
        f0, diffs = blend(zl, rl)
        term = np.zeros(zl.shape[0], dtype=complex)
        for kk, (sel, diff) in diffs.items():
            term[sel] = (2.0 ** kk * chi_blend.deriv(2.0 ** kk * rl[sel])
                         * diff)
        return (term * chi_out(rl))[:, None] * g \
            + (f0 * chi_out.deriv(rl))[:, None] * g

    f_eval = _on_collar(
        domain, _per_block(lambda z, rho: blend(z, rho)[0] * chi_out(rho)),
        eps)[0]
    dbar_eval, dbar_blocks = _on_collar(domain, _per_block(dbar_core), eps,
                                        shape=(domain.n,), floor=0.0)
    return Continuation(f_eval=f_eval, dbar_eval=dbar_eval,
                        dbar_blocks=dbar_blocks, support_height=eps,
                        domain=domain)


# ---------------------------------------------------------------------------
# reconstruction and the Sobolev functional
# ---------------------------------------------------------------------------

def shell_defect(cont, shell: ShellGrid):
    """Stream of the shell's nodes, gradients and dbar-defect weights.

    Yields ``(pts, g, dw)`` for the consecutive row blocks of
    ``cont.dbar_blocks`` over the flattened shell, every node in order: the
    block's nodes, their gradients (``domain.grad``, elementwise, so bit
    for bit the ones the shell was built with) and the density of dbar f ^
    (Leray form) times d(mu) (:func:`hsconvex.exterior.volume_density`).
    On a symmetry continuation a block is projected, reflected and paired
    before the next one is projected, so no whole-collar dbar field,
    gradient or weight array is ever alive.  Each weight depends on its own
    row alone.
    """
    d = cont.domain
    pts = shell.nodes.reshape(-1, d.n)
    w_mu = shell.w_mu.reshape(-1)
    for sl, dbar in cont.dbar_blocks(pts):
        x = pts[sl]
        g = np.asarray(d.grad(x))
        yield x, g, volume_density(dbar, g, d.hess_mixed(x)) * w_mu[sl]


def pac_reconstruct(cont, shell: ShellGrid, z):
    """Value of the reconstruction integral at interior points z (batched).

    Quadrature of the paired volume density against the kernel over the
    shell; boundary frames are oriented outward-first, so the exterior
    Stokes identity carries a minus sign folded in here.

    Streamed end to end: each block of :func:`shell_defect` is contracted
    with the kernel, -sum dw den^(-n), as it comes (on a symmetry
    continuation, before the next block is projected), so the (B, m)
    kernel temporaries of only one block are alive at once.
    The rows are added one after another into a running total, which
    enters each block's accumulate along axis 0 as its first row.  That is
    the order numpy's axis-0 sum takes for m >= 2 points, so the value does
    not depend on the block sizes and, for m >= 2, equals the one-block sum
    bit for bit (numpy sums a single column pairwise instead).
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zz = np.atleast_2d(z)
    total = np.zeros(zz.shape[0], dtype=complex)
    prev = None
    for pts, g, dw in shell_defect(cont, shell):
        # the BLAS multiplies a lone row on another kernel, whose last bits
        # differ, so a one-row block takes its products from two rows, the
        # previous block's last row included
        two = g if len(g) > 1 or prev is None else np.concatenate([prev, g])
        den = pairing(g, pts)[:, None] - (two @ zz.T)[-len(g):]
        prev = g[-1:]
        # the ufunc, not the operator: numpy may multiply a large temporary
        # operand in place with the operands swapped, and for one point the
        # order decides the last bits, so the block size would too
        terms = np.multiply(dw[:, None], den ** (-cont.domain.n))
        total = np.cumsum(np.concatenate([total[None], terms]), axis=0)[-1]
    vals = -total
    return vals[0] if single else vals


def verify_pac(cont, shell: ShellGrid, z_set, f_true):
    """Per-point relative errors of the reconstruction against f_true."""
    z_set = np.atleast_2d(np.asarray(z_set, dtype=complex))
    rec = pac_reconstruct(cont, shell, z_set)
    truth = np.asarray(f_true(z_set))
    err = np.abs(rec - truth)
    rel = err / np.maximum(1.0, np.abs(truth))
    return {"values": rec, "truth": truth, "abs_err": err, "rel_err": rel,
            "max_rel_err": float(rel.max()), "n_nodes": shell.size}


def dbar_region_mass(cont, centers, l, eta, eps, resolution, rho_min=0.0,
                     rho_max=None):
    """Region integrals of |dbar f|^2 |rho|^(-2l) d(nu) at boundary points.

    The regions are the external approach regions at the rows of
    ``centers`` (m, n) with heights in [rho_min, rho_max); they are the
    inner integral of both the Sobolev functional and the b_k band masses
    of the maximal-function comparison.  All regions come from one bank
    (:func:`koranyi.sample_regions`, whose errors this raises) and one
    ``dbar_eval`` call on their concatenated points; returns one mass per
    centre.  Each mass equals the one-centre call's for a global
    continuation.  A symmetry continuation's dbar projects the whole batch
    with a batch-wide radial start: on the ball no row takes a radial step,
    so the masses equal the one-centre calls' there too; on a curved domain
    they may differ from per-centre calls in the last bits.
    """
    samples = koranyi.sample_regions(cont.domain, centers, "external", eta,
                                     eps, resolution, rho_min=rho_min,
                                     rho_max=rho_max)
    dbar = cont.dbar_eval(np.concatenate([s.points for s in samples]))
    mag2 = sum_last(np.abs(dbar) ** 2)
    ends = np.cumsum([s.size for s in samples])
    return np.array([koranyi.region_integrate(
        s, m2 * np.abs(s.rho) ** (-2.0 * l), weight="nu")
        for s, m2 in zip(samples, np.split(mag2, ends[:-1]))])


def sobolev_functional(cont, l, p, centers, eta=koranyi.DEFAULT_ETA,
                       eps=None, resolution=None):
    """Sobolev-characterization mass of a continuation.

    Integral over boundary centers of (region integral of
    |dbar f|^2 rho^(-2l) against d(nu))^(p/2).  ``centers`` is a boundary
    grid (its sigma-weights integrate the outer variable); the inner
    integrals are one :func:`dbar_region_mass` call.
    """
    eps = cont.support_height if eps is None else float(eps)
    inner = dbar_region_mass(cont, centers.nodes, l, eta, eps, resolution)
    total = 0.0
    for w, mass in zip(centers.w_sigma, inner.tolist()):
        total += w * max(mass, 0.0) ** (p / 2.0)
    return float(total)


def sobolev_verdict(values):
    """Finite/infinite/unknown from a refinement sequence of functionals.

    ``values`` are the functional at increasing resolution (deeper height
    ladders, finer sampling).  Stable sequences (last ratio <= 1.25) read
    finite; growing ones (>= 1.6) read infinite.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2 or not np.all(np.isfinite(v)) or np.any(v < 0):
        return "unknown"
    r = v[-1] / max(v[-2], 1e-300)
    if r <= 1.25:
        return "finite"
    if r >= 1.6:
        return "infinite"
    return "unknown"
