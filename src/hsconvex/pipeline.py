"""Dyadic polynomial approximation and the smoothness diagnostic.

The constructive characterization: a holomorphic function lies in the order-l
Hardy-Sobolev space iff some sequence of degree-2^k polynomials P makes

    integral over the boundary of (sum_k |f - P_k|^2 4^(l k))^(p/2)

finite.  Polynomials are built from the kernel approximant, either by pairing
with boundary values on an offset level surface (entire functions) or by
pairing the dbar-defect of a pseudoanalytic continuation over the collar
(boundary-singular functions).  Coefficients are assembled monomial by
monomial: the kernel approximant is a polynomial in the gradient pairing, so
each z-monomial coefficient is one weighted node sum.

The diagnostic computes per-level error fields, fits the decay slope, forms
the partial sums of the characterization for probe orders l, and issues
converging/diverging verdicts from tail ratios (honest about truncation:
mid ratios read inconclusive).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .continuation import dbar_region_mass, shell_defect
from .domain import pairing, radial_level, row_blocks
from .dzyadyk import build_Kglob
from .exterior import grid_leray_density
from .forms import ShellGrid, multi_indices
from .homtype import BoundaryGrid, build_boundary_grid, maximal_function
from .sphere import graded_angular_mesh, surface_block
from . import koranyi

__all__ = [
    "PolynomialCn",
    "SmoothnessReport",
    "project_direct",
    "project_via_continuation",
    "smoothness_trajectory",
    "verdict_from_trajectory",
    "diagnose",
    "ab_fields",
    "check_bk_lemma",
    "taylor_sections",
]


# nodes per block of the Horner evaluation: the block's z1, z2, row and
# output vectors (64 KiB each) stay in cache across the coefficient loop
_HORNER_BLOCK = 4096


@dataclass
class PolynomialCn:
    """Complex polynomial in (z1, z2) over a multi-index coefficient map."""

    coeffs: dict

    def __post_init__(self):
        coeffs = {}
        for k, v in self.coeffs.items():
            key = k if isinstance(k, tuple) else (k,)
            if len(key) != 2 or not all(
                    isinstance(i, (int, np.integer)) and i >= 0
                    for i in key):
                raise ValueError(f"multi-index {k!r} is not two "
                                 "non-negative integers")
            if v != 0:
                coeffs[(int(key[0]), int(key[1]))] = complex(v)
        self.coeffs = coeffs

    def _dense(self):
        d1 = max((a[0] for a in self.coeffs), default=0)
        d2 = max((a[1] for a in self.coeffs), default=0)
        c = np.zeros((d1 + 1, d2 + 1), dtype=complex)
        for a, v in self.coeffs.items():
            c[a[0], a[1]] = v
        return c

    def __call__(self, z):
        """Horner evaluation along z1 of rows Horner-evaluated along z2.

        Each row's Horner starts at its highest nonzero coefficient (a
        degree-d projection fills only the triangle b1 + b2 <= d) and is
        folded into the z1 accumulator as soon as it is computed; nodes go
        through in blocks of ``_HORNER_BLOCK``.  The arithmetic and its order
        are those of the full-rectangle scheme, so values agree bit for bit.
        """
        z = np.asarray(z, dtype=complex)
        if z.shape[-1:] != (2,):
            raise ValueError(f"points must have shape (..., 2), not "
                             f"{z.shape}")
        shape = z.shape[:-1]
        zf = z.reshape(-1, 2)
        out = np.zeros(zf.shape[0], dtype=complex)
        if not self.coeffs:
            return out.reshape(shape)
        c = self._dense()
        tops = [-1] * c.shape[0]          # highest z2-power of each row
        for a1, a2 in self.coeffs:
            tops[a1] = max(tops[a1], a2)
        size = min(_HORNER_BLOCK, zf.shape[0])
        z1 = np.empty(size, dtype=complex)
        z2 = np.empty(size, dtype=complex)
        row = np.empty(size, dtype=complex)
        prod = np.empty(size, dtype=complex)
        for sl in row_blocks(zf.shape[0], _HORNER_BLOCK):
            m = sl.stop - sl.start
            b1, b2, r, t = z1[:m], z2[:m], row[:m], prod[:m]
            o = out[sl]
            b1[:] = zf[sl, 0]
            b2[:] = zf[sl, 1]
            # every product goes to the separate buffer t: numpy multiplies
            # a single complex element in place on another path, whose last
            # bit can differ, so a point evaluated alone would not match
            # the same point in a batch
            for i in range(c.shape[0] - 1, -1, -1):
                if tops[i] >= 0:
                    r.fill(c[i, tops[i]])
                    for j in range(tops[i] - 1, -1, -1):
                        np.multiply(r, b2, out=t)
                        np.add(t, c[i, j], out=r)
                np.multiply(o, b1, out=t)
                if tops[i] < 0:
                    o[:] = t
                else:
                    np.add(t, r, out=o)
        return out.reshape(shape)

    def naive_eval(self, z):
        """Plain monomial sum.  Test oracle for the Horner scheme."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for a, v in self.coeffs.items():
            out = out + v * z[..., 0] ** a[0] * z[..., 1] ** a[1]
        return out


def taylor_sections(coeff_fn, degrees):
    """Polynomials in C^2 from a coefficient function alpha -> complex."""
    out = []
    for d in degrees:
        coeffs = {}
        for a in multi_indices(2, d):
            c = coeff_fn(a)
            if c != 0:
                coeffs[a] = c
        out.append(PolynomialCn(coeffs))
    return out


# ---------------------------------------------------------------------------
# polynomial assembly from the kernel approximant
# ---------------------------------------------------------------------------

# nodes per leaf of the moment sums (at least numpy's own 64-element block):
# a leaf's power tables and term blocks take about 1 MiB at degree 32
_MOMENT_LEAF = 2048


def _pairwise_tree(leaf_sums, lo, hi, leaf=_MOMENT_LEAF, unit=4):
    """Sum over rows lo..hi-1 along numpy's pairwise-summation tree.

    ``np.sum`` of a contiguous vector of more than 128 floats adds the sums
    of two halves, the left one the largest multiple of 8 floats not above
    half: of ``unit`` = 4 elements for complex128, 8 for float64.  A
    subtree's sum is then ``np.sum`` of its own rows.  The tree is walked
    down to subtrees of at most ``leaf`` rows (at least numpy's 128-float
    block: 64 complex or 128 float rows), ``leaf_sums(slice)`` gives each
    one's sums (an array, one per quantity) and they are added back up the
    same tree, so each quantity is bit for bit ``np.sum`` over all its rows.
    """
    if hi - lo <= leaf:
        return leaf_sums(slice(lo, hi))
    half = (hi - lo) // 2
    half -= half % unit
    return (_pairwise_tree(leaf_sums, lo, lo + half, leaf, unit)
            + _pairwise_tree(leaf_sums, lo + half, hi, leaf, unit))


def _assemble(domain, kglob, c, g, w, harm=None):
    """Coefficients of sum_i w_i K_k(xi_i, z), grouped by quantized angle.

    ``c`` and ``g`` are the self-pairings and gradients (one row per node) of
    the source points; ``w`` combines quadrature weights with the paired data
    (the boundary values times Leray weights, or the volume density times
    volume weights with the orientation sign).  Coefficient of z^beta is
    D_m binom(m, beta) sum_i w_i g_i^beta / c_i^(n+m) with m = |beta| and D
    the lambda-coefficients of T^n.

    On the pole-graded meshes the nodes are the phi_2 = 0 column and ``harm``
    (N, cap+1) holds the phase harmonics of the data over each node's
    phi_2-rotation orbit: the orbit sum of the z^beta moment is the column
    moment times harm[:, beta_2], and beta_2 stops at cap.

    Each group's node sums run over the leaves of numpy's summation tree
    (:func:`_pairwise_tree`): a leaf builds the powers of both gradient
    components and, per degree m, the (m+1, L) block of its terms, reduced
    along the nodes, so no power table spans the group.  Every term and
    every sum is the one a whole-group ``np.sum`` computes.  On the ball's
    degree-32 direct grid (48,668 nodes) a call peaks at 4.2 MiB under
    tracemalloc, against 32.4 MiB with a whole-group power table.
    """
    n = domain.n
    deg = kglob.j * n
    top2 = deg if harm is None else harm.shape[1] - 1
    coeffs = {}
    for sel, T in kglob.groups(c):
        lam_c = T.lambda_coeffs()
        D = lam_c
        for _ in range(n - 1):
            D = np.convolve(D, lam_c)
        ms = [m for m in range(min(deg, D.size - 1) + 1) if D[m] != 0]
        if not ms:
            continue
        rows_of = np.flatnonzero(sel)
        top = min(ms[-1], top2)

        def leaf_sums(sl):
            idx = rows_of[sl]
            gl = g[idx]
            p1 = np.ones((ms[-1] + 1, idx.size), dtype=complex)
            for m in range(1, ms[-1] + 1):
                p1[m] = p1[m - 1] * gl[:, 0]
            p2 = np.ones((top + 1, idx.size), dtype=complex)
            for b2 in range(1, top + 1):
                p2[b2] = p2[b2 - 1] * gl[:, 1]
            cl = c[idx]
            base = w[idx] / cl ** n
            ht = None if harm is None else harm[idx].T
            out = []
            for m in ms:
                rows = min(m, top2) + 1
                # row b2 holds the terms of z^(m - b2, b2)
                term = base / cl ** m * p1[m::-1][:rows] * p2[:rows]
                if ht is not None:
                    term = term * ht[:rows]
                out.append(np.sum(term, axis=1))
            return np.concatenate(out)

        mom = iter(_pairwise_tree(leaf_sums, 0, rows_of.size))
        for m in ms:
            for b2 in range(min(m, top2) + 1):
                b1 = m - b2
                key = (b1, b2)
                coeffs[key] = coeffs.get(key, 0.0) + \
                    D[m] * float(math.comb(m, b1)) * next(mom)
    return PolynomialCn(coeffs)


# phase harmonics kept by the reduced projector, and the relative size of
# the dropped ones above which it refuses the data
_HARM_CAP = 3
_HARM_TOL = 1e-7


# phi_2-orbits per row block of the reduced projector's surface pass
_ORBIT_BLOCK = 512


def _reduced_weights(domain, f, t_off, mesh, n_phi2):
    """Data-times-Leray weights of a pole-graded mesh on rho = t_off.

    Returns the (N,) weights f * density * w_sigma of every node, and the
    self-pairings and gradients of the phi_2 = 0 column.  The radii come
    from one whole-mesh :func:`radial_level` call (its stop test is
    batch-wide); the rest runs over row blocks of whole phi_2-orbits
    (:func:`surface_block`), so one block's nodes, gradients and densities
    are alive at once.
    """
    r = radial_level(domain, mesh.dirs, t_off)
    n2 = mesh.size // n_phi2
    w = np.empty(mesh.size, dtype=complex)
    pair_col = np.empty(n2, dtype=complex)
    grad_col = np.empty((n2, domain.n), dtype=complex)
    rows = min(n_phi2 * _ORBIT_BLOCK, mesh.size)
    nodes_buf = np.empty((rows, domain.n), dtype=complex)
    g_buf = np.empty((rows, domain.n), dtype=complex)
    for sl in row_blocks(mesh.size, rows):
        nodes, g = nodes_buf[: sl.stop - sl.start], g_buf[: sl.stop - sl.start]
        w_sigma = surface_block(domain, mesh.dirs[sl], mesh.weights[sl],
                                r[sl], nodes, g)
        w[sl] = np.asarray(f(nodes)) * grid_leray_density(domain, nodes, g) \
            * w_sigma
        col = slice(sl.start // n_phi2, sl.stop // n_phi2)
        grad_col[col] = g[::n_phi2]
        pair_col[col] = pairing(g[::n_phi2], nodes[::n_phi2])
    return w, pair_col, grad_col


def project_direct_reduced(domain, f, k, r):
    """Degree-2^k polynomial from an offset surface on a pole-graded mesh.

    The catalog domains are invariant under rotating the second coordinate's
    phase, and the boundary-singular corpus data have only a few phase
    harmonics in that rotation; the moment integrals then reduce exactly to
    two-angle integrals on a mesh graded toward the singular direction (a
    uniform mesh cannot resolve the profile scale by scale).  Harmonic
    sparsity is verified numerically, and a ValueError names the phase
    harmonics past the cap when it fails.  The offset t_off = 2^-k eps
    shrinks with the degree, and the mesh grading follows the offset scale.
    Boundary-singular corpus functions are admitted: the integral is
    absolutely convergent and the slit correction inside the offset surface
    is O(t_off^(1+s)), below the approximation budget.

    The surface is streamed (:func:`_reduced_weights`): of the 154,224-node
    mesh at k = 5 only the weights and the phi_2 = 0 column's pairings and
    gradients outlive their row block, and the mesh is freed before the
    FFT, the harmonic check and the kernel fit run.
    """
    t_off = 2.0 ** (-k) * domain.eps_shell
    n_phi2 = 12
    mesh = graded_angular_mesh(
        n_phi2=n_phi2, alpha_floor=max(5e-4, 0.2 * np.sqrt(t_off)),
        phi_floor=max(5e-6, 0.2 * t_off),
        deg_hint=domain.n * int(np.ceil(2 ** k / domain.n)))
    w, pair_col, grad_col = _reduced_weights(domain, f, t_off, mesh, n_phi2)
    del mesh
    F = np.fft.fft(w.reshape(-1, n_phi2), axis=1)
    del w
    # the phase harmonic of each FFT bin: 0, 1, ..., then negative orders
    order = np.fft.fftfreq(n_phi2, 1.0 / n_phi2).astype(int)
    peak = np.abs(F).max(axis=0)
    bad = (np.abs(order) > _HARM_CAP) \
        & (peak > _HARM_TOL * max(peak.max(), 1e-300))
    if bad.any():
        raise ValueError(f"phase harmonics {order[bad]} beyond +-{_HARM_CAP}"
                         ": the offset projector needs harmonic-sparse data")
    kglob = build_Kglob(domain, 2 ** k, r=r, pinned=True)
    return _assemble(domain, kglob, pair_col, grad_col,
                     np.ones(pair_col.size), harm=F[:, : _HARM_CAP + 1])


def projection_resolution(degree):
    """Angle counts that resolve z-monomials up to the given total degree.

    The trapezoid rules alias azimuthal orders at the point count, and the
    Gauss-Legendre rule in the polar angle integrates trigonometric degree
    2 n_a - 1, so both scale linearly with the degree.
    """
    nphi = int(degree) + 14
    return (max(8, (int(degree) + 14) // 2), nphi, nphi)


def project_direct(domain, f, k, resolution, r=None):
    """Degree-2^k polynomial from boundary values on an offset level surface.

    P(z) = integral over rho = t_off of f(xi) K_k(xi, z) dS(xi); requires f
    holomorphic across the offset surface (t_off below f's validity level).
    ``resolution`` sets the offset surface's grid
    (:func:`build_boundary_grid`); :func:`diagnose` passes its top level's
    :func:`projection_resolution`.
    """
    eps = domain.eps_shell
    t_off = min(2.0 ** (-k) * eps, eps)
    if not f.validity > t_off:
        raise ValueError(
            f"{f.label!r} is not holomorphic across the offset surface "
            f"t={t_off:.3g}; lower t_off (validity {f.validity:.3g})")
    r = 2.0 if r is None else float(r)
    kglob = build_Kglob(domain, 2 ** k, r=r, pinned=True)
    grid = build_boundary_grid(domain, t_off, resolution)
    vals = np.asarray(f(grid.nodes))
    return _assemble(domain, kglob, grid.pair_self, grid.grad,
                     vals * grid.w_S)


def project_via_continuation(domain, cont, shell: ShellGrid, k, r=None):
    """Degree-2^k polynomial from the dbar-defect of a continuation.

    P(z) = reconstruction integral with the kernel replaced by its
    polynomial approximant; carries the same orientation sign as the
    reconstruction.  Test oracle for :func:`project_direct` (the two
    constructions of the dual polynomial agree within their budgets).
    """
    r = 2.0 if r is None else float(r)
    kglob = build_Kglob(domain, 2 ** k, r=r, pinned=True)
    pts, g, dw = (np.concatenate(a) for a in zip(*shell_defect(cont, shell)))
    return _assemble(domain, kglob, pairing(g, pts), g, -dw)


# ---------------------------------------------------------------------------
# the smoothness functional
# ---------------------------------------------------------------------------

def smoothness_trajectory(w_sigma, e_fields, l, p):
    """Partial sums over K of the characterization integral, one per level.

    ``e_fields`` maps each level k to its error field on the boundary nodes
    whose surface-measure weights are ``w_sigma``.  Test oracle for
    :func:`diagnose`, which forms the same sums leaf by leaf in one sweep
    over its evaluation mesh (:func:`_sweep`).
    """
    ks = sorted(e_fields)
    acc = np.zeros(w_sigma.shape)
    out = []
    for k in ks:
        acc = acc + np.abs(e_fields[k]) ** 2 * 4.0 ** (l * k)
        out.append(float(np.sum(acc ** (p / 2.0) * w_sigma)))
    return ks, np.array(out)


# partial sums in the tail ratio of verdict_from_trajectory, and so the
# fewest levels a diagnosis takes (the CLI refuses fewer)
_TAIL = 3


def verdict_from_trajectory(traj):
    """converging / diverging / inconclusive from the tail of partial sums.

    The tail ratio is the geometric-mean growth per level over the last
    three partial sums; at desk scale the truncation caps K around 6, so
    mid ratios get the honest inconclusive band.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.size < _TAIL:
        return "inconclusive"
    if traj[-1] <= 1e-16:
        # partial sums at the numerical floor: exact approximation
        return "converging"
    r = (traj[-1] / max(traj[-_TAIL], 1e-300)) ** (1.0 / (_TAIL - 1))
    if r <= 1.1:
        return "converging"
    if r >= 1.5:
        return "diverging"
    return "inconclusive"


@dataclass
class SmoothnessReport:
    label: str
    k_list: list
    sup_errors: dict
    lp_errors: dict
    slope: float
    slope_points: int
    partial_sums: dict          # l -> trajectory array
    verdicts: dict              # l -> verdict string
    meta: dict = field(default_factory=dict)
    log: dict = field(default_factory=dict, compare=False)  # event log only


# rows per leaf of diagnose's evaluation sweep, at most: a leaf is then the
# whole mesh or at least 16,384 rows (8 leaves of 27,720 on the 221,760-node
# mesh).  That floor keeps f's bits: numpy reuses a complex temporary of
# 16,384 values (256 KiB) or more as the output of the next product, with
# the operands swapped, and the SIMD complex product does not round
# symmetrically, so z1^2 z2 on smaller blocks differs in last bits from the
# whole-mesh call
_SWEEP_LEAF = 32768


def _sweep(domain, f, polys, p, l_probe):
    """Sup errors, L^p sums and partial sums of f - P_k on the boundary.

    Builds the evaluation mesh, graded toward the corpus singular direction
    so the error fields resolve the singular zone scale by scale, and its
    radii in one whole-batch :func:`radial_level` call (the stop test is
    batch-wide).  Then sweeps the mesh once over the leaves of numpy's
    float64 summation tree (:func:`_pairwise_tree`): each leaf fills its
    nodes and surface weights (:func:`surface_block`, over row blocks),
    evaluates f and every P_k, and returns each level's sum of e^p w and
    each (l, k) partial sum of acc^(p/2) w, with acc the running sum over
    levels of e^2 4^(l k) (:func:`smoothness_trajectory`'s terms).  The
    leaf sums are added back up the same tree, so every sum is the
    whole-mesh ``np.sum`` bit for bit; the sup errors are maxima over the
    leaves, NaN kept.  Returns the sup errors, the L^p errors, the partial
    sums per order and the mesh and leaf sizes.
    """
    mesh = graded_angular_mesh(n_phi2=12)
    radii = radial_level(domain, mesh.dirs, 0.0)
    ks = sorted(polys)
    sups = np.full(len(ks), -np.inf)
    leaf_rows = []

    def leaf_sums(sl):
        m = sl.stop - sl.start
        nodes = np.empty((m, domain.n), dtype=complex)
        g = np.empty_like(nodes)
        w = np.empty(m)
        for b in row_blocks(m):
            rows = slice(sl.start + b.start, sl.start + b.stop)
            w[b] = surface_block(domain, mesh.dirs[rows], mesh.weights[rows],
                                 radii[rows], nodes[b], g[b])
        del g
        f_vals = np.asarray(f(nodes))
        acc = {l: np.zeros(m) for l in l_probe}
        lp_sums, part = [], {l: [] for l in l_probe}
        for i, k in enumerate(ks):
            e = np.abs(f_vals - polys[k](nodes))
            sups[i] = np.maximum(sups[i], e.max())     # NaN stays NaN
            lp_sums.append(np.sum(e ** p * w))
            for l in l_probe:
                acc[l] = acc[l] + e ** 2 * 4.0 ** (l * k)
                part[l].append(np.sum(acc[l] ** (p / 2.0) * w))
        leaf_rows.append(m)
        return np.array(lp_sums + [v for l in l_probe for v in part[l]])

    sums = _pairwise_tree(leaf_sums, 0, mesh.size, _SWEEP_LEAF, unit=8)
    lps = {k: float(sums[i] ** (1.0 / p)) for i, k in enumerate(ks)}
    partial = {l: sums[len(ks) * (j + 1): len(ks) * (j + 2)]
               for j, l in enumerate(l_probe)}
    return ({k: float(v) for k, v in zip(ks, sups)}, lps, partial,
            {"mesh_rows": mesh.size, "leaves": len(leaf_rows),
             "leaf_rows": leaf_rows})


def diagnose(domain, f, p=2.0, k_range=range(1, 7), l_probe=(1, 2, 3),
             r=None):
    """Build the dyadic sequence, error fields, slope and verdicts for f.

    Entire functions project directly from an offset surface; functions that
    are only holomorphic up to the boundary go through the offset projection
    on pole-graded meshes (:func:`project_direct_reduced`).  Every level is
    projected first; only then is the evaluation mesh built and swept once
    (:func:`_sweep`), so no evaluation array is alive while a projection
    runs.  The slope is fitted on levels above the numerical floor;
    polynomial-exact levels read as floor values and are excluded.

    The report's ``log`` holds the sweep's sizes and each phase's seconds,
    for the event log; it is not a result.
    """
    k_list = sorted(int(k) for k in k_range)
    r = 2.0 * max(l_probe) if r is None else float(r)
    method = "direct" if f.validity > 0 else "offset"
    proj_resolution = projection_resolution(2 ** max(k_list))
    polys, levels = {}, []
    for k in k_list:
        t0 = time.perf_counter()
        if method == "direct":
            polys[k] = project_direct(domain, f, k, proj_resolution, r=r)
        else:
            # boundary-singular corpus entries: offset projection with the
            # slit correction O(t_off^(1+s)) below budget, on pole-graded
            # meshes
            polys[k] = project_direct_reduced(domain, f, k, r=r)
        levels.append({"k": k, "method": method,
                       "projection_s": time.perf_counter() - t0})
    t0 = time.perf_counter()
    sups, lps, partial, log = _sweep(domain, f, polys, p, l_probe)
    log.update(levels=levels, sweep_s=time.perf_counter() - t0)

    floor = 1e-9        # sup errors at or below it sit on the quadrature floor
    usable = [k for k in k_list if sups[k] > floor]
    if sups[k_list[-1]] <= floor or len(usable) < 2:
        # eventually-exact approximation: the error field sits on the
        # quadrature floor, so the decay rank is below every finite slope
        slope = -np.inf
    else:
        slope = float(np.polyfit(usable,
                                 [np.log2(sups[k]) for k in usable], 1)[0])
    verdicts = {l: verdict_from_trajectory(partial[l]) for l in l_probe}
    return SmoothnessReport(
        label=f.label, k_list=k_list, sup_errors=sups, lp_errors=lps,
        slope=slope, slope_points=len(usable),
        partial_sums=partial, verdicts=verdicts,
        meta={"method": method, "p": p, "r": r, "m_jet": 4,
              "grid_size": log["mesh_rows"]},
        log=log)


# ---------------------------------------------------------------------------
# the a_k / b_k fields and the maximal-function comparison
# ---------------------------------------------------------------------------

def ab_fields(grid: BoundaryGrid, p_seq: Sequence[PolynomialCn], cont, l,
              center_idx, eta=koranyi.DEFAULT_ETA, eps=None, resolution=None):
    """Difference fields a_k on the grid and band masses b_k at centers.

    a_k = |P_{k+1} - P_k| 2^(k l) per node; b_k is the square root of the
    region integral of |dbar f|^2 rho^(-2l) d(nu) over the dyadic band
    2^-k <= rho < 2^-k+1 of the external region at each center.  (The
    weight's sign: b_k scales like the difference times 2^(k l), and the
    maximal-function comparison needs both sides on the same scale; the
    characterization sum also carries 2^(+2lk).)  Each band's masses at all
    centers are one :func:`dbar_region_mass` call.
    """
    eps = cont.support_height if eps is None else float(eps)
    ks = list(range(1, len(p_seq)))
    vals = [p(grid.nodes) for p in p_seq]
    a_fields = {k: np.abs(vals[k] - vals[k - 1]) * 2.0 ** (k * l) for k in ks}
    centers = grid.nodes[np.asarray(center_idx)]
    b_fields = {}
    for k in ks:
        lo, hi = 2.0 ** (-k), 2.0 ** (-k + 1)
        if lo >= eps:
            b_fields[k] = np.zeros(len(center_idx))
            continue
        val = dbar_region_mass(cont, centers, l, eta, eps, resolution,
                               rho_min=lo, rho_max=min(hi, eps))
        b_fields[k] = np.sqrt(np.maximum(val, 0.0))
    return a_fields, b_fields


def check_bk_lemma(grid: BoundaryGrid, a_fields, b_fields, center_idx,
                   exclude_k=()):
    """99th-percentile ratios b_k / (M a_k) per level and their spread.

    ``exclude_k`` drops levels from the spread statistic (the band holding
    the outer cutoff ramp compares construction scaffolding, not the blend);
    their rows still appear in the report.  Levels whose difference field
    sits at the numerical floor are excluded automatically.
    """
    report = {"per_k": {}, "ks": sorted(a_fields)}
    pcts = []
    for k in sorted(a_fields):
        ma = maximal_function(grid, a_fields[k], at=center_idx)
        ratios = b_fields[k] / (ma + 1e-12)    # finite where M a_k = 0
        pct = float(np.percentile(ratios, 99))
        floored = bool(a_fields[k].max() <= 1e-10)
        report["per_k"][k] = {"p99": pct, "max": float(ratios.max()),
                              "median": float(np.median(ratios)),
                              "floored": floored}
        if b_fields[k].max() > 0 and not floored and k not in exclude_k:
            pcts.append(pct)
    if pcts:
        report["spread"] = float(max(pcts) / max(min(pcts), 1e-300))
    return report
