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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .domain import pairing
from .dzyadyk import KernelApproximant, T_QUANT_STEP, build_Kglob
from .forms import HoloFunction, ShellGrid, pair_dbar_with_leray
from .homtype import BoundaryGrid, maximal_function
from . import koranyi

__all__ = [
    "PolynomialCn",
    "SmoothnessReport",
    "project_direct",
    "project_via_continuation",
    "smoothness_sum",
    "smoothness_trajectory",
    "verdict_from_trajectory",
    "diagnose",
    "ab_fields",
    "check_bk_lemma",
    "taylor_sections",
]


@dataclass
class PolynomialCn:
    """Multivariate complex polynomial over a multi-index coefficient map."""

    coeffs: dict
    n: int = 2

    def __post_init__(self):
        self.coeffs = {tuple(int(i) for i in k): complex(v)
                       for k, v in self.coeffs.items() if v != 0}

    @property
    def degree(self):
        if not self.coeffs:
            return 0
        return max(sum(a) for a in self.coeffs)

    def _dense(self):
        d1 = max((a[0] for a in self.coeffs), default=0)
        d2 = max((a[1] for a in self.coeffs), default=0)
        c = np.zeros((d1 + 1, d2 + 1), dtype=complex)
        for a, v in self.coeffs.items():
            c[a[0], a[1]] = v
        return c

    def __call__(self, z):
        """Horner evaluation along z1 of rows Horner-evaluated along z2."""
        z = np.asarray(z, dtype=complex)
        if not self.coeffs:
            return np.zeros(z.shape[:-1], dtype=complex)
        c = self._dense()
        z1, z2 = z[..., 0], z[..., 1]
        rows = np.zeros(c.shape[0:1] + z2.shape, dtype=complex)
        for i in range(c.shape[0]):
            acc = np.zeros_like(z2)
            for j in range(c.shape[1] - 1, -1, -1):
                acc = acc * z2 + c[i, j]
            rows[i] = acc
        out = np.zeros_like(z1)
        for i in range(c.shape[0] - 1, -1, -1):
            out = out * z1 + rows[i]
        return out

    def naive_eval(self, z):
        """Plain monomial sum, the oracle for the Horner scheme."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for a, v in self.coeffs.items():
            out = out + v * z[..., 0] ** a[0] * z[..., 1] ** a[1]
        return out

    def __sub__(self, other):
        keys = set(self.coeffs) | set(other.coeffs)
        return PolynomialCn({k: self.coeffs.get(k, 0.0)
                             - other.coeffs.get(k, 0.0) for k in keys},
                            n=self.n)

    def __add__(self, other):
        keys = set(self.coeffs) | set(other.coeffs)
        return PolynomialCn({k: self.coeffs.get(k, 0.0)
                             + other.coeffs.get(k, 0.0) for k in keys},
                            n=self.n)

    def scale(self, c):
        return PolynomialCn({k: c * v for k, v in self.coeffs.items()},
                            n=self.n)

    def as_holo(self, label="poly"):
        def deriv(alpha, z):
            p = self
            for j, a in enumerate(alpha):
                for _ in range(a):
                    p = _d_poly(p, j)
            return p(z)
        return HoloFunction(eval=self.__call__, deriv=deriv,
                            validity=np.inf, label=label)


def _d_poly(p, j):
    out = {}
    for a, v in p.coeffs.items():
        if a[j] == 0:
            continue
        b = list(a)
        b[j] -= 1
        out[tuple(b)] = out.get(tuple(b), 0.0) + v * a[j]
    return PolynomialCn(out, n=p.n)


def taylor_sections(coeff_fn, degrees, n=2):
    """Polynomials from a coefficient function alpha -> complex, per degree."""
    from .forms import multi_indices
    out = []
    for d in degrees:
        coeffs = {}
        for a in multi_indices(n, d):
            c = coeff_fn(a)
            if c != 0:
                coeffs[a] = c
        out.append(PolynomialCn(coeffs, n=n))
    return out


# ---------------------------------------------------------------------------
# polynomial assembly from the kernel approximant
# ---------------------------------------------------------------------------

def _group_assemble(domain, kglob, nodes, g, weights_values):
    """Coefficients of sum_i w_i K_k(xi_i, z), grouped by quantized angle.

    ``weights_values`` combines quadrature weights with the paired data (the
    boundary values times Leray weights, or the volume density times volume
    weights with the orientation sign).  Coefficient of z^beta is
    D_m binom(m, beta) sum_i w_i g_i^beta / c_i^(n+m) with m = |beta| and D
    the lambda-coefficients of T^n.
    """
    n = domain.n
    c = pairing(g, nodes)
    t = kglob.t_of(c)
    tq = np.round(t / T_QUANT_STEP).astype(int)
    deg = kglob.j * n
    coeffs = {}
    for q in np.unique(tq):
        sel = tq == q
        T = kglob.approximant_for(q * T_QUANT_STEP)
        lam_c = T.lambda_coeffs()
        D = lam_c
        for _ in range(n - 1):
            D = np.convolve(D, lam_c)
        gs, cs, ws = g[sel], c[sel], weights_values[sel]
        # powers of the gradient components and of 1/c
        p1 = np.ones((deg + 1, gs.shape[0]), dtype=complex)
        p2 = np.ones((deg + 1, gs.shape[0]), dtype=complex)
        for m in range(1, deg + 1):
            p1[m] = p1[m - 1] * gs[:, 0]
            p2[m] = p2[m - 1] * gs[:, 1]
        base = ws / cs ** n
        for m in range(min(deg, D.size - 1) + 1):
            if D[m] == 0:
                continue
            wm = base / cs ** m
            for b1 in range(m + 1):
                b2 = m - b1
                mom = np.sum(wm * p1[b1] * p2[b2])
                key = (b1, b2)
                coeffs[key] = coeffs.get(key, 0.0) + \
                    D[m] * _binom(m, b1) * mom
    return PolynomialCn(coeffs, n=n)


def _binom(m, k):
    return float(math.comb(m, k))


def project_seq_reduced(domain, cont, k_list, r, eps=None, n_bands=10,
                        nodes_per_band=2, n_phi2=12, harm_cap=3,
                        moment_exact="half", tol=1e-7):
    """Polynomial sequence from a continuation on a pole-graded shell.

    The catalog domains are invariant under rotating the second coordinate's
    phase, and the corpus continuations concentrate their dbar-defect along
    the z_1 = 1 ray with only a few phase harmonics in that rotation; the
    moment integrals then reduce exactly to two-angle integrals on a mesh
    graded toward the singular direction (a uniform mesh cannot resolve the
    defect scale by scale).  Harmonic sparsity is verified numerically and a
    ValueError asks for the generic path when it fails.
    """
    from .sphere import graded_angular_mesh, surface_nodes

    eps = cont.support_height if eps is None else float(eps)
    alpha_floor = max(1e-3, 0.25 * np.sqrt(eps * 2.0 ** (-n_bands)))
    phi_floor = max(1e-5, 0.25 * eps * 2.0 ** (-n_bands))
    deg_hint = domain.n * int(np.ceil(2 ** max(k_list) / domain.n))
    mesh = graded_angular_mesh(n_phi2=n_phi2, alpha_floor=alpha_floor,
                               phi_floor=phi_floor, deg_hint=deg_hint)
    n2 = mesh.size // n_phi2

    xg, wg = np.polynomial.legendre.leggauss(int(nodes_per_band))
    levels, wts = [], []
    for m in range(1, n_bands + 1):
        lo, hi = eps * 2.0 ** (-m), eps * 2.0 ** (-m + 1)
        levels.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * wg)
    levels = np.concatenate(levels)
    wts = np.concatenate(wts)

    fw = []          # per level: fft over phi2 of dens * w_mu, (n2, n_phi2)
    g1s, G2s, cs = [], [], []
    worst_harm = 0.0
    for t, wt in zip(levels, wts):
        nodes, w_sigma, g = surface_nodes(domain, mesh, t)
        w_mu = wt * w_sigma / (2.0 * np.linalg.norm(g, axis=-1))
        dbar = cont.dbar_eval(nodes)
        dens = pair_dbar_with_leray(domain, dbar, nodes)
        F = np.fft.fft((dens * w_mu).reshape(n2, n_phi2), axis=1)
        mag = np.abs(F)
        hi_bins = mag[:, harm_cap + 1: n_phi2 - harm_cap]
        worst_harm = max(worst_harm,
                         float(hi_bins.max() / max(mag.max(), 1e-300)))
        fw.append(F)
        q0 = slice(0, None, n_phi2)
        g0 = g[q0]
        g1s.append(g0[:, 0])
        G2s.append(g0[:, 1])        # phi2 = 0 column carries the modulus
        cs.append(pairing(g0, nodes[q0]))
    if worst_harm > tol:
        raise ValueError(
            f"density has phase harmonics beyond {harm_cap} "
            f"(relative size {worst_harm:.1e}); use the generic projector")

    g1s = np.array(g1s)                       # (L, n2)
    G2s = np.array(G2s)
    cs = np.array(cs)
    FW = np.stack([F[:, : harm_cap + 1] for F in fw])   # (L, n2, cap+1)
    t_ang = 0.5 * np.pi - np.angle(cs)
    tq = np.round(t_ang / T_QUANT_STEP).astype(int)

    out = []
    for k in k_list:
        kglob = build_Kglob(domain, 2 ** k, r=r, eps=eps,
                            moment_exact=moment_exact, banded=True)
        bands = np.broadcast_to(kglob.band_of(levels)[:, None], tq.shape)
        deg = kglob.j * domain.n
        coeffs = {}
        for q in np.unique(tq):
            for b in np.unique(bands):
                sel = (tq == q) & (bands == b)
                if not np.any(sel):
                    continue
                T = kglob.approximant_for(q * T_QUANT_STEP, int(b))
                lam_c = T.lambda_coeffs()
                D = lam_c
                for _ in range(domain.n - 1):
                    D = np.convolve(D, lam_c)
                csel = cs[sel]
                g1sel = g1s[sel]
                G2sel = G2s[sel]
                FWsel = FW[sel]                # (M, cap+1)
                p1 = np.ones((deg + 1,) + csel.shape, dtype=complex)
                for mm in range(1, deg + 1):
                    p1[mm] = p1[mm - 1] * g1sel
                base = -1.0 / csel ** domain.n   # reconstruction orientation
                G2pow = np.ones((harm_cap + 1,) + csel.shape, dtype=complex)
                for b2 in range(1, harm_cap + 1):
                    G2pow[b2] = G2pow[b2 - 1] * G2sel
                for mm in range(min(deg, D.size - 1) + 1):
                    if D[mm] == 0:
                        continue
                    wm = base / csel ** mm
                    for b2 in range(min(mm, harm_cap) + 1):
                        b1 = mm - b2
                        mom = np.sum(wm * p1[b1] * G2pow[b2] * FWsel[:, b2])
                        key = (b1, b2)
                        coeffs[key] = coeffs.get(key, 0.0) + \
                            D[mm] * _binom(mm, b1) * mom
        out.append(PolynomialCn(coeffs, n=domain.n))
    return out


def project_direct_reduced(domain, f, k_list, r, eps=None, harm_cap=3,
                           moment_exact="half", tol=1e-7, t_off_scale=1.0):
    """Offset-surface projections on pole-graded meshes, one level per k.

    Same phase-harmonic reduction as :func:`project_seq_reduced`; the offset
    t_off = 2^-k eps shrinks with the degree, and the mesh grading follows
    the offset scale so the near-singular boundary profile is resolved.
    Boundary-singular corpus functions are admitted: the integral is
    absolutely convergent and the slit correction inside the offset surface
    is O(t_off^(1+s)), below the approximation budget.
    """
    from .sphere import graded_angular_mesh, surface_nodes

    eps = domain.eps_shell if eps is None else float(eps)
    out = []
    for k in k_list:
        t_off = t_off_scale * 2.0 ** (-k) * eps
        alpha_floor = max(5e-4, 0.2 * np.sqrt(t_off))
        phi_floor = max(5e-6, 0.2 * t_off)
        n_phi2 = 12
        deg_hint = domain.n * int(np.ceil(2 ** k / domain.n))
        mesh = graded_angular_mesh(n_phi2=n_phi2, alpha_floor=alpha_floor,
                                   phi_floor=phi_floor, deg_hint=deg_hint)
        n2 = mesh.size // n_phi2
        nodes, w_sigma, g = surface_nodes(domain, mesh, t_off)
        from .exterior import grid_leray_density
        dens = grid_leray_density(domain, nodes, g)
        vals = np.asarray(f(nodes))
        F = np.fft.fft((vals * dens * w_sigma).reshape(n2, n_phi2), axis=1)
        mag = np.abs(F)
        hi_bins = mag[:, harm_cap + 1: n_phi2 - harm_cap]
        if hi_bins.max() > tol * max(mag.max(), 1e-300):
            raise ValueError("boundary data has phase harmonics beyond "
                             f"{harm_cap}; use the generic projector")
        q0 = slice(0, None, n_phi2)
        g0 = g[q0]
        cs = pairing(g0, nodes[q0])
        g1s, G2s = g0[:, 0], g0[:, 1]
        FW = F[:, : harm_cap + 1]
        tq = np.round((0.5 * np.pi - np.angle(cs)) / T_QUANT_STEP).astype(int)

        kglob = build_Kglob(domain, 2 ** k, r=r, eps=eps,
                            moment_exact=moment_exact)
        deg = kglob.j * domain.n
        coeffs = {}
        for qv in np.unique(tq):
            sel = tq == qv
            T = kglob.approximant_for(qv * T_QUANT_STEP)
            lam_c = T.lambda_coeffs()
            D = lam_c
            for _ in range(domain.n - 1):
                D = np.convolve(D, lam_c)
            csel, g1sel, G2sel, FWsel = cs[sel], g1s[sel], G2s[sel], FW[sel]
            p1 = np.ones((deg + 1,) + csel.shape, dtype=complex)
            for mm in range(1, deg + 1):
                p1[mm] = p1[mm - 1] * g1sel
            base = 1.0 / csel ** domain.n
            G2pow = np.ones((harm_cap + 1,) + csel.shape, dtype=complex)
            for b2 in range(1, harm_cap + 1):
                G2pow[b2] = G2pow[b2 - 1] * G2sel
            for mm in range(min(deg, D.size - 1) + 1):
                if D[mm] == 0:
                    continue
                wm = base / csel ** mm
                for b2 in range(min(mm, harm_cap) + 1):
                    b1 = mm - b2
                    mom = np.sum(wm * p1[b1] * G2pow[b2] * FWsel[:, b2])
                    key = (b1, b2)
                    coeffs[key] = coeffs.get(key, 0.0) + \
                        D[mm] * _binom(mm, b1) * mom
        out.append(PolynomialCn(coeffs, n=domain.n))
    return out


def projection_resolution(degree):
    """Angle counts that resolve z-monomials up to the given total degree.

    The trapezoid rules alias azimuthal orders at the point count, and the
    Gauss-Legendre rule in the polar angle integrates trigonometric degree
    2 n_a - 1, so both scale linearly with the degree.
    """
    nphi = int(degree) + 14
    return (max(8, (int(degree) + 14) // 2), nphi, nphi)


def project_direct(domain, f, k, t_off=None, r=None, resolution=None,
                   kglob=None):
    """Degree-2^k polynomial from boundary values on an offset level surface.

    P(z) = integral over rho = t_off of f(xi) K_k(xi, z) dS(xi); requires f
    holomorphic across the offset surface (t_off below f's validity level).
    """
    from .homtype import build_boundary_grid

    eps = domain.eps_shell
    if t_off is None:
        t_off = min(2.0 ** (-k) * eps, eps)
    if not f.validity > t_off:
        raise ValueError(
            f"{f.label!r} is not holomorphic across the offset surface "
            f"t={t_off:.3g}; lower t_off (validity {f.validity:.3g})")
    if kglob is None:
        r = 2.0 if r is None else float(r)
        kglob = build_Kglob(domain, 2 ** k, r=r, eps=eps,
                            moment_exact="half")
    if resolution is None:
        resolution = projection_resolution(2 ** k)
    grid = build_boundary_grid(domain, t_off, resolution)
    vals = np.asarray(f(grid.nodes))
    return _group_assemble(domain, kglob, grid.nodes, grid.grad,
                           vals * grid.w_S)


def project_via_continuation(domain, cont, shell: ShellGrid, k, r=None,
                             kglob=None):
    """Degree-2^k polynomial from the dbar-defect of a continuation.

    P(z) = reconstruction integral with the kernel replaced by its
    polynomial approximant; carries the same orientation sign as the
    reconstruction.
    """
    if kglob is None:
        r = 2.0 if r is None else float(r)
        kglob = build_Kglob(domain, 2 ** k, r=r, eps=cont.support_height,
                            moment_exact="half")
    pts, g, w_mu, _ = shell.flat()
    dbar = cont.dbar_eval(pts)
    dens = pair_dbar_with_leray(domain, dbar, pts)
    return _group_assemble(domain, kglob, pts, g, -dens * w_mu)


# ---------------------------------------------------------------------------
# the smoothness functional
# ---------------------------------------------------------------------------

def smoothness_trajectory(grid: BoundaryGrid, e_fields, l, p):
    """Partial sums over K of the characterization integral, one per level."""
    if len(e_fields) < 3:
        raise ValueError("need at least 3 levels")
    ks = sorted(e_fields)
    acc = np.zeros(grid.size)
    out = []
    for k in ks:
        acc = acc + np.abs(e_fields[k]) ** 2 * 4.0 ** (l * k)
        out.append(float(np.sum(acc ** (p / 2.0) * grid.w_sigma)))
    return ks, np.array(out)


def smoothness_sum(grid: BoundaryGrid, e_fields, l, p):
    """The finite-K partial sum of the characterization integral."""
    _, traj = smoothness_trajectory(grid, e_fields, l, p)
    return float(traj[-1])


def verdict_from_trajectory(traj, tail=3):
    """converging / diverging / inconclusive from the tail of partial sums.

    The tail ratio is the geometric-mean growth per level over the last
    ``tail`` partial sums; at desk scale the truncation caps K around 6, so
    mid ratios get the honest inconclusive band.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.size < tail + 1:
        return "inconclusive"
    if traj[-1] <= 1e-16:
        # partial sums at the numerical floor: exact approximation
        return "converging"
    r = (traj[-1] / max(traj[-tail], 1e-300)) ** (1.0 / (tail - 1))
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
    fields: dict
    slope: float
    slope_points: int
    partial_sums: dict          # l -> trajectory array
    verdicts: dict              # l -> verdict string
    meta: dict = field(default_factory=dict)

    def to_jsonable(self):
        return {
            "label": self.label,
            "k_list": list(self.k_list),
            "sup_errors": {str(k): float(v)
                           for k, v in self.sup_errors.items()},
            "lp_errors": {str(k): float(v) for k, v in self.lp_errors.items()},
            "slope": float(self.slope),
            "slope_points": int(self.slope_points),
            "partial_sums": {str(l): [float(x) for x in v]
                             for l, v in self.partial_sums.items()},
            "verdicts": dict(self.verdicts),
            "meta": {k: v for k, v in self.meta.items()
                     if isinstance(v, (str, int, float, bool, list))},
        }


def diagnose(domain, f, p=2.0, k_range=range(1, 7), l_probe=(1, 2, 3),
             grid=None, resolution=3000, shell=None, m_jet=4,
             proj_resolution=None, floor=1e-9, r=None):
    """Build the dyadic sequence, error fields, slope and verdicts for f.

    Entire functions project directly from an offset surface; functions that
    are only holomorphic up to the boundary go through the symmetry
    continuation.  The slope is fitted on levels above the numerical floor;
    polynomial-exact levels read as floor values and are excluded.
    """
    from .continuation import extend_by_symmetry
    from .homtype import build_boundary_grid
    from .sphere import graded_angular_mesh

    if grid is None:
        # evaluation grid graded toward the corpus singular direction, so
        # the error fields resolve the singular zone scale by scale
        mesh = graded_angular_mesh(n_phi2=12)
        grid = build_boundary_grid(domain, 0.0, mesh=mesh)
    k_list = sorted(int(k) for k in k_range)
    r = 2.0 * max(l_probe) if r is None else float(r)
    method = "direct" if f.validity > 0 else "offset"
    cont = None
    deg_max = 2 ** max(k_list)
    if proj_resolution is None:
        proj_resolution = projection_resolution(deg_max)
    f_vals = np.asarray(f(grid.nodes))
    fields, sups, lps = {}, {}, {}
    if method == "offset":
        # boundary-singular corpus entries: offset projection with the slit
        # correction O(t_off^(1+s)) below budget, on pole-graded meshes
        p_seq = project_direct_reduced(domain, f, k_list, r=r)
        pks = dict(zip(k_list, p_seq))
    for k in k_list:
        if method == "direct":
            kglob = build_Kglob(domain, 2 ** k, r=r, eps=domain.eps_shell,
                                moment_exact="half")
            pk = project_direct(domain, f, k, resolution=proj_resolution,
                                kglob=kglob)
        else:
            pk = pks[k]
        e = np.abs(f_vals - pk(grid.nodes))
        fields[k] = e
        sups[k] = float(e.max())
        lps[k] = float(np.sum(e ** p * grid.w_sigma) ** (1.0 / p))

    usable = [k for k in k_list if sups[k] > floor]
    if sups[k_list[-1]] <= floor or len(usable) < 2:
        # eventually-exact approximation: the error field sits on the
        # quadrature floor, so the decay rank is below every finite slope
        slope = -np.inf
    else:
        slope = float(np.polyfit(usable,
                                 [np.log2(sups[k]) for k in usable], 1)[0])
    partial, verdicts = {}, {}
    for l in l_probe:
        _, traj = smoothness_trajectory(grid, fields, l, p)
        partial[l] = traj
        verdicts[l] = verdict_from_trajectory(traj)
    return SmoothnessReport(
        label=f.label, k_list=k_list, sup_errors=sups, lp_errors=lps,
        fields=fields, slope=slope, slope_points=len(usable),
        partial_sums=partial, verdicts=verdicts,
        meta={"method": method, "p": p, "r": r, "m_jet": m_jet,
              "grid_size": grid.size})


# ---------------------------------------------------------------------------
# the a_k / b_k fields and the maximal-function comparison
# ---------------------------------------------------------------------------

def ab_fields(grid: BoundaryGrid, p_seq: Sequence[PolynomialCn], cont, l,
              center_idx, eta=koranyi.DEFAULT_ETA, eps=None, resolution=None,
              k_range=None):
    """Difference fields a_k on the grid and band masses b_k at centers.

    a_k = |P_{k+1} - P_k| 2^(k l) per node; b_k is the square root of the
    region integral of |dbar f|^2 rho^(-2l) d(nu) over the dyadic band
    2^-k <= rho < 2^-k+1 of the external region at each center.  (The
    weight's sign: b_k scales like the difference times 2^(k l), and the
    maximal-function comparison needs both sides on the same scale; the
    characterization sum also carries 2^(+2lk).)
    """
    domain = grid.domain
    eps = cont.support_height if eps is None else float(eps)
    K = len(p_seq)
    ks = list(k_range) if k_range is not None else list(range(1, K))
    a_fields = {}
    for k in ks:
        diff = p_seq[k](grid.nodes) - p_seq[k - 1](grid.nodes)
        a_fields[k] = np.abs(diff) * 2.0 ** (k * l)
    b_fields = {k: np.zeros(len(center_idx)) for k in ks}
    for ci, idx in enumerate(center_idx):
        z = grid.nodes[idx]
        for k in ks:
            lo, hi = 2.0 ** (-k), 2.0 ** (-k + 1)
            if lo >= eps:
                continue
            try:
                sample = koranyi.sample_region(
                    domain, z, "external", eta, eps, resolution,
                    rho_min=lo, rho_max=min(hi, eps))
            except ValueError:
                continue
            dbar = cont.dbar_eval(sample.points)
            mag2 = np.sum(np.abs(dbar) ** 2, axis=-1)
            val = koranyi.region_integrate(
                sample, mag2 * np.abs(sample.rho) ** (-2.0 * l), weight="nu")
            b_fields[k][ci] = np.sqrt(max(val, 0.0))
    return a_fields, b_fields


def check_bk_lemma(grid: BoundaryGrid, a_fields, b_fields, center_idx,
                   delta=1e-12, n_levels=12, exclude_k=()):
    """99th-percentile ratios b_k / (M a_k) per level and their spread.

    ``exclude_k`` drops levels from the spread statistic (the band holding
    the outer cutoff ramp compares construction scaffolding, not the blend);
    their rows still appear in the report.  Levels whose difference field
    sits at the numerical floor are excluded automatically.
    """
    report = {"per_k": {}, "ks": sorted(a_fields)}
    pcts = []
    for k in sorted(a_fields):
        ma = maximal_function(grid, a_fields[k], n_levels=n_levels,
                              at=center_idx)
        ratios = b_fields[k] / (ma + delta)
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
