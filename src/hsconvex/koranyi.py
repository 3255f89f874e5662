"""Approach regions and area integrals.

Around a boundary point the natural coordinates are one complex tangential
direction, the imaginary normal direction and the height above the boundary;
approach regions are parabolic in the tangential direction (width sqrt of the
height) and linear in the imaginary normal one.  The internal region collects
interior points whose boundary projection stays in a quasiball shrinking with
the depth; the external region is the product-shaped set from the normal
decomposition tau = w + t n(xi).

Region integrals carry Lebesgue weights from the measure-preserving frame
coordinates; singular weights (powers of the height) ride on a geometric
ladder of height cells so each dyadic band is resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import boundary_point_data, pairing, project_boundary
from .homtype import BoundaryGrid, qdist

__all__ = [
    "RegionSample",
    "sample_region",
    "region_integrate",
    "region_volume_profile",
    "area_internal",
    "area_Il",
    "check_area_inequality",
    "region_comparison_samples",
]


@dataclass(frozen=True)
class RegionSample:
    kind: str              # "internal" | "external"
    center: np.ndarray
    eta: float
    eps: float
    points: np.ndarray    # (M, n)
    rho: np.ndarray       # (M,)
    weights: np.ndarray   # (M,) Lebesgue volume weights
    meta: dict

    @property
    def size(self):
        return self.points.shape[0]


DEFAULT_ETA = 0.25


def _resolution_tuple(resolution):
    """(n_levels, per_level, n_r, n_theta, n_b) from a tuple or scale factor."""
    if resolution is None:
        return (12, 3, 8, 8, 8)
    if np.isscalar(resolution):
        s = float(resolution)
        return (12, max(2, round(3 * s)), max(4, round(8 * s)),
                max(6, round(8 * s)), max(4, round(8 * s)))
    return tuple(int(v) for v in resolution)


def _ray_membership(domain, kind, z, u, nu, s, b, theta, eta, lo_cut, hi_cut,
                    sign):
    """Membership predicate along tangential rays, vectorized over rays."""
    def inside(r):
        a = r * np.exp(1j * theta)
        tau = (z[None, :] + a[:, None] * u[None, :]
               + (sign * s + 1j * b)[:, None] * nu[None, :])
        rho = np.asarray(domain.rho(tau))
        h = sign * rho
        ok = (h > lo_cut) & (h < hi_cut)
        if kind == "external":
            ok &= (np.abs(a) ** 2 < eta * h) & (np.abs(b) < eta * h)
        else:
            sel = np.nonzero(ok)[0]
            if sel.size:
                pr = project_boundary(domain, tau[sel], 0.0)
                ok2 = qdist(domain, pr, z) < eta * h[sel]
                ok = ok.copy()
                ok[sel] = ok2
        return ok
    return inside


def _bisect_edge(inside, lo, hi, flags_lo, n_iter=30):
    """Per-ray crossing radius between a member radius and a non-member one."""
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        ok = inside(mid)
        lo = np.where(ok == flags_lo, mid, lo)
        hi = np.where(ok == flags_lo, hi, mid)
    return 0.5 * (lo + hi)


def sample_region(domain, z, kind, eta=DEFAULT_ETA, eps=None, resolution=None,
                  rho_min=0.0, rho_max=None, n_gauss=4):
    """Sample an approach region at a boundary point with volume weights.

    Points live in frame coordinates tau = z + a u + (s + i b) nu (complex
    tangential offset a, height s, imaginary-normal offset b); the frame is
    unitary, so cell volumes are Lebesgue weights.  Heights ride a geometric
    ladder (matching the dyadic analysis of the singular weights); for every
    (s, b, angle) ray the exact membership interval in the tangential radius
    is found by bisection and integrated with Gauss-Legendre nodes, so no
    indicator discontinuity is left in the radial direction and all emitted
    points satisfy the defining inequalities exactly.  ``rho_min``/``rho_max``
    restrict the heights (the dyadic shells of the decomposition).
    """
    if kind not in ("internal", "external"):
        raise ValueError("kind must be 'internal' or 'external'")
    eps = domain.eps_shell if eps is None else float(eps)
    n_levels, per_level, _, n_th, n_b = _resolution_tuple(resolution)
    z = np.asarray(z, dtype=complex)
    bp = boundary_point_data(domain, z)
    nu, u = bp.normal, bp.ct_frame[0]
    gn = float(np.linalg.norm(np.asarray(domain.grad(z))))
    from .domain import real_hessian
    lam = 0.5 * float(np.linalg.eigvalsh(real_hessian(domain, z))[-1])
    sign = 1.0 if kind == "external" else -1.0
    if kind == "external" and eta * lam >= 0.85:
        raise ValueError(
            f"eta={eta} too large against the curvature bound {lam:.2f}; "
            "the tangential constraint degenerates (use a smaller eta)")

    lo_cut = max(float(rho_min), eps * 2.0 ** (-n_levels))
    hi_cut = eps if rho_max is None else min(eps, float(rho_max))
    if lo_cut >= hi_cut:
        raise ValueError("empty height band")

    th = 2.0 * np.pi * (np.arange(n_th) + 0.5) / n_th
    xg, wg = np.polynomial.legendre.leggauss(int(n_gauss))
    lam_eff = max(1.0 - min(eta * lam, 0.8), 0.2)
    if kind == "external":
        r_max_glob = np.sqrt(eta * hi_cut) * 1.000001
    else:
        lam_levi = float(np.linalg.eigvalsh(
            np.asarray(domain.hess_mixed(z)))[0])
        r_max_glob = np.sqrt(4.0 * eta * hi_cut / max(lam_levi, 1e-9))

    # internal rays lose height along the tangent (curvature), so their
    # s-ladder must start above eps/(2|g|); external heights only grow
    if kind == "internal":
        top = max(hi_cut * 1.05, hi_cut + lam * r_max_glob ** 2 * 1.2)
        n_extra = max(0, int(np.ceil(np.log2(top / eps))))
    else:
        top, n_extra = eps, 0
    edges = top * 2.0 ** (-np.arange(n_levels + n_extra + 1, dtype=float))
    s_cap = (hi_cut * 1.1 if kind == "external"
             else top * 1.05)
    # gather the (s, b, angle) rays of every height cell, each with its cell
    # weight, so membership probing and bisection run once per region
    ray_s, ray_b, ray_w = [], [], []
    for m in range(n_levels + n_extra):
        hi, lo = edges[m], edges[m + 1]
        if lo >= hi_cut and kind == "external":
            continue
        s_edges = np.linspace(lo, hi, per_level + 1) / (2.0 * gn)
        for i in range(per_level):
            s_lo, s_hi = s_edges[i], s_edges[i + 1]
            if 2.0 * gn * s_lo > s_cap:
                continue
            s_mid = 0.5 * (s_lo + s_hi)
            w_s = s_hi - s_lo
            # reachable heights from this cell under the curvature bound fix
            # the imaginary-normal window, so each dyadic band is resolved
            rho_reach = min(hi_cut,
                            1.3 * (2.0 * gn * s_hi + lam * s_hi ** 2) / lam_eff)
            if kind == "external":
                b_cell = 1.25 * eta * rho_reach
            else:
                b_cell = 1.25 * eta * rho_reach / max(gn, 1e-9)
            b_mid = (np.arange(n_b) + 0.5) * (2.0 * b_cell) / n_b - b_cell
            w_b = 2.0 * b_cell / n_b
            ray_s.append(np.full(n_b * n_th, s_mid))
            ray_b.append(np.repeat(b_mid, n_th))
            ray_w.append(np.full(n_b * n_th, w_s * w_b))
    Sf, Bf = np.concatenate(ray_s), np.concatenate(ray_b)
    Wf = np.concatenate(ray_w)
    THf = np.tile(th, Sf.size // n_th)

    def inside_on(idx):
        """Membership along the rays ``idx`` as a function of the radius."""
        return _ray_membership(domain, kind, z, u, nu, Sf[idx], Bf[idx],
                               THf[idx], eta, lo_cut, hi_cut, sign)

    inside = inside_on(slice(None))
    at0 = inside(np.full(Sf.size, 1e-12))
    at_max = inside(np.full(Sf.size, r_max_glob))
    # member interval [r_lo, r_hi] along each ray (monotone exits)
    r_hi_arr = np.where(at0 | at_max, r_max_glob, 0.0)
    r_lo_arr = np.zeros(Sf.size)
    # rays member at 0: single exit crossing in (0, r_max)
    m0 = np.nonzero(at0 & ~at_max)[0]
    if m0.size:
        r_hi_arr[m0] = _bisect_edge(
            inside_on(m0), np.full(m0.size, 1e-12),
            np.full(m0.size, r_max_glob), np.full(m0.size, True))
    # rays not member at 0 (height floor or b-window): entry then exit
    idx = np.nonzero(~at0)[0]
    if idx.size:
        inside_m1 = inside_on(idx)
        # probe for any member radius on a coarse ladder
        probes = r_max_glob * (np.arange(1, 8) / 8.0)
        found = np.zeros(idx.size, dtype=bool)
        r_member = np.zeros(idx.size)
        for pr_r in probes:
            okp = inside_m1(np.full(idx.size, pr_r))
            newly = okp & ~found
            r_member[newly] = pr_r
            found |= newly
        if np.any(found):
            ii = idx[found]
            rm = r_member[found]
            inside_ii = inside_on(ii)
            r_lo_arr[ii] = _bisect_edge(inside_ii, rm,
                                        np.full(ii.size, 1e-12),
                                        np.full(ii.size, True))
            r_hi_arr[ii] = _bisect_edge(inside_ii, rm,
                                        np.full(ii.size, r_max_glob),
                                        np.full(ii.size, True))
    live = r_hi_arr > r_lo_arr + 1e-14
    if not np.any(live):
        raise ValueError(
            f"empty {kind} region at eta={eta}, eps={eps}; resolution too "
            "coarse or band too thin")
    rl, rh = r_lo_arr[live], r_hi_arr[live]
    sl, bl, thl = Sf[live], Bf[live], THf[live]
    # Gauss-Legendre in the radius on the exact member interval
    rg = 0.5 * (rh - rl)[:, None] * xg[None, :] + \
        0.5 * (rh + rl)[:, None]
    wgr = 0.5 * (rh - rl)[:, None] * wg[None, :] * rg
    a = rg * np.exp(1j * thl)[:, None]
    tau = (z[None, None, :] + a[..., None] * u[None, None, :]
           + (sign * sl + 1j * bl)[:, None, None] * nu[None, None, :])
    w = (Wf[live] * (2.0 * np.pi / n_th))[:, None] * wgr
    tau = tau.reshape(-1, domain.n)
    return RegionSample(kind=kind, center=z, eta=float(eta), eps=eps,
                        points=tau,
                        rho=np.asarray(domain.rho(tau)),
                        weights=w.ravel(),
                        meta={"resolution": (n_levels, per_level, n_gauss,
                                             n_th, n_b),
                              "rho_min": lo_cut, "rho_max": hi_cut})


def region_integrate(sample, F, weight="mu", l=None):
    """Weighted region integral of F (callable on points, or a value array).

    ``weight``: "mu" integrates against Lebesgue volume; "nu" divides by
    |rho|^(n-1); "nu_l" divides by |rho|^(n-2l+1) (the operative exponent of
    the external area functional, see the module notes on the sign of the
    exponent in the appendix).
    """
    vals = np.asarray(F(sample.points) if callable(F) else F)
    n = sample.points.shape[-1]
    h = np.abs(sample.rho)
    if weight == "mu":
        fac = 1.0
    elif weight == "nu":
        fac = h ** (-(n - 1))
    elif weight == "nu_l":
        if l is None:
            raise ValueError("weight nu_l needs the order l")
        fac = h ** (-(n - 2 * l + 1))
    else:
        raise ValueError(f"unknown weight {weight!r}")
    return complex(np.sum(vals * fac * sample.weights)) if np.iscomplexobj(vals) \
        else float(np.sum(vals * fac * sample.weights))


def region_volume_profile(sample, thresholds):
    """Volumes of the region truncated below each height threshold."""
    return np.array([sample.weights[np.abs(sample.rho) < s].sum()
                     for s in thresholds])


# ---------------------------------------------------------------------------
# area integrals
# ---------------------------------------------------------------------------

def area_internal(domain, f, p, eta=DEFAULT_ETA, eps=None, centers=None,
                  resolution=None):
    """Internal square-function mass against the boundary p-mass.

    Left side: integral over centers of (region integral of |df|^2 against
    d(mu)/|rho|^(n-1))^(p/2); right side: boundary integral of |f|^p on the
    same center grid.  Both returned for ratio reporting.
    """
    if centers is None:
        raise ValueError("need a center grid (BoundaryGrid)")
    n = domain.n
    lhs = 0.0
    for i in range(centers.size):
        sample = sample_region(domain, centers.nodes[i], "internal", eta,
                               eps, resolution)
        grads = np.stack([np.asarray(f.d(tuple(np.eye(n, dtype=int)[j]),
                                          sample.points))
                          for j in range(n)], axis=-1)
        inner = region_integrate(sample, np.sum(np.abs(grads) ** 2, axis=-1),
                                 weight="nu")
        lhs += centers.w_sigma[i] * inner ** (p / 2.0)
    fv = np.abs(np.asarray(f(centers.nodes))) ** p
    rhs = float(np.sum(fv * centers.w_sigma))
    return {"lhs": float(lhs), "rhs": rhs,
            "ratio": float(lhs / rhs) if rhs > 0 else np.inf}


def area_Il(domain, g_field, l, center, grid: BoundaryGrid, eta=DEFAULT_ETA,
            eps=None, resolution=None, rho_min=None, chunk=512):
    """External area functional of a boundary field at one center.

    The inner boundary integral pairs the field with the kernel at power
    n + l (nonsingular: the region point is exterior); the outer integral
    runs over the external region with the nu_l weight.  ``rho_min`` floors
    the region heights at a scale the boundary grid can resolve.

    ``g_field`` is one per-node field (the result is a float) or a stack
    ``(F, N)`` of them (the result is an array of F floats); the region and
    each kernel chunk are built once and contracted with every field.
    """
    if rho_min is None:
        rho_min = max(grid.quasi_spacing * 0.75,
                      (domain.eps_shell if eps is None else eps) * 2.0 ** -9)
    sample = sample_region(domain, center, "external", eta, eps, resolution,
                           rho_min=rho_min)
    n = domain.n
    g = np.asarray(g_field)
    gw = np.atleast_2d(g) * grid.w_S
    phi = np.empty((gw.shape[0], sample.size), dtype=complex)
    for start in range(0, sample.size, chunk):
        sl = slice(start, min(start + chunk, sample.size))
        tau = sample.points[sl]
        gt = np.asarray(domain.grad(tau))
        den = pairing(gt, tau)[:, None] - gt @ grid.nodes.T
        kern = den ** (-(n + l))
        # one matrix-vector product per field: a single matrix product
        # rounds differently and would change reported values
        for j in range(gw.shape[0]):
            phi[j, sl] = kern @ gw[j]
    vals = [float(np.sqrt(max(region_integrate(sample, np.abs(ph) ** 2,
                                               weight="nu_l", l=l), 0.0)))
            for ph in phi]
    return vals[0] if g.ndim == 1 else np.array(vals)


def check_area_inequality(domain, g_family, l, p, grid, centers,
                          eta=DEFAULT_ETA, eps=None, resolution=None, rho_min=None):
    """Per-family-member ratio of area-functional mass to boundary mass.

    Members are per-node fields on ``grid``; the report carries the ratio
    list, its max/min, and a pass flag (bounded envelope, no monotone
    blow-up across the family order, which is assumed scale-ordered).
    Each center's region is sampled once for the whole family.
    """
    if len(g_family) < 2:
        raise ValueError("need at least two family members")
    fam = np.stack(g_family)
    nums = [0.0] * len(fam)
    for i in range(centers.size):
        il = area_Il(domain, fam, l, centers.nodes[i], grid, eta, eps,
                     resolution, rho_min)
        for j in range(len(fam)):
            nums[j] += centers.w_sigma[i] * float(il[j]) ** p
    ratios = []
    for num, g_field in zip(nums, fam):
        den = float(np.sum(np.abs(g_field) ** p * grid.w_sigma))
        ratios.append(num / den if den > 0 else np.inf)
    ratios = np.array(ratios)
    spread = float(ratios.max() / max(ratios.min(), 1e-300))
    # members are ordered from the coarsest scale to the finest; blow-up
    # means ratios growing monotonically toward the fine-scale end
    monotone_blowup = bool(np.all(np.diff(ratios) > 0)
                           and ratios[-1] > 10 * ratios[0])
    return {"ratios": ratios.tolist(), "spread": spread,
            "monotone_blowup": monotone_blowup,
            "n_centers": int(centers.size)}


def region_comparison_samples(domain, n_centers=40, eta=DEFAULT_ETA, eps=None,
                             resolution=None, seed=5, per_region=40,
                             grid=None):
    """(tau, centers, boundary w) triples for the region comparison estimate."""
    rng = np.random.default_rng(seed)
    if grid is None:
        raise ValueError("need a boundary grid to draw centers from")
    idx = rng.choice(grid.size, size=min(n_centers, grid.size), replace=False)
    taus, cents, ws = [], [], []
    for i in idx:
        z = grid.nodes[i]
        sample = sample_region(domain, z, "external", eta, eps, resolution)
        take = rng.choice(sample.size, size=min(per_region, sample.size),
                          replace=False)
        w_idx = rng.choice(grid.size, size=take.size)
        taus.append(sample.points[take])
        cents.append(np.broadcast_to(z, (take.size, domain.n)).copy())
        ws.append(grid.nodes[w_idx])
    return (np.concatenate(taus), np.concatenate(cents), np.concatenate(ws))
