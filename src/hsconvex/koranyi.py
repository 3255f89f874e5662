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

from .domain import ProjectionError, pairing, project_boundary, \
    real_hessian, row_blocks, sum_last
from .homtype import BoundaryGrid, qdist

__all__ = [
    "RegionSample",
    "sample_region",
    "sample_regions",
    "region_integrate",
    "region_volume_profile",
    "area_internal",
    "area_Il",
    "check_area_inequality",
    "region_comparison_samples",
]


@dataclass(frozen=True)
class RegionSample:
    center: np.ndarray
    points: np.ndarray    # (M, n)
    rho: np.ndarray       # (M,)
    weights: np.ndarray   # (M,) Lebesgue volume weights
    rays: int             # rays probed for the region, member or not

    @property
    def size(self):
        return self.points.shape[0]


DEFAULT_ETA = 0.25
_RADIAL_GAUSS = 4    # Gauss-Legendre nodes per member interval of a ray


def _resolution_tuple(resolution):
    """(n_levels, per_level, n_r, n_theta, n_b); (12, 3, 8, 8, 8) for None.

    The third entry, ``n_r``, is unused: every member interval of a ray gets
    ``_RADIAL_GAUSS`` Gauss-Legendre nodes.
    """
    if resolution is None:
        return (12, 3, 8, 8, 8)
    return tuple(int(v) for v in resolution)


def _ray_membership(domain, kind, z, u, nu, s, b, theta, eta, lo_cut, hi_cut,
                    sign):
    """Membership predicate along tangential rays, vectorized over rays.

    ``z``, ``u``, ``nu`` are each ray's centre and frame, one row per ray.
    The rays' phases e^(i theta) and normal offsets c nu, c = sign s + i b,
    are formed once per ray set; each call forms tau = (z + a u) + c nu in
    the order of the one-call formula, so every point keeps its bits.
    """
    phase = np.exp(1j * theta)
    normal = (sign * s + 1j * b)[:, None] * nu

    def inside(r):
        a = r * phase
        tau = z + a[:, None] * u + normal
        rho = np.asarray(domain.rho(tau))
        h = sign * rho
        ok = (h > lo_cut) & (h < hi_cut)
        if kind == "external":
            ok &= (np.abs(a) ** 2 < eta * h) & (np.abs(b) < eta * h)
        else:
            sel = np.nonzero(ok)[0]
            if sel.size:
                pr = project_boundary(domain, tau[sel])
                ok[sel] = qdist(domain, pr, z[sel]) < eta * h[sel]
        return ok
    return inside


def _bisect_edge(inside, lo, hi):
    """Per-ray crossing radius between a member radius lo and a non-member hi.

    ``lo`` may exceed ``hi``: the entry edge bisects towards the origin.
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        ok = inside(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return 0.5 * (lo + hi)


def _ray_ladder(domain, z, kind, eta, eps, lo_cut, hi_cut, n_levels,
                per_level, n_th, n_b):
    """Frame and (s, b) rays of one centre's region, before any probing.

    Returns the unit normal, the complex tangent, the tangential radius
    bound and, per ray, its height, imaginary-normal offset and cell weight
    (each height cell's n_b * n_th rays in (b, angle) order).
    """
    g = np.asarray(domain.grad(z))
    gn = float(np.linalg.norm(g))
    if gn < 1e-12:
        raise ProjectionError(f"degenerate gradient at xi={z}")
    nu = np.conj(g) / gn
    # the complex tangent u (<g, u> = 0): the second column of the QR of
    # [nu | I]; its phase differs from domain.unit_frame's tangent
    u = np.linalg.qr(np.concatenate(
        [nu[:, None], np.eye(domain.n, dtype=complex)], axis=1))[0][:, 1]
    lam = 0.5 * float(np.linalg.eigvalsh(real_hessian(domain, z))[-1])
    if kind == "external" and eta * lam >= 0.85:
        raise ValueError(
            f"eta={eta} too large against the curvature bound {lam:.2f}; "
            "the tangential constraint degenerates (use a smaller eta)")
    if lo_cut >= hi_cut:
        raise ValueError("empty height band")

    lam_eff = max(1.0 - min(eta * lam, 0.8), 0.2)
    if kind == "external":
        r_max = np.sqrt(eta * hi_cut) * 1.000001
    else:
        lam_levi = float(np.linalg.eigvalsh(
            np.asarray(domain.hess_mixed(z)))[0])
        r_max = np.sqrt(4.0 * eta * hi_cut / max(lam_levi, 1e-9))

    # internal rays lose height along the tangent (curvature), so their
    # s-ladder must start above eps/(2|g|); external heights only grow
    if kind == "internal":
        top = max(hi_cut * 1.05, hi_cut + lam * r_max ** 2 * 1.2)
        n_extra = max(0, int(np.ceil(np.log2(top / eps))))
    else:
        top, n_extra = eps, 0
    edges = top * 2.0 ** (-np.arange(n_levels + n_extra + 1, dtype=float))
    s_cap = (hi_cut * 1.1 if kind == "external"
             else top * 1.05)
    # gather the (s, b, angle) rays of every height cell, each with its cell
    # weight, so the bank probes and bisects them in blocks of rays
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
    return (nu, u, r_max, np.concatenate(ray_s), np.concatenate(ray_b),
            np.concatenate(ray_w))


def _member_intervals(domain, kind, z, u, nu, s, b, theta, r_max, eta,
                      lo_cut, hi_cut, sign):
    """Member interval [r_lo, r_hi] along each of a block of rays.

    The rays are given as in :func:`_ray_membership`, with their tangential
    radius bounds ``r_max``; exits are monotone, and a ray with no member
    radius gets r_lo = r_hi = 0.
    """
    def inside_on(idx):
        """Membership along the rays ``idx`` as a function of the radius."""
        return _ray_membership(domain, kind, z[idx], u[idx], nu[idx], s[idx],
                               b[idx], theta[idx], eta, lo_cut, hi_cut, sign)

    inside = inside_on(slice(None))
    at0 = inside(np.full(r_max.size, 1e-12))
    at_max = inside(r_max)
    r_hi = np.where(at0 | at_max, r_max, 0.0)
    r_lo = np.zeros(r_max.size)
    # rays member at 0: single exit crossing in (0, r_max)
    m0 = np.nonzero(at0 & ~at_max)[0]
    if m0.size:
        r_hi[m0] = _bisect_edge(inside_on(m0), np.full(m0.size, 1e-12),
                                r_max[m0])
    # rays not member at 0 (height floor or b-window): entry then exit
    idx = np.nonzero(~at0)[0]
    if idx.size:
        inside_m1 = inside_on(idx)
        # probe for any member radius on a coarse ladder
        found = np.zeros(idx.size, dtype=bool)
        r_member = np.zeros(idx.size)
        for k in range(1, 8):
            pr_r = r_max[idx] * (k / 8.0)
            okp = inside_m1(pr_r)
            newly = okp & ~found
            r_member[newly] = pr_r[newly]
            found |= newly
        if np.any(found):
            ii = idx[found]
            rm = r_member[found]
            inside_ii = inside_on(ii)
            r_lo[ii] = _bisect_edge(inside_ii, rm, np.full(ii.size, 1e-12))
            r_hi[ii] = _bisect_edge(inside_ii, rm, r_max[ii])
    return r_lo, r_hi


def sample_regions(domain, centers, kind, eta=DEFAULT_ETA, eps=None,
                   resolution=None, rho_min=0.0, rho_max=None):
    """Approach regions at a batch of boundary points, one bank of rays.

    Returns one :class:`RegionSample` per row of ``centers`` (shape (m, n)),
    in order, each equal array for array to :func:`sample_region` at that
    centre.  Each centre's frame, curvature bound, tangential radius bound
    and ray ladder are set up on their own.  The bank's rays then run in
    blocks of :func:`~hsconvex.domain.row_blocks`' default size, each
    gathering its rays' centre data through a ray-to-centre index: a block
    runs the membership tests, the probe ladder and both bisections, and
    after every block has been probed, the Gauss-Legendre points of each
    block's member rays are written into the bank's preallocated arrays.
    Every step is elementwise per ray, so a centre's rays meet the same
    arithmetic as in a bank of one or in blocks of any size; the one
    exception is the internal region on a curved domain, whose membership
    projects each block's rays at once, where
    :func:`~hsconvex.domain.project_boundary`'s batch-wide radial start can
    move the projection's last bits; the membership outcomes, and so the
    samples, matched per-centre calls and other block sizes on every input
    tried.  The samples' arrays are views of the bank's arrays, and each
    sample records how many rays its region probed.  ``resolution`` is
    (n_levels, per_level, n_r, n_theta, n_b); its ``n_r`` entry is unused,
    each member interval getting ``_RADIAL_GAUSS`` = 4 radial nodes, so
    every sample's size is a multiple of 4.

    Errors: an empty ``centers`` raises ``ValueError``; so does the first
    centre, in order, whose set-up fails (``eta`` too large against its
    curvature bound, or an empty height band), before any ray is probed;
    after probing, the first centre left without a member ray raises the
    empty-region ``ValueError``.  Each message is the one
    :func:`sample_region` raises at that centre.
    """
    if kind not in ("internal", "external"):
        raise ValueError("kind must be 'internal' or 'external'")
    centers = np.asarray(centers, dtype=complex)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise ValueError("need a non-empty batch of centres, shape (m, n)")
    eps = domain.eps_shell if eps is None else float(eps)
    n_levels, per_level, _, n_th, n_b = _resolution_tuple(resolution)
    sign = 1.0 if kind == "external" else -1.0
    lo_cut = max(float(rho_min), eps * 2.0 ** (-n_levels))
    hi_cut = eps if rho_max is None else min(eps, float(rho_max))

    nus, us, r_maxs, ss, bs, ws = zip(*[
        _ray_ladder(domain, z, kind, eta, eps, lo_cut, hi_cut, n_levels,
                    per_level, n_th, n_b) for z in centers])
    counts = np.array([s.size for s in ss])
    ray_off = np.concatenate([[0], np.cumsum(counts)])
    # ray -> centre index: a block gathers only its own rays' centre data
    ray_c = np.repeat(np.arange(centers.shape[0]), counts)
    nus, us = np.asarray(nus), np.asarray(us)
    RMf = np.asarray(r_maxs)[ray_c]
    Sf, Bf, Wf = np.concatenate(ss), np.concatenate(bs), np.concatenate(ws)
    th = 2.0 * np.pi * (np.arange(n_th) + 0.5) / n_th
    THf = np.tile(th, Sf.size // n_th)
    blocks = row_blocks(Sf.size)

    r_lo_arr = np.empty(Sf.size)
    r_hi_arr = np.empty(Sf.size)
    for sl in blocks:
        c = ray_c[sl]
        r_lo_arr[sl], r_hi_arr[sl] = _member_intervals(
            domain, kind, centers[c], us[c], nus[c], Sf[sl], Bf[sl], THf[sl],
            RMf[sl], eta, lo_cut, hi_cut, sign)
    live = r_hi_arr > r_lo_arr + 1e-14
    live_off = np.concatenate([[0], np.cumsum(live)])[ray_off]
    if np.any(np.diff(live_off) == 0):
        raise ValueError(
            f"empty {kind} region at eta={eta}, eps={eps}; resolution too "
            "coarse or band too thin")

    pt_off = live_off * _RADIAL_GAUSS
    points = np.empty((pt_off[-1], domain.n), dtype=complex)
    rho = np.empty(pt_off[-1])
    weights = np.empty(pt_off[-1])
    xg, wg = np.polynomial.legendre.leggauss(_RADIAL_GAUSS)
    p0 = 0
    for sl in blocks:
        li = sl.start + np.nonzero(live[sl])[0]
        c = ray_c[li]
        rl, rh = r_lo_arr[li], r_hi_arr[li]
        # Gauss-Legendre in the radius on the exact member interval
        rg = 0.5 * (rh - rl)[:, None] * xg[None, :] + \
            0.5 * (rh + rl)[:, None]
        wgr = 0.5 * (rh - rl)[:, None] * wg[None, :] * rg
        a = rg * np.exp(1j * THf[li])[:, None]
        tau = (centers[c][:, None, :] + a[..., None] * us[c][:, None, :]
               + (sign * Sf[li] + 1j * Bf[li])[:, None, None]
               * nus[c][:, None, :])
        p1 = p0 + li.size * _RADIAL_GAUSS
        points[p0:p1] = tau.reshape(-1, domain.n)
        rho[p0:p1] = domain.rho(points[p0:p1])
        weights[p0:p1] = ((Wf[li] * (2.0 * np.pi / n_th))[:, None]
                          * wgr).ravel()
        p0 = p1
    return [RegionSample(center=z, points=points[p0:p1], rho=rho[p0:p1],
                         weights=weights[p0:p1], rays=int(n))
            for z, p0, p1, n in zip(centers, pt_off[:-1], pt_off[1:],
                                    counts)]


def sample_region(domain, z, kind, eta=DEFAULT_ETA, eps=None, resolution=None,
                  rho_min=0.0, rho_max=None):
    """Sample an approach region at a boundary point with volume weights.

    Points live in frame coordinates tau = z + a u + (s + i b) nu (complex
    tangential offset a, height s, imaginary-normal offset b); the frame is
    unitary, so cell volumes are Lebesgue weights.  Heights ride a geometric
    ladder (matching the dyadic analysis of the singular weights); for every
    (s, b, angle) ray the exact membership interval in the tangential radius
    is found by bisection and integrated with Gauss-Legendre nodes, so no
    indicator discontinuity is left in the radial direction and all emitted
    points satisfy the defining inequalities exactly.  ``rho_min``/``rho_max``
    restrict the heights (the dyadic shells of the decomposition).  The
    third ``resolution`` entry (n_r) is unused; see :func:`sample_regions`.
    This is the one-centre bank of :func:`sample_regions`.
    """
    z = np.asarray(z, dtype=complex)
    return sample_regions(domain, z[None, :], kind, eta, eps, resolution,
                          rho_min, rho_max)[0]


def region_integrate(sample, F, weight="mu", l=None):
    """Weighted region integral of F (callable on points, or a value array).

    ``weight``: "mu" integrates against Lebesgue volume (the test oracle for
    the region measure, against midpoint boxes); "nu" divides by
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
    """Volumes of the region truncated below each height threshold.

    Test oracle for the height ladder of :func:`sample_region`: the volume
    below height s scales like s^(n+1).
    """
    return np.array([sample.weights[np.abs(sample.rho) < s].sum()
                     for s in thresholds])


# ---------------------------------------------------------------------------
# area integrals
# ---------------------------------------------------------------------------

def area_internal(domain, f, p, centers, eta=DEFAULT_ETA, eps=None,
                  resolution=None):
    """Internal square-function mass against the boundary p-mass.

    Left side: integral over centers of (region integral of |df|^2 against
    d(mu)/|rho|^(n-1))^(p/2); right side: boundary integral of |f|^p on the
    same center grid (a :class:`BoundaryGrid`).  Both returned for ratio
    reporting.
    """
    n = domain.n
    lhs = 0.0
    samples = sample_regions(domain, centers.nodes, "internal", eta, eps,
                             resolution)
    for i, sample in enumerate(samples):
        grads = np.stack([np.asarray(f.d(tuple(np.eye(n, dtype=int)[j]),
                                          sample.points))
                          for j in range(n)], axis=-1)
        inner = region_integrate(sample, sum_last(np.abs(grads) ** 2),
                                 weight="nu")
        lhs += centers.w_sigma[i] * inner ** (p / 2.0)
    fv = np.abs(np.asarray(f(centers.nodes))) ** p
    rhs = float(np.sum(fv * centers.w_sigma))
    return {"lhs": float(lhs), "rhs": rhs,
            "ratio": float(lhs / rhs) if rhs > 0 else np.inf}


# region points per kernel chunk of the area functional: a chunk of 32 rows
# against a 2,916-node grid is 1.5 MB of complex values, so the matmul, the
# subtract, the power and the matrix-vector products run in a 2 MiB L2.  Every
# region size is a multiple of _RADIAL_GAUSS, so no chunk has an odd row
# count (odd-row chunks went through the BLAS's odd-row tail and moved the
# kernel's last bits on the curved domains)
_KERNEL_ROWS = 32


def _area_floor(domain, grid, eps):
    """Lowest region height of the area functional: one the grid resolves."""
    return max(grid.quasi_spacing * 0.75,
               (domain.eps_shell if eps is None else eps) * 2.0 ** -9)


def _area_values(domain, sample, gw, l, grid, kern_buf):
    """Area functional at one region sample for each row of ``gw``.

    ``gw`` holds the fields times the boundary weights, ``kern_buf`` is a
    complex (``_KERNEL_ROWS``, N) buffer that every kernel chunk reuses.
    """
    n = domain.n
    phi = np.empty((gw.shape[0], sample.size), dtype=complex)
    for sl in row_blocks(sample.size, _KERNEL_ROWS):
        tau = sample.points[sl]
        gt = np.asarray(domain.grad(tau))
        kern = kern_buf[:tau.shape[0]]
        np.matmul(gt, grid.nodes.T, out=kern)
        np.subtract(pairing(gt, tau)[:, None], kern, out=kern)
        np.power(kern, -(n + l), out=kern)
        # one matrix-vector product per field: a single matrix product
        # rounds differently and would change reported values
        for j in range(gw.shape[0]):
            phi[j, sl] = kern @ gw[j]
    return [float(np.sqrt(max(region_integrate(sample, np.abs(ph) ** 2,
                                               weight="nu_l", l=l), 0.0)))
            for ph in phi]


def area_Il(domain, g_field, l, center, grid: BoundaryGrid, eta=DEFAULT_ETA,
            eps=None, resolution=None):
    """External area functional of a boundary field at one center.

    The inner boundary integral pairs the field with the kernel at power
    n + l (nonsingular: the region point is exterior); the outer integral
    runs over the external region with the nu_l weight.  The region heights
    are floored at a scale the boundary grid can resolve.

    ``g_field`` is one per-node field (the result is a float) or a stack
    ``(F, N)`` of them (the result is an array of F floats); the region and
    each kernel chunk are built once and contracted with every field.
    """
    sample = sample_region(domain, center, "external", eta, eps, resolution,
                           rho_min=_area_floor(domain, grid, eps))
    g = np.asarray(g_field)
    vals = _area_values(domain, sample, np.atleast_2d(g) * grid.w_S, l, grid,
                        np.empty((_KERNEL_ROWS, grid.size), dtype=complex))
    return vals[0] if g.ndim == 1 else np.array(vals)


def check_area_inequality(domain, g_family, l, p, grid, centers,
                          eta=DEFAULT_ETA, eps=None, resolution=None):
    """Per-family-member ratio of area-functional mass to boundary mass.

    Members are per-node fields on ``grid``; the report carries the ratio
    list, its max/min, and a pass flag (bounded envelope, no monotone
    blow-up across the family order, which is assumed scale-ordered).
    Every center's region comes from one bank (:func:`sample_regions`);
    each region's kernel is built once and contracted with the whole
    family, with the values :func:`area_Il` gives at that center.  The
    report also carries the bank's probed ray count (``rays``) and each
    region's point count (``region_points``); a region's kernel takes
    its points times ``grid.size`` evaluations.
    """
    if len(g_family) < 2:
        raise ValueError("need at least two family members")
    fam = np.stack(g_family)
    gw = fam * grid.w_S
    samples = sample_regions(domain, centers.nodes, "external", eta, eps,
                             resolution, rho_min=_area_floor(domain, grid,
                                                             eps))
    kern_buf = np.empty((_KERNEL_ROWS, grid.size), dtype=complex)
    nums = [0.0] * len(fam)
    for i, sample in enumerate(samples):
        il = _area_values(domain, sample, gw, l, grid, kern_buf)
        for j in range(len(fam)):
            nums[j] += centers.w_sigma[i] * il[j] ** p
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
            "rays": sum(s.rays for s in samples),
            "region_points": [s.size for s in samples]}


def region_comparison_samples(domain, grid, n_centers=40, eta=DEFAULT_ETA,
                              eps=None, seed=5, per_region=40):
    """(tau, centers, boundary w) triples for the region comparison estimate.

    Centres and boundary points w are nodes of ``grid``.  The centres'
    regions come from one bank; the per-region subsets are drawn centre by
    centre after it, in the order a per-centre loop draws them (sampling
    consumes no random numbers).
    """
    rng = np.random.default_rng(seed)
    idx = rng.choice(grid.size, size=min(n_centers, grid.size), replace=False)
    samples = sample_regions(domain, grid.nodes[idx], "external", eta, eps)
    taus, cents, ws = [], [], []
    for sample in samples:
        take = rng.choice(sample.size, size=min(per_region, sample.size),
                          replace=False)
        w_idx = rng.choice(grid.size, size=take.size)
        taus.append(sample.points[take])
        cents.append(np.broadcast_to(sample.center,
                                     (take.size, domain.n)).copy())
        ws.append(grid.nodes[w_idx])
    return (np.concatenate(taus), np.concatenate(cents), np.concatenate(ws))
