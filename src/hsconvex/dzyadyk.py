"""Polynomial approximation of the reproducing kernel.

For a fixed boundary point the kernel is a power of 1/(1 - lambda), where
lambda is the gradient pairing normalized by its value at the point itself.
As z ranges over the closed domain, lambda stays inside a lune: the region cut
from the disk |lambda| <= R by the chord through 1 at angle t, where t is
determined by the argument of the self-pairing.  A degree-j polynomial
T_j(t, .) approximating 1/(1 - lambda) with weighted error

    |1/(1-lambda) - T_j| <= C1 j^(-r) |1-lambda|^(-(1+r))

away from the 1/j-neighborhood of 1, and |T_j| <= C2 j on that neighborhood,
yields a kernel approximant of degree jn in z with the far/near estimates
needed by the dyadic approximation machinery.  Existence is classical; here
the approximants are realized by weighted least squares on a boundary mesh of
the lune (optionally sharpened by Lawson reweighting toward the minimax fit)
and every instance carries measured certificate constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import pairing, radial_level, random_shell_points, \
    random_unit_directions, unit_frame

__all__ = [
    "Lune",
    "CauchyApproximant",
    "KernelApproximant",
    "lune_of",
    "lune_radius",
    "build_T",
    "build_Kglob",
    "validate_Kglob",
    "T_QUANT_STEP",
]

T_QUANT_STEP = np.pi / 64.0
LUNE_TOL = 1e-9     # closure slack of lune membership


@dataclass(frozen=True)
class Lune:
    """Region bounded by the bigger arc of |lambda| = R and a chord through 1.

    The chord has direction e^{it}; the lune is the side containing 0, which
    requires sin(t) > 0.  Membership is closed up to ``LUNE_TOL``.
    """

    t: float
    R: float

    def side(self, lam):
        """Signed distance to the chord line; negative inside the lune."""
        lam = np.asarray(lam, dtype=complex)
        return np.real((lam - 1.0) * np.exp(1j * (0.5 * np.pi - self.t)))

    def contains(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return (np.abs(lam) <= self.R + LUNE_TOL) & \
            (self.side(lam) <= LUNE_TOL)

    def chord_span(self):
        """Chord parameters s with 1 + s e^{it} on the circle |lambda| = R."""
        c = math.cos(self.t)
        disc = math.sqrt(c * c + self.R ** 2 - 1.0)
        return (-c - disc, -c + disc)


_LUNE_SAMPLES = 400    # shell points and interior points of lune_radius
_COND_LIMIT = 1e12     # build_T refuses a fit past this condition number


def lune_radius(domain):
    """R = sup |lambda(xi, z)| over shell points xi and interior z, + margin.

    The shell points have levels in (0, ``domain.eps_shell``).
    """
    eps = domain.eps_shell
    rng = np.random.default_rng(3)
    xi = random_shell_points(domain, rng, _LUNE_SAMPLES, (1e-4 * eps, eps))
    g = np.asarray(domain.grad(xi))
    c = pairing(g, xi)
    zdirs = random_unit_directions(rng, _LUNE_SAMPLES, domain.n)
    rz = radial_level(domain, zdirs, 0.0)
    z = (rng.uniform(0, 1, _LUNE_SAMPLES) ** (1.0 / (2 * domain.n)))[:, None] \
        * rz[:, None] * zdirs
    lam = (g @ z.T) / c[:, None]
    return float(np.abs(lam).max() * 1.05)


def lune_of(domain, xi, R):
    """The lune of radius R containing lambda(xi, .) for a shell point xi.

    Test oracle for the lune geometry that ``KernelApproximant`` fits on:
    the chord angle of ``t_of``, checked against the radius of
    :func:`lune_radius` passed as R.
    """
    xi = np.asarray(xi, dtype=complex)
    g = np.asarray(domain.grad(xi))
    c = complex(pairing(g, xi))
    if abs(c) < 1e-12:
        raise ValueError("self-pairing vanished; the origin must be interior")
    t = 0.5 * np.pi - np.angle(c)
    if not 0.0 < t < np.pi:
        raise ValueError(f"chord angle t={t:.3f} outside (0, pi); "
                         "domain geometry violates the interior-origin bound")
    return Lune(t=float(t), R=float(R))


# ---------------------------------------------------------------------------
# the one-variable approximant
# ---------------------------------------------------------------------------

@dataclass
class CauchyApproximant:
    """Degree-j polynomial fit of 1/(1 - lambda) on a lune.

    Coefficients are stored against the scaled basis (lambda / scale)^m for
    conditioning; ``cert`` records the measured constants C1 (weighted error
    away from 1) and C2 (max of |T|/j near 1) plus fit diagnostics.
    """

    j: int
    t: float
    r: float
    coeffs: np.ndarray
    scale: float
    cert: dict = field(default_factory=dict)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return np.polynomial.polynomial.polyval(lam / self.scale, self.coeffs)

    def lambda_coeffs(self):
        """Coefficients against plain powers of lambda."""
        m = np.arange(self.coeffs.size)
        return self.coeffs / self.scale ** m


def _lune_boundary_mesh(lune, j):
    """Mesh of the boundary of (lune minus the 1/j-disk about 1).

    Pieces: the bigger arc of |lambda| = R, the chord with geometric grading
    toward 1 (excluding |1-lambda| < 1/j), and the inner circular arc
    |1-lambda| = 1/j inside the lune.
    """
    n_arc, n_chord, n_inner = 200, 160, 80
    R, t = lune.R, lune.t
    cut = 1.0 / j
    phis = 2.0 * np.pi * (np.arange(n_arc) + 0.5) / n_arc
    arc = R * np.exp(1j * phis)
    arc = arc[(lune.side(arc) <= 1e-12) & (np.abs(1.0 - arc) >= cut)]

    s_lo, s_hi = lune.chord_span()
    pieces = []
    for s_end in (s_lo, s_hi):
        a = abs(s_end)
        if a <= cut:
            continue
        g = np.geomspace(cut, a, n_chord // 2)
        pieces.append(np.sign(s_end) * g)
    svals = np.concatenate(pieces) if pieces else np.array([])
    chord = 1.0 + np.exp(1j * t) * svals

    thetas = t + np.pi * (np.arange(n_inner) + 0.5) / n_inner
    inner = 1.0 + cut * np.exp(1j * thetas)
    inner = inner[np.abs(inner) <= R + 1e-12]
    return np.concatenate([arc, chord, inner])


def build_T(j, r, lune, moment_exact=None):
    """Weighted least-squares realization of the Dzyadyk approximant.

    Degree j on the lune ``lune`` (its chord angle and radius R).  The fit
    minimizes the residual against 1/(1 - lambda) times the target
    weight j^r |1 - lambda|^(1+r) on the boundary mesh; Lawson reweighting
    pushes the weighted error toward equioscillation so the measured C1 stays
    flat in j.  Certificates are suprema over the mesh (the weighted error is
    log-subharmonic, so boundary suprema control the region).

    ``moment_exact = q`` pins the Taylor coefficients at the origin to the
    geometric series through order q (the polynomial-projection pipeline
    needs exact low moments); the remaining degrees of freedom fit the
    weighted residual of the tail.  q must lie in [0, j), so at least the
    top coefficient is fitted.

    A fit whose weighted Vandermonde matrix has a condition number above
    1e12 raises ``ValueError`` naming j, t and the condition number; the
    degree is never reduced, so every certificate's ``flagged`` is false.
    """
    if j < 1:
        raise ValueError("degree must be at least 1")
    if moment_exact is not None and not 0 <= moment_exact < j:
        raise ValueError(f"moment_exact must lie in [0, {j}), "
                         f"got {moment_exact}")
    mesh = _lune_boundary_mesh(lune, j)
    target = 1.0 / (1.0 - mesh)
    w = float(j) ** r * np.abs(1.0 - mesh) ** (1.0 + r)

    scale = lune.R
    q = -1 if moment_exact is None else int(moment_exact)
    fixed = np.zeros(mesh.size, dtype=complex)
    if q >= 0:
        # pinned head: sum_{m<=q} lambda^m, absorbed into the target
        head = np.polynomial.polynomial.polyval(
            mesh, np.ones(q + 1)).astype(complex)
        fixed = head
    free_lo = q + 1

    V = np.vander(mesh / scale, j + 1, increasing=True)[:, free_lo:]
    sv = np.linalg.svd(V * w[:, None], compute_uv=False)
    cond = sv[0] / max(sv[-1], 1e-300)
    if cond > _COND_LIMIT:
        raise ValueError(f"kernel fit at j={j}, t={lune.t:.6g} is "
                         f"ill-conditioned: weighted condition number "
                         f"{cond:.3g} > {_COND_LIMIT:g}")

    resid_target = target - fixed
    # Lawson iteration: reweighting the least-squares fit by the weighted
    # residual drives it toward the weighted Chebyshev fit; keep the best.
    lw = np.ones(mesh.size)
    best = None
    stall = 0
    for _ in range(80):
        W = w * lw
        coef_free, *_ = np.linalg.lstsq(V * W[:, None],
                                        resid_target * W, rcond=None)
        err = np.abs(V @ coef_free - resid_target) * w
        c1 = float(err.max())
        if best is None or c1 < best[0] * (1.0 - 1e-6):
            best = (c1, coef_free)
            stall = 0
        else:
            stall += 1
            if stall > 20:
                break
        lw = lw * np.maximum(err / max(err.max(), 1e-300), 1e-12)
        lw /= max(lw.max(), 1e-300)
    c1, coef_free = best

    coef = np.zeros(j + 1, dtype=complex)
    if q >= 0:
        coef[: q + 1] = scale ** np.arange(q + 1)   # lambda^m in scaled basis
    coef[free_lo:] = coef_free
    approx = CauchyApproximant(j=int(j), t=float(lune.t), r=float(r),
                               coeffs=coef, scale=scale)
    approx.cert = _certify(approx, lune, c1=c1, mesh_size=mesh.size,
                           cond=float(cond))
    approx.cert["moment_exact"] = q
    return approx


def _certify(approx, lune, c1, mesh_size, cond):
    """Certificate dict: the fit's C1 and the measured near bound C2.

    ``flagged`` is always false: a fit whose degree would need reducing
    raises instead (:func:`build_T`).  The key stays because the ``kernel``
    report and the benchmark's tracer read it.
    """
    j = approx.j
    cut = 1.0 / j
    thetas = approx.t + np.pi * (np.arange(120) + 0.5) / 120
    near = 1.0 + cut * np.exp(1j * thetas)
    near = near[lune.contains(near)]
    svals = np.linspace(-cut, cut, 80)
    chord = 1.0 + np.exp(1j * approx.t) * svals
    chord = chord[np.abs(chord) <= lune.R + 1e-12]
    cap = np.concatenate([near, chord])
    c2 = float(np.abs(approx(cap)).max() / j) if cap.size else 0.0
    return {"C1": float(c1), "C2": c2, "mesh_size": int(mesh_size),
            "cond": cond, "flagged": False, "j": int(j),
            "t": float(approx.t), "r": float(approx.r)}


# ---------------------------------------------------------------------------
# the assembled kernel approximant
# ---------------------------------------------------------------------------

@dataclass
class KernelApproximant:
    """K_k(xi, z) = c(xi)^(-n) T_j(t(xi), lambda)^n with lambda = <g, z>/c.

    As a polynomial in z the degree is at most jn, with jn >= k > (j-1)n.
    Approximants are cached per quantized chord angle (the coefficients vary
    continuously in t, so nearby angles share one fit).  ``pinned`` fits
    pin the first j // 2 Taylor orders of T_j (the projectors' fits);
    others fit freely.
    """

    domain: object
    k: int
    r: float
    R: float
    pinned: bool = False
    j: int = field(init=False)
    cache: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < self.domain.n:
            raise ValueError("target degree must be at least n")
        self.j = int(math.ceil(self.k / self.domain.n))

    def t_of(self, c_pair):
        return 0.5 * np.pi - np.angle(c_pair)

    def approximant_for(self, tq):
        key = (self.j, round(tq / T_QUANT_STEP))
        if key not in self.cache:
            self.cache[key] = build_T(
                self.j, self.r, Lune(t=tq, R=self.R),
                moment_exact=self.j // 2 if self.pinned else None)
        return self.cache[key]

    def groups(self, c):
        """(mask, fit) per quantized chord angle of the self-pairings c.

        The masks partition the nodes; angles come in ascending order.
        """
        tq = np.round(self.t_of(c) / T_QUANT_STEP).astype(int)
        for q in np.unique(tq):
            yield tq == q, self.approximant_for(q * T_QUANT_STEP)

    def eval_pairs(self, xi, g, z):
        """K_k(xi_i, z_i) on matched pairs, with g_i the gradient at xi_i."""
        c = pairing(g, xi)
        lam = pairing(g, z) / c
        out = np.empty_like(lam)
        n = self.domain.n
        for sel, T in self.groups(c):
            out[sel] = T(lam[sel]) ** n / c[sel] ** n
        return out

    def certificates(self):
        return {k: v.cert for k, v in self.cache.items()}


def build_Kglob(domain, k, r=2.0, pinned=False):
    """Kernel approximant of degree k with rate parameter r.

    The lunes have the radius of :func:`lune_radius`.  ``pinned`` pins half
    the Taylor orders of each fit (the pipeline projectors' choice); the
    default fits freely.
    """
    return KernelApproximant(domain=domain, k=int(k), r=float(r),
                             R=float(lune_radius(domain)), pinned=pinned)


def validate_Kglob(domain, kglob, n_xi=300, n_z=40, seed=11, exact=None):
    """Measured far/near constants over stratified sample pairs.

    Far samples (d(xi, z) >= 1/k) certify sup |K - K_k| k^r d^(n+r); near
    samples (d <= 1/k) certify sup |K_k| / k^n.  Pass ``exact`` to score a
    different evaluator (the exact kernel itself scores C_far = 0).
    """
    from .forms import clf_kernel

    eps = domain.eps_shell
    rng = np.random.default_rng(seed)
    k = kglob.k
    n = domain.n

    dirs = random_unit_directions(rng, n_xi, n)
    ts = eps * rng.uniform(1e-3, 1.0, n_xi) ** 2
    rr = radial_level(domain, dirs, ts)
    xi = rr[:, None] * dirs
    g = np.asarray(domain.grad(xi))
    gn, nu, ct = unit_frame(g)

    # interior z constructed around each xi at prescribed quasimetric depth
    u = np.geomspace(0.2 / k, 2.0, n_z)
    a = rng.uniform(-1, 1, (n_xi, n_z)) * np.sqrt(u)[None, :]
    zs = (xi[:, None, :]
          - (u / gn[:, None])[:, :, None] * nu[:, None, :]
          + a[:, :, None] * ct[:, None, :])
    zs = zs.reshape(-1, n)
    keep = np.asarray(domain.rho(zs)) <= 0.0
    zs = zs[keep]

    xi_rep = np.repeat(xi, n_z, axis=0)[keep]
    g_rep = np.repeat(g, n_z, axis=0)[keep]
    d = np.abs(pairing(g_rep, xi_rep - zs))
    kern = clf_kernel(domain, xi_rep, zs, grad_xi=g_rep)
    if exact is None:
        approx = kglob.eval_pairs(xi_rep, g_rep, zs)
    else:
        approx = exact(xi_rep, zs)

    far = d >= 1.0 / k
    near = d <= 1.0 / k
    report = {"k": int(k), "j": int(kglob.j), "r": float(kglob.r),
              "n_far": int(far.sum()), "n_near": int(near.sum())}
    if np.any(far):
        report["C_far"] = float(
            (np.abs(kern[far] - approx[far]) * k ** kglob.r
             * d[far] ** (n + kglob.r)).max())
    if np.any(near):
        report["C_near"] = float(np.abs(approx[near]).max() / k ** n)
    return report

