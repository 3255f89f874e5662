"""Strongly convex domains in C^n and their differential geometry.

A domain is given by a defining function rho (negative inside, zero on the
boundary) together with its holomorphic gradient and the two complex Hessian
blocks.  Level sets ``rho = t`` for small ``|t|`` form a family of nearby
strongly convex surfaces, the shell; the geometric operations (nearest-point
projection onto the boundary rho = 0 and reflection across it) act on its
points.

All callables are vectorized over a leading batch axis: points are complex
arrays of shape ``(..., n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

__all__ = [
    "DomainSpec",
    "DomainValidationError",
    "ProjectionError",
    "ball",
    "ellipsoid",
    "perturbed_ball",
    "make_domain",
    "real_hessian",
    "project_boundary",
    "symmetric_point",
    "symmetric_point_dbar",
    "unit_frame",
    "radial_level",
    "random_shell_points",
    "row_blocks",
    "pairing",
    "real_dot",
    "sum_last",
]


class DomainValidationError(ValueError):
    """Raised when a defining function fails the strong convexity checks."""


class ProjectionError(RuntimeError):
    """Nearest-point iteration failed; carries the last iterate and residual."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


# ---------------------------------------------------------------------------
# small complex/real linear algebra helpers shared across the package
# ---------------------------------------------------------------------------

def sum_last(x):
    """``np.sum(x, axis=-1)`` over a last axis of length n = 2, unrolled.

    numpy's reduction machinery costs more than the two additions it
    performs.  ``(0.0 + x0) + x1`` is bit for bit what ``np.sum`` returns,
    signed zeros included: numpy's sum starts from +0.0, so (-0.0, -0.0)
    sums to +0.0.  (Only when two NaNs of different payloads meet in one
    complex part may the payload differ.)  A last axis of any other length
    raises ``ValueError`` rather than being summed.
    """
    x = np.asarray(x)
    if x.shape[-1] != 2:
        raise ValueError(f"last axis must have length 2, got {x.shape}")
    return (0.0 + x[..., 0]) + x[..., 1]


def pairing(g, v):
    """C-bilinear pairing <g, v> = sum_j g_j v_j over the last axis."""
    return sum_last(np.asarray(g) * np.asarray(v))


def real_dot(u, v):
    """Real inner product of C^n = R^(2n): Re sum_j u_j conj(v_j)."""
    return np.real(sum_last(np.asarray(u) * np.conj(v)))


def as_real(v):
    """Complex (..., n) -> real (..., 2n), coordinates ordered x1,y1,...,xn,yn."""
    v = np.asarray(v)
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],), dtype=float)
    out[..., 0::2] = v.real
    out[..., 1::2] = v.imag
    return out


def as_complex(r):
    """Inverse of :func:`as_real`."""
    r = np.asarray(r, dtype=float)
    return r[..., 0::2] + 1j * r[..., 1::2]


@dataclass(frozen=True)
class DomainSpec:
    """Strongly convex domain via a defining function with analytic derivatives.

    Attributes
    ----------
    n : complex dimension, the class constant 2; every catalog domain and
        every n-dependent formula of the kit is written for n = 2.
    rho : callable, points (..., n) -> real values (...).
    grad : holomorphic gradient, components d(rho)/dz_j, shape (..., n).
    hess_mixed : callable -> Hermitian matrix A_jk = d2(rho)/(dz_j dzbar_k).
    hess_holo : callable -> symmetric matrix H_jk = d2(rho)/(dz_j dz_k).
        Both have shape (..., n, n) and may be read-only views (the catalog
        returns broadcast views of its constant matrices); no consumer
        writes into them.
    eps_shell : validated width of the two-sided shell around the boundary.
    """

    n: ClassVar[int] = 2
    rho: Callable
    grad: Callable
    hess_mixed: Callable
    hess_holo: Callable
    eps_shell: float
    name: str = "custom"
    params: tuple = ()

    def key(self):
        """Stable identity: name, dimension, parameters and shell width.

        The benchmark's tracer (``perfbench/spans.py``) keys region samples
        with it.
        """
        return (self.name, self.n, tuple(float(p) for p in self.params),
                float(self.eps_shell))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _constant_hessian(*diag):
    """Hessian callable of the constant diagonal matrix diag(*diag).

    Returns a read-only broadcast view of one matrix built here, so a call
    allocates nothing per point.
    """
    m = np.diag(np.asarray(diag, dtype=complex))
    return lambda z: np.broadcast_to(m, np.shape(z)[:-1] + m.shape)


def ball(eps_shell=0.1, validate=True):
    """Unit ball, rho(z) = |z|^2 - 1."""

    def rho(z):
        z = np.asarray(z, dtype=complex)
        return sum_last(np.abs(z) ** 2) - 1.0

    def grad(z):
        return np.conj(np.asarray(z, dtype=complex))

    return make_domain(rho, grad, _constant_hessian(1.0, 1.0),
                       _constant_hessian(0.0, 0.0), eps_shell, name="ball",
                       params=(), validate=validate)


def ellipsoid(c1=2.0, c2=1.0, eps_shell=0.1, validate=True):
    """Axis-aligned ellipsoid, rho(z) = c1 |z_1|^2 + c2 |z_2|^2 - 1."""
    c = np.array([c1, c2], dtype=float)

    def rho(z):
        z = np.asarray(z, dtype=complex)
        return sum_last(c * np.abs(z) ** 2) - 1.0

    def grad(z):
        return c * np.conj(np.asarray(z, dtype=complex))

    return make_domain(rho, grad, _constant_hessian(c1, c2),
                       _constant_hessian(0.0, 0.0), eps_shell,
                       name="ellipsoid", params=(c1, c2), validate=validate)


def perturbed_ball(beta=0.1, eps_shell=0.1, validate=True):
    """Perturbed quadric, rho(z) = |z|^2 + beta Re(z_1^2) - 1.

    Strongly convex for |beta| < 1; the holomorphic Hessian block is nonzero.
    """

    def rho(z):
        z = np.asarray(z, dtype=complex)
        return (sum_last(np.abs(z) ** 2)
                + beta * np.real(z[..., 0] ** 2) - 1.0)

    def grad(z):
        z = np.asarray(z, dtype=complex)
        g = np.conj(z).copy()
        g[..., 0] += beta * z[..., 0]
        return g

    return make_domain(rho, grad, _constant_hessian(1.0, 1.0),
                       _constant_hessian(beta, 0.0), eps_shell,
                       name="perturbed_ball", params=(beta,), validate=validate)


_CATALOG = {
    "ball": ball,
    "ellipsoid": ellipsoid,
    "perturbed_ball": perturbed_ball,
}


def from_catalog(name, params=(), eps_shell=0.1, validate=True):
    """Instantiate a catalog domain by name and positional parameter list."""
    if name not in _CATALOG:
        raise KeyError(f"unknown domain {name!r}; catalog: {sorted(_CATALOG)}")
    return _CATALOG[name](*params, eps_shell=eps_shell, validate=validate)


def make_domain(rho, grad, hess_mixed, hess_holo, eps_shell,
                name="custom", params=(), validate=True):
    dom = DomainSpec(rho=rho, grad=grad, hess_mixed=hess_mixed,
                     hess_holo=hess_holo, eps_shell=float(eps_shell),
                     name=name, params=tuple(params))
    if validate:
        validate_domain(dom)
    return dom


def validate_domain(domain, seed=7):
    """Strong convexity and derivative consistency checks by shell sampling.

    Samples 200 box points and 1000 shell points, every 20th of them for the
    finite-difference check.

    Raises :class:`DomainValidationError` with a witness point on failure.
    Returns a dict of measured margins for reporting.
    """
    if domain.eps_shell <= 0:
        raise DomainValidationError("eps_shell must be positive")
    r0 = float(domain.rho(np.zeros(domain.n, dtype=complex)))
    if not r0 < 0:
        raise DomainValidationError(f"rho(0) = {r0:.3g} is not negative")

    rng = np.random.default_rng(seed)
    # gross non-convexity first: a box sample yields a Hessian witness even
    # when the level sets are unreachable along some rays
    box = rng.uniform(-1.3, 1.3, size=(200, 2 * domain.n))
    box_pts = as_complex(box)
    eigs_box = np.linalg.eigvalsh(real_hessian(domain, box_pts))
    i_bad = int(np.argmin(eigs_box[:, 0]))
    if eigs_box[i_bad, 0] <= 0:
        raise DomainValidationError(
            "real Hessian not positive definite: min eigenvalue "
            f"{eigs_box[i_bad, 0]:.3g} at z = {box_pts[i_bad]}")
    try:
        pts = random_shell_points(domain, rng, 1000,
                                  (-domain.eps_shell, domain.eps_shell))
    except ProjectionError as exc:
        raise DomainValidationError(
            "cannot sample the shell (level sets unreachable along some "
            f"rays): {exc}") from exc
    hess = real_hessian(domain, pts)
    eigs = np.linalg.eigvalsh(hess)
    i_min = int(np.argmin(eigs[:, 0]))
    lam_min = float(eigs[i_min, 0])
    if lam_min <= 0:
        raise DomainValidationError(
            "real Hessian not positive definite on the shell: "
            f"min eigenvalue {lam_min:.3g} at z = {pts[i_min]}")

    rel = _fd_consistency(domain, pts[::20])
    if rel > 1e-6:
        raise DomainValidationError(
            f"analytic derivatives disagree with finite differences "
            f"(max rel err {rel:.3g})")
    return {"hessian_min_eig": lam_min, "n_check": 1000,
            "fd_max_rel_err": float(rel)}


def _fd_consistency(domain, pts, h=1e-5):
    """Max relative error of grad/hess against central finite differences."""
    pts = np.atleast_2d(pts)
    n = domain.n
    g = np.asarray(domain.grad(pts))
    scale = 1.0 + np.abs(g).max()
    worst = 0.0
    for j in range(n):
        ex = np.zeros(n, complex); ex[j] = h
        ey = np.zeros(n, complex); ey[j] = 1j * h
        dx = (np.asarray(domain.rho(pts + ex)) - np.asarray(domain.rho(pts - ex))) / (2 * h)
        dy = (np.asarray(domain.rho(pts + ey)) - np.asarray(domain.rho(pts - ey))) / (2 * h)
        gj = 0.5 * (dx - 1j * dy)           # d/dz_j of a real function
        worst = max(worst, float(np.abs(gj - g[:, j]).max() / scale))
        # second derivatives: differentiate the analytic gradient
        gx = (np.asarray(domain.grad(pts + ex)) - np.asarray(domain.grad(pts - ex))) / (2 * h)
        gy = (np.asarray(domain.grad(pts + ey)) - np.asarray(domain.grad(pts - ey))) / (2 * h)
        hol = 0.5 * (gx - 1j * gy)          # d(grad)/dz_j  -> column j of H
        mix = 0.5 * (gx + 1j * gy)          # d(grad)/dzbar_j
        H = np.asarray(domain.hess_holo(pts))
        A = np.asarray(domain.hess_mixed(pts))
        hs = 1.0 + np.abs(H).max() + np.abs(A).max()
        worst = max(worst, float(np.abs(hol - H[:, :, j]).max() / hs))
        # d(grad_k)/dzbar_j = conj(d2 rho / dz_j dzbar_k)... A_kj entries
        worst = max(worst, float(np.abs(mix - np.conj(A[:, :, j])).max() / hs))
    return worst


# ---------------------------------------------------------------------------
# real derivatives
# ---------------------------------------------------------------------------

def real_hessian(domain, z):
    """Real 2n x 2n Hessian of rho, coordinates (x1, y1, ..., xn, yn)."""
    z = np.asarray(z, dtype=complex)
    H = np.asarray(domain.hess_holo(z))
    A = np.asarray(domain.hess_mixed(z))
    n = domain.n
    out = np.empty(z.shape[:-1] + (2 * n, 2 * n), dtype=float)
    # d2/dx_j dx_k = 2Re(H_jk + A_jk); d2/dy_j dy_k = 2Re(A_jk - H_jk)
    # d2/dx_j dy_k = 2Im(A_jk) - 2Im(H_jk) ... from d/dx = dz + dzbar etc.
    out[..., 0::2, 0::2] = 2 * (H.real + A.real)
    out[..., 1::2, 1::2] = 2 * (A.real - H.real)
    out[..., 0::2, 1::2] = 2 * (A.imag - H.imag)
    out[..., 1::2, 0::2] = -2 * (A.imag + H.imag)
    return out


def real_gradient(domain, z):
    """Real gradient of rho as a complex vector (equals 2 conj(grad))."""
    return 2.0 * np.conj(np.asarray(domain.grad(z)))


# ---------------------------------------------------------------------------
# radial parametrization of level sets (the domains are star shaped about 0)
# ---------------------------------------------------------------------------

def radial_level(domain, dirs, t, max_iter=60):
    """Radii r(theta) with rho(r * theta) = t for unit directions theta.

    Newton in r from r = 1; the catalog domains are strongly convex with the
    origin interior, so rho is strictly increasing in r near the shell.

    Each iteration runs over row blocks (:func:`row_blocks`): a first pass
    evaluates rho block by block, then a second builds the gradient, slope
    and step of each block, so the points and gradients of only one block
    are alive at once.  The stop test stays batch-wide (every row within
    1e-13), so the iteration count, and with it each row's result, is the
    one whole-batch call's whatever the block size.  The final residual
    check reads the last rho pass, which is the returned radii's, and
    :class:`ProjectionError` carries its maximum over the batch.
    """
    dirs = np.asarray(dirs, dtype=complex)
    shape = dirs.shape[:-1]
    dirs = dirs.reshape(-1, dirs.shape[-1])
    r = np.full(dirs.shape[0], 1.0, dtype=float)
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), shape).reshape(-1)
    blocks = row_blocks(r.size)
    val = np.empty_like(r)
    # max_iter Newton steps, each after a residual pass; the pass after the
    # last step is the final check's
    for it in range(max_iter + 1):
        for sl in blocks:
            val[sl] = np.asarray(domain.rho(r[sl, None] * dirs[sl])) \
                - t_arr[sl]
        if it == max_iter or np.all(np.abs(val) < 1e-13):
            break
        for sl in blocks:
            d = dirs[sl]
            g = np.asarray(domain.grad(r[sl, None] * d))
            slope = 2.0 * np.real(pairing(g, d))
            slope = np.where(np.abs(slope) < 1e-14, 1e-14, slope)
            r[sl] -= np.clip(val[sl] / slope, -0.2, 0.2)
    worst = np.abs(val).max(initial=0.0)
    if not worst < 1e-10:
        raise ProjectionError("radial level solve failed",
                              residual=float(worst))
    return r.reshape(shape)


def random_unit_directions(rng, m, n):
    v = rng.standard_normal((m, 2 * n))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return as_complex(v)


def random_shell_points(domain, rng, m, t_range):
    """Uniform-in-level random points with rho(z) in the given range."""
    dirs = random_unit_directions(rng, m, domain.n)
    ts = rng.uniform(t_range[0], t_range[1], size=m)
    r = radial_level(domain, dirs, ts)
    return r[:, None] * dirs


# ---------------------------------------------------------------------------
# nearest-point projection onto the boundary
# ---------------------------------------------------------------------------

# Newton's stopping tolerance, and the stationarity every returned
# projection is certified to
_NEWTON_TOL = 1e-11
STATIONARY_TOL = 1e-9


# rows per block of the batched row-wise passes (level-set radii, Leray
# densities, the collar evaluators); each row's arithmetic does not depend
# on the block it sits in
_ROW_BLOCK = 8192

# rows per block of the projection's per-point linear algebra (Newton
# steps, KKT certificates, the dbar solve): a block's 5 x 5 matrices and
# their solve copies stay a few MiB however large the batch, and on the
# collar each block is reflected, paired and contracted before the next is
# projected.  Smaller blocks lower the collar's peak memory further but
# spend more time in the per-call overhead of each Newton step.  Read at
# call time; each row's arithmetic does not depend on the block it sits in
_PROJECT_ROWS = 4096


def row_blocks(m, rows=None):
    """Slices covering rows 0..m-1 in consecutive blocks of ``rows`` rows.

    ``rows`` defaults to ``_ROW_BLOCK``, read at call time; the last slice
    stops at m.
    """
    rows = _ROW_BLOCK if rows is None else rows
    return [slice(s, min(s + rows, m)) for s in range(0, m, rows)]


def project_boundary(domain, z):
    """Nearest points on the boundary rho = 0 of a batch z, shape (M, n).

    Damped Newton on the KKT system (rho(xi) = 0, z - xi parallel to the real
    gradient) from the radial start, vectorized over row blocks of the
    batch; every domain, the ball included, takes this one path.  Every
    result is certified by :func:`_bordered_kkt`: a point that is not
    stationary to ``STATIONARY_TOL`` (Newton did not converge), or a
    critical point of the distance that is not the nearest point (past the
    focal set), raises :class:`ProjectionError`; so do a singular Newton
    system and a point with no radial direction (zero or non-finite).
    """
    pts = np.asarray(z, dtype=complex)
    xi = np.empty_like(pts)
    for sl, xi_block, _ in _project_certified(domain, pts):
        xi[sl] = xi_block
    return xi


def _project_certified(domain, z):
    """Nearest points of a batch z, certified one row block at a time.

    Yields ``(sl, xi, kkt)`` for the consecutive blocks ``sl`` of
    ``_PROJECT_ROWS`` rows: the block's nearest points and their certified
    KKT matrices, so no more than one block's matrices are alive at once.
    The first block that fails raises, before later blocks are projected.

    The radial Newton start is one whole-batch :func:`radial_level` call,
    since its stop test is batch-wide and per-block calls would move the
    start's last bits.  Only its radii outlive it: each block rebuilds its
    unit directions, row for row as the whole batch had them.  Before that
    call, the first row of the batch with no radial direction (zero or
    non-finite) raises, so the radial solve only sees unit directions; a
    failed radial solve then raises before any block is projected.  On the
    ball every unit direction meets the solve's stop test at r = 1, so no
    row takes a radial step and each row's result is its own, whatever the
    batch; on the collar Newton then stops at the start z/|z| too.
    """
    pts = np.asarray(z, dtype=complex)
    if pts.ndim != 2:
        raise ValueError("project_boundary takes a batch of points (M, n)")
    blocks = row_blocks(pts.shape[0], _PROJECT_ROWS)
    dirs = np.empty_like(pts)
    for sl in blocks:
        dirs[sl] = _unit_rows(pts[sl])
    radii = radial_level(domain, dirs, 0.0)
    del dirs    # freed before the blocks run
    for sl in blocks:
        xi = _project_newton(domain, pts[sl],
                             radii[sl, None] * _unit_rows(pts[sl]))
        yield sl, xi, _bordered_kkt(domain, pts[sl], xi)


def _unit_rows(pts):
    """Each row of pts scaled to unit length.

    A row with no radial direction (zero, or of non-finite length) raises
    :class:`ProjectionError` naming the first such row.
    """
    norm = np.linalg.norm(pts, axis=-1, keepdims=True)
    flat = ~((norm > 0.0) & (norm < np.inf))[:, 0]
    if np.any(flat):
        i = int(np.argmax(flat))
        raise ProjectionError(
            f"projection undefined at z={pts[i]}: the point is zero or "
            f"non-finite, so it has no radial direction")
    return pts / norm


def _project_newton(domain, pts, start):
    """Damped Newton from the radial start over one row block.

    Each row's steps depend on that row alone: the damping stops once every
    row has reduced its residual, and a row that has keeps its step while
    the others halve theirs.  So a row's result does not depend on which
    other rows share its block.
    """
    n = pts.shape[1]
    xi = start.copy()
    grad = real_gradient(domain, xi)
    lam = real_dot(pts - xi, grad) / np.maximum(real_dot(grad, grad), 1e-300)

    def residual(xi_c, lam_c, targets):
        g = real_gradient(domain, xi_c)
        f1 = as_real(targets - xi_c - lam_c[:, None] * g)
        f2 = np.asarray(domain.rho(xi_c))[:, None]
        return np.concatenate([f1, f2], axis=1)

    res = residual(xi, lam, pts)
    norm = np.linalg.norm(res, axis=1)
    active = norm > _NEWTON_TOL
    for _ in range(100):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        xa, la, pa, ra, cur = xi[idx], lam[idx], pts[idx], res[idx], norm[idx]
        kkt = _kkt_matrix(as_real(real_gradient(domain, xa)), la,
                          real_hessian(domain, xa))
        # the residual's Jacobian is kkt with its first 2n rows negated, so
        # the Newton step solves kkt step = [F1; -F2]
        ra[:, 2 * n] = -ra[:, 2 * n]
        try:
            step = np.linalg.solve(kkt, ra[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            i = int(np.argmin(np.abs(np.linalg.det(kkt))))
            raise ProjectionError(
                f"singular Newton system projecting z={pa[i]}",
                last_iterate=xa[i], residual=float(cur[i])) from exc
        del kkt, ra     # freed before the next iteration builds its own
        # damping: the longest step in {1, 1/2, ...} that reduces |F|, with
        # at most 25 halvings
        scale = np.ones(len(idx))
        for halvings in range(26):
            cand_xi = xa + as_complex(scale[:, None] * step[:, :2 * n])
            cand_la = la + scale * step[:, 2 * n]
            rc = residual(cand_xi, cand_la, pa)
            nc = np.linalg.norm(rc, axis=1)
            better = nc < cur
            if np.all(better) or halvings == 25:
                break
            scale = np.where(better, scale, scale * 0.5)
        xi[idx], lam[idx], res[idx], norm[idx] = cand_xi, cand_la, rc, nc
        active = norm > _NEWTON_TOL
    return xi


def unit_frame(g):
    """|g|, unit normal conj(g)/|g| and complex tangent (-g2, g1)/|g|, n = 2.

    ``g`` (N, 2) are holomorphic gradients; a vanishing one raises ValueError.
    The approach-region sampler builds its own tangent, of another phase
    (``koranyi._ray_ladder``); the phase places its sample points.
    """
    gn = np.linalg.norm(g, axis=-1)
    if np.any(gn < 1e-12):
        raise ValueError("degenerate gradient; cannot frame")
    nu = np.conj(g) / gn[:, None]
    u = np.empty_like(g)
    u[:, 0] = -g[:, 1] / gn
    u[:, 1] = g[:, 0] / gn
    return gn, nu, u


def symmetric_point(domain, z):
    """Reflection across the boundary: z* = 2 pr(z) - z.

    Test oracle for the z* of :func:`symmetric_point_dbar`; the tests take
    its central differences as the oracle of that function's dbar.
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    pr = project_boundary(domain, pts)
    out = 2.0 * pr - pts
    return out[0] if single else out


def _kkt_matrix(g, lam, hess):
    """Bordered matrices [[I + lam H, g], [g^T, 0]] from real g, lam and H."""
    m, d = g.shape
    kkt = np.zeros((m, d + 1, d + 1))
    kkt[:, :d, :d] = np.eye(d) + lam[:, None, None] * hess
    kkt[:, :d, d] = g
    kkt[:, d, :d] = g
    return kkt


def _bordered_kkt(domain, pts, xi):
    """The projection's bordered KKT matrix at xi, certified inside the reach.

    With the real gradient g and Hessian H at xi (coordinates x1, y1, ...,
    xn, yn) and lam = <z - xi, g> / |g|^2, the matrix is
    [[I + lam H, g], [g^T, 0]].  First xi must be stationary: |rho(xi)|
    and the tangential part z - xi - lam g at most ``STATIONARY_TOL``.  The
    nearest-point map is smooth inside the reach (Federer, Curvature
    measures, 1959), where I + lam H is positive definite on the tangent
    space, i.e. the bordered matrix has exactly one negative eigenvalue.
    Gershgorin (|lam| times the largest absolute row sum of H below 1)
    certifies this for the collar; the eigenvalues decide the remaining
    points.  A point that is not stationary, has a singular or non-finite
    matrix, or lies past a focal point (where xi is a critical point of the
    distance but not the nearest point) raises :class:`ProjectionError`
    naming the point.

    It certifies one row block of a batch (see :func:`_project_certified`).
    A row with no radial direction anywhere in the batch raises first, before
    the radial solve, and a failed radial solve next.  Otherwise, when
    points of several blocks fail, the earliest failing block raises,
    whatever its reason, and later blocks are never projected.  Within a
    block, a singular Newton system (raised before this certificate) wins,
    then non-stationarity, then a singular, non-finite or past-the-reach
    matrix; the certificate names the first row failing its check.
    """
    g = as_real(real_gradient(domain, xi))
    dz = as_real(pts - xi)
    lam = np.sum(dz * g, axis=-1) / np.sum(g * g, axis=-1)
    resid = np.maximum(np.abs(np.asarray(domain.rho(xi))),
                       np.linalg.norm(dz - lam[:, None] * g, axis=-1))
    del dz      # freed before the matrices are built
    # a NaN residual (non-finite xi) fails the matrix check below instead
    loose = resid > STATIONARY_TOL
    if np.any(loose):
        i = int(np.argmax(loose))
        raise ProjectionError(
            f"projection of z={pts[i]} is not stationary: residual "
            f"{resid[i]:.3g} above {STATIONARY_TOL:g}", last_iterate=xi[i],
            residual=float(resid[i]))
    hess = real_hessian(domain, xi)
    kkt = _kkt_matrix(g, lam, hess)
    finite = np.isfinite(kkt).all(axis=(1, 2))
    ok = finite & (np.abs(lam) * np.abs(hess).sum(axis=-1).max(axis=-1) < 1.0)
    rest = np.nonzero(finite & ~ok)[0]
    if rest.size:
        w = np.linalg.eigvalsh(kkt[rest])
        tol = 1e-12 * np.abs(w).max(axis=1)
        ok[rest] = (w[:, 0] < -tol) & (w[:, 1] > tol)
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise ProjectionError(
            f"projection undefined at z={pts[i]}: the bordered KKT matrix "
            f"is singular, non-finite or the point lies past the reach "
            f"(lam={lam[i]:.3g})", last_iterate=xi[i])
    return kkt


def symmetric_point_dbar(domain, z):
    """Reflection across the boundary with its dbar, one row block at a time.

    Differentiating the projection's KKT system xi + lam grad(rho)(xi) = z,
    rho(xi) = 0 gives the bordered system of :func:`_bordered_kkt`,

        [[I + lam H, grad rho], [grad rho^T, 0]] [dxi; dlam] = [dz; 0],

    solved once per point for the 2n real unit directions dz.  As z* =
    2 xi - z and z is holomorphic, d(z*_k)/d(zbar_j) = dxi_k/dx_j +
    i dxi_k/dy_j.  Points past the reach raise :class:`ProjectionError`.

    Yields ``(sl, z*, D)`` for the row blocks ``sl`` of
    :func:`_project_certified`: each block is solved with the matrices its
    projection certified, and its z* (B, n) and ``D[m, j, k] =
    d(z*_k)/d(zbar_j)`` (B, n, n) are handed on before the next block is
    projected, so a caller that consumes a block at a time keeps no
    whole-batch output.  The radial Newton start is still one whole-batch
    call (its stop test is batch-wide), so a row's values do not depend on
    the block size.
    """
    pts = np.atleast_2d(np.asarray(z, dtype=complex))
    for sl, xi, kkt in _project_certified(domain, pts):
        dbar = _reflection_dbar(kkt)
        del kkt     # freed before the next block is projected
        yield sl, 2.0 * xi - pts[sl], dbar


def _reflection_dbar(kkt):
    """D[m, j, k] = d(z*_k)/d(zbar_j) from certified KKT matrices.

    ``kkt`` has shape (B, 2n + 1, 2n + 1); see :func:`symmetric_point_dbar`.
    """
    d = kkt.shape[-1] - 1
    sol = np.linalg.solve(kkt, np.eye(d + 1, d))[:, :d]
    dxi = as_complex(np.swapaxes(sol, 1, 2))
    return dxi[:, 0::2] + 1j * dxi[:, 1::2]
