import collections
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import domain as dom
from hsconvex import koranyi

CATALOG = ("ball", "ellipsoid", "perturbed_ball")


@functools.lru_cache(maxsize=None)
def _catalog(name):
    return dom.from_catalog(name)


# a direction in R^4 and a level in the two-sided collar |rho| < eps_shell
_direction = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1)
_level = st.floats(-0.1, 0.1)


def _collar_point(domain, v, t):
    d = dom.as_complex(np.asarray(v) / np.linalg.norm(v))[None]
    return dom.radial_level(domain, d, t)[:, None] * d


def _reflect(domain, z):
    """(z*, D) of symmetric_point_dbar over the whole batch."""
    blocks = list(dom.symmetric_point_dbar(domain, z))
    return (np.concatenate([zs for _, zs, _ in blocks]),
            np.concatenate([d for _, _, d in blocks]))


def _fd_reflection(domain, z, h=1e-4):
    """(A, D) with A[..., j, k] = d(z*_k)/dz_j and D[..., j, k] =
    d(z*_k)/d(zbar_j) of the reflection, from one set of central
    differences of symmetric_point along x_j and y_j.

    The oracle of the closed form of symmetric_point_dbar: eight extra
    projections per point.  Newton stops each projection at a residual
    of _NEWTON_TOL = 1e-11, which the differences divide by 2h: at
    h = 1e-5 that alone reaches 1.3e-6 on the curved catalog domains
    (e.g. perturbed_ball at v = (0, 1, 2^-9, 0.00227), t = 0).  h = 1e-4
    keeps both it and the O(h^2) truncation near 1e-7.
    """
    n = domain.n
    dz = np.empty(z.shape[:-1] + (n, n), dtype=complex)
    dzbar = np.empty_like(dz)
    for j in range(n):
        ex = np.zeros(n, complex)
        ex[j] = h
        sx = (dom.symmetric_point(domain, z + ex)
              - dom.symmetric_point(domain, z - ex)) / (2 * h)
        sy = (dom.symmetric_point(domain, z + 1j * ex)
              - dom.symmetric_point(domain, z - 1j * ex)) / (2 * h)
        dz[..., j, :] = 0.5 * (sx - 1j * sy)
        dzbar[..., j, :] = 0.5 * (sx + 1j * sy)
    return dz, dzbar


def _project(domain, z):
    """Nearest boundary point of one point."""
    return dom.project_boundary(domain, z[None])[0]


def _normal(domain, xi):
    """Unit normal conj(g)/|g| at one point, as the Leray density frames it."""
    return dom.unit_frame(np.asarray(domain.grad(xi))[None])[1][0]


def fd_gradient(domain, z, h=1e-6):
    n = domain.n
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        ex = np.zeros(n, complex)
        ex[j] = h
        ey = np.zeros(n, complex)
        ey[j] = 1j * h
        dx = (domain.rho(z + ex) - domain.rho(z - ex)) / (2 * h)
        dy = (domain.rho(z + ey) - domain.rho(z - ey)) / (2 * h)
        out[j] = 0.5 * (dx - 1j * dy)
    return out


class TestEval:
    def test_ball_boundary_point(self, ball):
        z = np.array([1.0, 0.0], complex)
        assert ball.rho(z) == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(ball.grad(z), [1.0, 0.0])
        assert np.allclose(ball.hess_mixed(z), np.eye(2))
        assert np.allclose(ball.hess_holo(z), 0.0)

    def test_ellipsoid_origin(self, ellipsoid):
        z = np.zeros(2, complex)
        assert ellipsoid.rho(z) == pytest.approx(-1.0)
        assert np.allclose(ellipsoid.grad(z), 0.0)
        assert np.allclose(np.diag(ellipsoid.hess_mixed(z)), [2.0, 1.0])

    def test_perturbed_fd_oracle(self, perturbed, rng):
        pts = dom.random_shell_points(perturbed, rng, 20, (-0.08, 0.08))
        g = perturbed.grad(pts)
        for i in range(0, 20, 5):
            fd = fd_gradient(perturbed, pts[i])
            assert np.abs(fd - g[i]).max() <= 1e-6 * (1 + np.abs(g[i]).max())

    def test_validation_rejects_nonconvex(self):
        with pytest.raises(dom.DomainValidationError):
            dom.perturbed_ball(beta=1.5)

    def test_validation_requires_interior_origin(self, ball):
        shifted = dom.make_domain(
            2, lambda z: np.sum(np.abs(np.asarray(z) - 2.0) ** 2, -1) - 1,
            lambda z: np.conj(np.asarray(z) - 2.0),
            ball.hess_mixed, ball.hess_holo, 0.1, validate=False)
        with pytest.raises(dom.DomainValidationError):
            dom.validate_domain(shifted)


# the constant complex Hessian blocks (A, H) of the default catalog domains
_HESSIANS = {
    "ball": (np.eye(2), np.zeros((2, 2))),
    "ellipsoid": (np.diag([2.0, 1.0]), np.zeros((2, 2))),
    "perturbed_ball": (np.eye(2), np.diag([0.1, 0.0])),
}


class TestCatalogHessians:
    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_read_only_constants(self, name, shape):
        d = _catalog(name)
        z = np.full(shape + (2,), 0.3 - 0.2j)
        for fn, m in zip((d.hess_mixed, d.hess_holo), _HESSIANS[name]):
            h = fn(z)
            assert h.shape == shape + (2, 2) and h.dtype == complex
            assert np.array_equal(h, np.broadcast_to(m, h.shape))
            assert not h.flags.writeable

    @pytest.mark.parametrize("name", CATALOG)
    def test_no_per_point_allocation(self, name, traced_peak_mib):
        # a copied (100000, 2, 2) complex array would be 6.1 MiB
        d = _catalog(name)
        z = np.full((100_000, 2), 0.3 - 0.2j)
        for fn in (d.hess_mixed, d.hess_holo):
            assert traced_peak_mib(lambda: fn(z)) < 0.1


class TestProjection:
    def test_ball_outside(self, ball):
        xi = _project(ball, np.array([1.2, 0.0], complex))
        assert np.allclose(xi, [1.0, 0.0], atol=1e-10)

    def test_ball_inside(self, ball):
        xi = _project(ball, np.array([0.9, 0.0], complex))
        assert np.allclose(xi, [1.0, 0.0], atol=1e-10)

    def test_ball_matches_closed_form(self, ball):
        # the ball takes the curved domains' path; its closed form z/|z| is
        # the oracle: on unit directions the radial solve stops at r = 1 and
        # Newton at its start z/|z|, so the bits agree
        z = dom.random_shell_points(ball, np.random.default_rng(0), 20000,
                                    (-0.1, 0.1))
        assert np.array_equal(dom.project_boundary(ball, z),
                              z / np.linalg.norm(z, axis=-1, keepdims=True))

    @pytest.mark.parametrize("name", CATALOG)
    def test_no_radial_direction_raises(self, name):
        d = _catalog(name)
        for project in (dom.project_boundary, _reflect):
            with pytest.raises(dom.ProjectionError,
                               match=r"z=\[0\.\+0\.j 0\.\+0\.j\]"):
                project(d, np.zeros((1, 2), complex))

    @pytest.mark.parametrize("name", CATALOG)
    def test_no_radial_direction_raises_before_radial_solve(self, name,
                                                            monkeypatch):
        # the first such row of the batch is named, past the first block
        d = _catalog(name)
        pts = dom.random_shell_points(d, np.random.default_rng(1), 12,
                                      (-0.1, 0.1))
        pts[9] = [np.nan, 0.5]
        pts[11] = 0.0
        monkeypatch.setattr(dom, "_PROJECT_ROWS", 4)
        monkeypatch.setattr(dom, "radial_level", None)
        with pytest.raises(dom.ProjectionError,
                           match=r"z=\[nan\+0\.j 0\.5\+0\.j\]"):
            dom.project_boundary(d, pts)

    def test_ellipsoid_vs_dense_argmin(self, ellipsoid):
        z = np.array([0.8, 0.0], complex)
        xi = _project(ellipsoid, z)
        assert np.allclose(xi, [1 / np.sqrt(2), 0.0], atol=1e-8)
        # dense boundary sampling oracle
        th = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
        cand = np.stack([np.cos(th) / np.sqrt(2), np.sin(th)], axis=-1)
        cand = cand * (1.0 / np.sqrt(2 * np.cos(th) ** 2 + np.sin(th) ** 2
                                     ))[:, None]
        # oracle along the real (z1, z2) slice through z
        vals = np.abs(cand[:, 0] - 0.8) ** 2 + np.abs(cand[:, 1]) ** 2
        assert np.sum(np.abs(z - xi) ** 2) <= vals.min() + 1e-8

    def test_point_data_invariants(self, perturbed):
        # the frame the approach-region sampler builds at a projected point:
        # unit normal and unit complex tangent, Hermitian-orthogonal
        xi = _project(perturbed, np.array([1.0 + 0.1j, 0.2], complex))
        assert abs(perturbed.rho(xi)) <= 1e-10
        nu, u = koranyi._ray_ladder(perturbed, xi, "external", 0.25, 0.1,
                                    1e-3, 0.1, 12, 3, 8, 8)[:2]
        g = perturbed.grad(xi)
        assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert abs(np.vdot(nu, u)) <= 1e-12
        assert abs(np.sum(g * u)) <= 1e-8
        assert np.abs(nu - np.conj(g) / np.linalg.norm(g)).max() <= 1e-15

    def test_idempotence(self, perturbed, rng):
        pts = dom.random_shell_points(perturbed, rng, 10, (0.01, 0.09))
        xi = dom.project_boundary(perturbed, pts)
        xi2 = dom.project_boundary(perturbed, xi + 0)
        assert np.abs(xi - xi2).max() <= 1e-8

    def test_past_focal_set_raises(self, ellipsoid):
        # Newton stops at the critical point (0, 1), which is not the
        # nearest boundary point of (0, 0.4): |z1|^2 = 0.18, z2 = 0.8 is
        # closer
        with pytest.raises(dom.ProjectionError,
                           match=r"z=\[0\. +\+0\.j 0\.4\+0\.j\]"):
            dom.project_boundary(ellipsoid, np.array([[0.0, 0.4]], complex))

    @pytest.mark.parametrize("name", ["ellipsoid", "perturbed_ball"])
    def test_two_sided_collar_within_reach(self, name):
        d = _catalog(name)
        rng = np.random.default_rng(0)
        pts = dom.random_shell_points(d, rng, 20000, (-0.1, 0.1))
        xi = dom.project_boundary(d, pts)
        assert np.abs(d.rho(xi)).max() <= 1e-9

    def test_failure_carries_iterate(self, ball):
        with pytest.raises(dom.ProjectionError) as info:
            dom.radial_level(ball, np.array([[1.0, 0.0]], dtype=complex),
                             5.0, max_iter=1)
        assert info.value.residual is not None

    def test_unconverged_newton_raises(self, ellipsoid, monkeypatch):
        # a zero Newton step leaves every row at its radial start, which off
        # the axes is not stationary; no other method may take over
        rng = np.random.default_rng(5)
        pts = dom.random_shell_points(ellipsoid, rng, 8, (-0.1, 0.1))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.zeros_like(b))
        with pytest.raises(dom.ProjectionError,
                           match="not stationary") as info:
            dom.project_boundary(ellipsoid, pts)
        assert any(f"z={p}" in str(info.value) for p in pts)
        assert info.value.last_iterate is not None

    def test_singular_newton_system_raises(self, ellipsoid, monkeypatch):
        # one singular solve fails the batch: no least-squares step, and no
        # retry on the next iteration
        rng = np.random.default_rng(5)
        pts = dom.random_shell_points(ellipsoid, rng, 8, (-0.1, 0.1))
        solve, calls = np.linalg.solve, []

        def singular_once(a, b):
            calls.append(len(a))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        with pytest.raises(dom.ProjectionError,
                           match="singular Newton system") as info:
            dom.project_boundary(ellipsoid, pts)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert any(f"z={p}" in str(info.value) for p in pts)
        assert len(calls) == 1


# a small row block and the batch sizes around it
_BLOCK = 8
_BATCH_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17)
_PAST_REACH = r"z=\[0\. +\+0\.j 0\.4\+0\.j\]"


class TestRowBlocks:
    """Per-point linear algebra in row blocks equals one block, bit for bit."""

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("m", _BATCH_SIZES)
    def test_blocked_equals_one_block(self, name, m, monkeypatch):
        d = _catalog(name)
        pts = dom.random_shell_points(d, np.random.default_rng(m), m,
                                      (-0.1, 0.1))

        def run(block):
            monkeypatch.setattr(dom, "_ROW_BLOCK", block)
            monkeypatch.setattr(dom, "_PROJECT_ROWS", block)
            return (*_reflect(d, pts), dom.project_boundary(d, pts))

        for blocked, whole in zip(run(_BLOCK), run(m)):
            assert np.array_equal(blocked, whole)

    def test_error_names_the_point_past_the_first_block(self, ellipsoid):
        # (0, 0.4) lies past the reach (see test_past_focal_set_raises); in
        # a later block it must be named as it is on its own
        b = dom._PROJECT_ROWS
        pts = dom.random_shell_points(ellipsoid, np.random.default_rng(0),
                                      2 * b, (-0.1, 0.1))
        pts[b + 3] = [0.0, 0.4]
        with pytest.raises(dom.ProjectionError, match=_PAST_REACH) as alone:
            dom.project_boundary(ellipsoid, pts[b + 3:b + 4])
        assert np.allclose(alone.value.last_iterate, [0.0, 1.0])
        for fn in (dom.project_boundary, _reflect):
            with pytest.raises(dom.ProjectionError, match=_PAST_REACH) as info:
                fn(ellipsoid, pts)
            assert str(info.value) == str(alone.value)
            assert np.array_equal(info.value.last_iterate,
                                  alone.value.last_iterate)

    def test_dbar_peak_memory(self, ellipsoid, traced_peak_mib):
        # 65,536 collar points: 65.2 MiB with every point's KKT matrix alive
        # at once, 20.0 MiB in row blocks with whole-batch outputs, 9.4 MiB
        # with the blocks handed on as they come
        pts = dom.random_shell_points(ellipsoid, np.random.default_rng(0),
                                      65536, (-0.1, 0.1))
        peak = traced_peak_mib(lambda: collections.deque(
            dom.symmetric_point_dbar(ellipsoid, pts), maxlen=0))
        assert peak <= 16.0


# row blocks of 1, 7 and 8193 rows, each on a batch of two blocks and a
# partial third, against one block that covers the batch
_ORACLE_BLOCKS = (1, 7, 8193)


def _oracle_batch(block):
    return 2 * block + 47


class TestBlockedRadialLevel:
    """radial_level in row blocks equals one block, bit for bit."""

    @staticmethod
    def _batch(d, m):
        rng = np.random.default_rng(m)
        dirs = dom.random_unit_directions(rng, m, 2)
        ts = rng.uniform(-0.1, 0.5, m)
        # on the ellipsoid rho(e2) = 0: this row starts converged, the
        # others take up to several Newton steps from r = 1
        dirs[0], ts[0] = [0.0, 1.0], 0.0
        return dirs, ts

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("block", _ORACLE_BLOCKS)
    def test_blocked_equals_one_block(self, name, block, monkeypatch):
        d = _catalog(name)
        m = _oracle_batch(block)
        dirs, ts = self._batch(d, m)
        monkeypatch.setattr(dom, "_ROW_BLOCK", block)
        blocked = dom.radial_level(d, dirs, ts)
        monkeypatch.setattr(dom, "_ROW_BLOCK", m)
        assert np.array_equal(blocked, dom.radial_level(d, dirs, ts))

    def test_rows_converge_at_different_iterations(self, ellipsoid):
        dirs, ts = self._batch(ellipsoid, 61)
        assert dom.radial_level(ellipsoid, dirs[:1], ts[:1],
                                max_iter=0)[0] == 1.0
        with pytest.raises(dom.ProjectionError):
            dom.radial_level(ellipsoid, dirs, ts, max_iter=1)

    @staticmethod
    def _counted(d):
        """d with its rho and grad calls counted."""
        calls = collections.Counter()

        def rho(z):
            calls["rho"] += 1
            return d.rho(z)

        def grad(z):
            calls["grad"] += 1
            return d.grad(z)
        return dataclasses.replace(d, rho=rho, grad=grad), calls

    @pytest.mark.parametrize("name", CATALOG)
    def test_converged_solve_reuses_last_residuals(self, name):
        # one block: each Newton step is one grad pass and follows one rho
        # pass, and one more rho pass sees convergence; the final check
        # reads that pass instead of evaluating rho once more
        d = _catalog(name)
        spied, calls = self._counted(d)
        dirs, ts = self._batch(d, 61)
        r = dom.radial_level(spied, dirs, ts)
        assert calls["grad"] >= 2
        assert calls["rho"] == calls["grad"] + 1
        assert np.abs(d.rho(r[:, None] * dirs) - ts).max() < 1e-13

    def test_stopped_solve_checks_fresh_residuals(self, ellipsoid):
        # stopped at max_iter, the last step moved r after its rho pass, so
        # one more pass checks the returned radii
        spied, calls = self._counted(ellipsoid)
        dirs, ts = self._batch(ellipsoid, 61)
        with pytest.raises(dom.ProjectionError) as info:
            dom.radial_level(spied, dirs, ts, max_iter=1)
        assert (calls["rho"], calls["grad"]) == (2, 1)
        val = ellipsoid.rho(dirs) - ts
        slope = 2.0 * np.real(dom.pairing(ellipsoid.grad(dirs), dirs))
        r1 = 1.0 - np.clip(val / slope, -0.2, 0.2)
        assert info.value.residual == \
            np.abs(ellipsoid.rho(r1[:, None] * dirs) - ts).max()

    @pytest.mark.parametrize("block", _ORACLE_BLOCKS)
    def test_failure_residual_is_the_batch_maximum(self, ellipsoid, block,
                                                   monkeypatch):
        # two unreachable levels in different blocks: r moves at most 0.2 a
        # step, so 60 steps fall far short of r ~ 100; the residual is the
        # larger of the two, whatever the blocks
        m = _oracle_batch(block)
        dirs, ts = self._batch(ellipsoid, m)
        ts[1], ts[-1] = 1e4, 2e4

        def residual(rows):
            monkeypatch.setattr(dom, "_ROW_BLOCK", rows)
            with pytest.raises(dom.ProjectionError,
                               match="radial level solve failed") as info:
                dom.radial_level(ellipsoid, dirs, ts)
            return info.value.residual

        whole = residual(m)
        assert whole > 1e4
        assert residual(block) == whole


class TestSumLast:
    """sum_last is np.sum over the last axis, bit for bit."""

    _VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e308,
               -5e-324)

    @staticmethod
    def _same_bits(x):
        with np.errstate(all="ignore"):
            ours, ref = dom.sum_last(x), np.sum(x, axis=-1)
        return np.array_equal(np.asarray(ours).view(np.int64),
                              np.asarray(ref).view(np.int64))

    def test_real_pairs(self):
        x = np.array(list(itertools.product(self._VALUES, repeat=2)))
        assert self._same_bits(x)
        assert self._same_bits(x[::3])            # strided rows
        assert self._same_bits(x.reshape(-1, 1, 3, 2))

    def test_complex_pairs(self):
        parts = np.array(list(itertools.product(self._VALUES, repeat=4)))
        x = np.empty((len(parts), 2), dtype=complex)
        x.real, x.imag = parts[:, 0::2], parts[:, 1::2]
        assert self._same_bits(x)
        assert self._same_bits(x[:, None, :])

    def test_negative_zeros_sum_to_positive_zero(self):
        for x in (np.array([-0.0, -0.0]), np.array([-0.0 - 0.0j] * 2)):
            s = dom.sum_last(x)
            assert np.signbit(np.real(s)) == np.signbit(np.sum(x).real)
            assert not np.signbit(np.real(s))

    def test_other_lengths_fall_back(self):
        rng = np.random.default_rng(0)
        for shape in ((50, 3), (50, 1), (50, 4)):
            x = rng.standard_normal(shape)
            x[0] = np.inf
            x[1, 0] = np.nan
            assert self._same_bits(x)
            assert self._same_bits(x + 1j * rng.standard_normal(shape))


class TestSymmetricPoint:
    def test_ball_radial(self, ball):
        zs = dom.symmetric_point(ball, np.array([1.2, 0.0], complex))
        assert np.allclose(zs, [0.8, 0.0], atol=1e-10)

    def test_ball_along_axis(self, ball):
        zs = dom.symmetric_point(ball, np.array([0.0, 1.05], complex))
        assert np.allclose(zs, [0.0, 0.95], atol=1e-10)

    def test_perturbed_distance_symmetry(self, perturbed):
        xi = _project(perturbed, np.array([1.0, 0.1], complex))
        z = xi + 0.05 * _normal(perturbed, xi)
        zs = dom.symmetric_point(perturbed, z)
        pr = dom.project_boundary(perturbed, z[None])[0]
        assert abs(np.linalg.norm(zs - pr) - np.linalg.norm(z - pr)) <= 1e-8
        assert perturbed.rho(zs) < 0

    def test_involution_comparability(self, ball, rng):
        pts = dom.random_shell_points(ball, rng, 50, (1e-3, 0.025))
        zs = dom.symmetric_point(ball, pts)
        ratio = np.abs(ball.rho(zs)) / np.abs(ball.rho(pts))
        assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0)


class TestReflectionDerivative:
    """symmetric_point_dbar: the KKT closed form of d(z*)/d(zbar)."""

    @pytest.mark.parametrize("name", CATALOG)
    @given(v=_direction, t=_level)
    @settings(max_examples=20, deadline=None)
    def test_matches_fd_oracle(self, name, v, t):
        d = _catalog(name)
        z = _collar_point(d, v, t)
        zs, D = _reflect(d, z)
        assert np.array_equal(zs, dom.symmetric_point(d, z))
        assert np.abs(D - _fd_reflection(d, z)[1]).max() <= 1e-6

    @pytest.mark.parametrize("name", CATALOG)
    @given(v=_direction, t=_level)
    @settings(max_examples=20, deadline=None)
    def test_projection_is_idempotent(self, name, v, t):
        d = _catalog(name)
        xi = dom.project_boundary(d, _collar_point(d, v, t))
        assert np.abs(dom.project_boundary(d, xi) - xi).max() <= 1e-9
        xs, D = _reflect(d, xi)
        assert np.abs(xs - xi).max() <= 1e-9
        # on the boundary lam = 0 and dxi is the tangent projector, so
        # d(z*_k)/d(zbar_j) = -nu_j nu_k with nu the unit normal
        nu = _normal(d, xi[0])
        assert np.abs(D[0] + np.outer(nu, nu)).max() <= 1e-9

    @pytest.mark.parametrize("name", CATALOG)
    @given(v=_direction, t=_level)
    @settings(max_examples=20, deadline=None)
    def test_reflection_is_an_involution(self, name, v, t):
        d = _catalog(name)
        z = _collar_point(d, v, t)
        zs, D = _reflect(d, z)
        zss, Ds = _reflect(d, zs)
        assert np.abs(dom.project_boundary(d, zs)
                      - dom.project_boundary(d, z)).max() <= 1e-9
        assert np.abs(zss - z).max() <= 1e-9
        # z** = z has zero dbar: D(z) A(z*) + conj(A(z)) D(z*) = 0 with
        # A = d(z*)/dz by central differences
        res = D[0] @ _fd_reflection(d, zs)[0][0] \
            + np.conj(_fd_reflection(d, z)[0][0]) @ Ds[0]
        assert np.abs(res).max() <= 1e-5

    @given(v=_direction, r=st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_ball_closed_form(self, v, r):
        # z* = z (2/|z| - 1), so d(z*_k)/d(zbar_j) = -z_j z_k / |z|^3; past
        # |z| = 2 (lam >= 1/2) the Gershgorin certificate fails and the
        # eigenvalue check accepts the point
        z = r * dom.as_complex(np.asarray(v) / np.linalg.norm(v))[None]
        _, D = _reflect(_catalog("ball"), z)
        assert np.abs(D[0] + np.outer(z[0], z[0]) / r ** 3).max() <= 1e-12

    def test_outside_reach_raises(self, ellipsoid, ball):
        # from (0, 0.4) the projection stops at the critical point (0, 1),
        # past the focal point of the z1 directions (1 + 4 lam < 0 there)
        with pytest.raises(dom.ProjectionError,
                           match=r"z=\[0\. +\+0\.j 0\.4\+0\.j\]"):
            _reflect(ellipsoid, np.array([[0.0, 0.4]], complex))
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(dom.ProjectionError, match="non-finite"):
            _reflect(ball, np.zeros((1, 2), complex))

