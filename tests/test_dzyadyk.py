import numpy as np
import pytest

from hsconvex import domain as dom, dzyadyk, forms


class TestLune:
    def test_ball_pole(self, ball):
        lune = dzyadyk.lune_of(ball, np.array([1.0, 0.0], complex), R=1.05)
        assert lune.t == pytest.approx(np.pi / 2)
        assert lune.contains(0.0) and lune.contains(1.0)

    def test_chord_point(self, ball):
        xi = np.array([1.02, 0.0], complex) / np.sqrt(1.02)
        lune = dzyadyk.lune_of(ball, xi, R=1.05)
        lam_self = 1.0   # lambda(xi, xi) by construction
        assert lune.contains(lam_self)

    def test_membership_sweep_ellipsoid(self, ellipsoid, rng):
        R = dzyadyk.lune_radius(ellipsoid)
        dirs = dom.random_unit_directions(rng, 200, 2)
        ts = rng.uniform(1e-3, 0.1, 200)
        rr = dom.radial_level(ellipsoid, dirs, ts)
        xi = rr[:, None] * dirs
        zdir = dom.random_unit_directions(rng, 200, 2)
        rz = dom.radial_level(ellipsoid, zdir, 0.0)
        z = rng.uniform(0, 1, (200, 1)) ** 0.25 * rz[:, None] * zdir
        g = ellipsoid.grad(xi)
        c = np.sum(g * xi, axis=-1)
        lam = np.sum(g * z, axis=-1) / c
        for i in range(0, 200, 7):
            lune = dzyadyk.lune_of(ellipsoid, xi[i], R=R)
            assert lune.contains(lam[i])

    def test_interior_origin_required(self, ball):
        with pytest.raises(ValueError):
            dzyadyk.lune_of(ball, np.array([1e-8, 1e-8], complex), R=1.05)


class TestBuildT:
    def test_certificate_self_consistency(self):
        lune = dzyadyk.Lune(t=np.pi / 2, R=1.05)
        T = dzyadyk.build_T(1, 0.5, lune)
        err0 = abs(T(np.array([0.0]))[0] - 1.0)
        assert err0 <= T.cert["C1"] * 1.0 ** (-0.5) + 1e-12

    def test_certificate_sweep_flat(self):
        # the sweep runs at the rate where the desk-scale window sits in the
        # asymptotic regime; see the kernel-approximation notes
        lune = dzyadyk.Lune(t=np.pi / 2, R=1.05)
        c1 = [dzyadyk.build_T(j, 0.5, lune).cert["C1"]
              for j in (4, 8, 16, 32)]
        slope = np.polyfit(np.log([4, 8, 16, 32]), np.log(c1), 1)[0]
        assert slope <= 0.1
        assert all(np.isfinite(c1))

    def test_interior_budget_and_geometric_oracle(self):
        # the geometric-series oracle bound on |lambda| <= 0.5; the weighted
        # construction cannot beat it at larger j (bounded certificates force
        # only polynomially small interior error), so the assertion is the
        # certificate-implied budget, with the oracle value recorded
        lune = dzyadyk.Lune(t=np.pi / 2, R=1.05)
        lam = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        for j in (4, 8):
            T = dzyadyk.build_T(j, 1.0, lune)
            measured = np.abs(T(lam) - 1.0 / (1.0 - lam)).max()
            geo_oracle = 2.0 * 0.5 ** (j + 1)
            budget = T.cert["C1"] * j ** (-1.0) * 0.5 ** (-2.0)
            assert measured <= budget * 1.05
            assert geo_oracle < budget   # the honest relation at this scale

    def test_continuity_in_t(self):
        lune1 = dzyadyk.Lune(t=np.pi / 2, R=1.05)
        lune2 = dzyadyk.Lune(t=np.pi / 2 + dzyadyk.T_QUANT_STEP, R=1.05)
        c1 = dzyadyk.build_T(8, 0.5, lune1).cert["C1"]
        c2 = dzyadyk.build_T(8, 0.5, lune2).cert["C2"]
        c2full = dzyadyk.build_T(8, 0.5, lune2).cert["C1"]
        assert abs(c2full - c1) / c1 <= 0.1

    def test_moment_pinning(self):
        lune = dzyadyk.Lune(t=np.pi / 2, R=1.05)
        T = dzyadyk.build_T(8, 2.0, lune, moment_exact=4)
        lc = T.lambda_coeffs()
        assert np.allclose(lc[:5], 1.0, atol=1e-12)

    @pytest.mark.parametrize("q", [-2, 8, 9])
    def test_moment_exact_outside_range_raises(self, q):
        # at least the top coefficient is fitted: q in [0, j)
        lune = dzyadyk.Lune(t=np.pi / 2, R=1.05)
        with pytest.raises(ValueError, match="moment_exact"):
            dzyadyk.build_T(8, 0.5, lune, moment_exact=q)

    def test_degree_reduction(self, ball):
        # a thin lune at j = 64: the weighted Vandermonde's condition number
        # passes 1e12, so the degree drops (to 51) until it does not, and the
        # certificate says so
        lune = dzyadyk.Lune(t=0.3, R=dzyadyk.lune_radius(ball))
        T = dzyadyk.build_T(64, 0.5, lune)
        assert T.cert["flagged"] and T.cert["j"] == 64
        assert len(T.coeffs) - 1 < 64
        assert T.cert["cond"] <= 1e12
        assert np.isfinite(T.cert["C1"]) and np.isfinite(T.cert["C2"])


class TestKglob:
    def test_pinned_fits_pin_half_the_orders(self, ball):
        # the approximant computes j = ceil(k / n) once; pinned fits pin
        # j // 2 Taylor orders, free fits none (build_T records -1)
        for k in (8, 16):
            free = dzyadyk.build_Kglob(ball, k, r=2.0)
            pinned = dzyadyk.build_Kglob(ball, k, r=2.0, pinned=True)
            assert free.j == pinned.j == k // 2
            tq = np.pi / 2
            assert pinned.approximant_for(tq).cert["moment_exact"] == \
                k // 4
            assert free.approximant_for(tq).cert["moment_exact"] == -1
        with pytest.raises(TypeError):
            dzyadyk.KernelApproximant(ball, 8, 2.0, 1.05, j=3)

    def test_center_value(self, ball):
        kg = dzyadyk.build_Kglob(ball, 8, r=0.5)
        xi = np.array([[1.0, 0.0]], complex)
        val = kg.eval_pairs(xi, ball.grad(xi), np.zeros((1, 2), complex))[0]
        # lambda = 0 there, so the value carries the fit's origin error
        T = kg.approximant_for(np.pi / 2)
        budget = T.cert["C1"] * kg.j ** (-0.5)
        assert abs(val - 1.0) <= 3.0 * budget

    def test_polynomial_degree_structure(self, ball, rng):
        kg = dzyadyk.build_Kglob(ball, 8, r=0.5)
        xi = np.array([1.0, 0.0], complex) * np.sqrt(1.02)
        # interpolated coefficient expansion agrees with direct evaluation
        T = kg.approximant_for(np.pi / 2)
        D = np.convolve(T.lambda_coeffs(), T.lambda_coeffs())
        assert D.size - 1 <= kg.j * 2
        g = ball.grad(xi)
        c = np.sum(g * xi)
        zs = 0.7 * dom.random_unit_directions(rng, 12, 2)
        lam = (zs @ g) / c
        direct = kg.eval_pairs(np.broadcast_to(xi, zs.shape),
                               np.broadcast_to(g, zs.shape), zs)
        series = np.polynomial.polynomial.polyval(lam, D) / c ** 2
        assert np.abs(direct - series).max() <= 1e-8 * np.abs(direct).max()

    def test_near_regime_bound(self, ball, rng):
        kg = dzyadyk.build_Kglob(ball, 2, r=0.5)
        rep = dzyadyk.validate_Kglob(ball, kg, n_xi=200, n_z=30, seed=5)
        assert rep["C_near"] <= 10.0

    def test_far_trend_no_blowup(self, ball):
        cf = []
        for k in (8, 16, 32, 64):
            kg = dzyadyk.build_Kglob(ball, k, r=0.5)
            cf.append(dzyadyk.validate_Kglob(ball, kg, seed=11)["C_far"])
        slope = np.polyfit(np.log([8, 16, 32, 64]), np.log(cf), 1)[0]
        assert slope <= 0.1

    def test_exact_kernel_oracle_zero(self, ball):
        kg = dzyadyk.build_Kglob(ball, 16, r=0.5)
        rep = dzyadyk.validate_Kglob(
            ball, kg, seed=11,
            exact=lambda xi, z: forms.clf_kernel(ball, xi, z))
        assert rep["C_far"] == 0.0

    def test_monotone_improvement(self, ball, rng):
        dirs = dom.random_unit_directions(rng, 80, 2)
        rr = dom.radial_level(ball, dirs, 0.05)
        xi = rr[:, None] * dirs
        z = 0.5 * dom.random_unit_directions(rng, 80, 2)
        kern = forms.clf_kernel(ball, xi, z)
        sups = []
        for k in (8, 16, 32, 64):
            kg = dzyadyk.build_Kglob(ball, k, r=0.5)
            g = ball.grad(xi)
            approx = kg.eval_pairs(xi, g, z)
            sups.append(np.abs(kern - approx).max())
        for a, b in zip(sups, sups[1:]):
            assert b <= 1.2 * a
