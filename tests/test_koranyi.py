import numpy as np
import pytest

from hsconvex import corpus, domain as dom, forms, homtype, koranyi


E1 = np.array([1.0, 0.0], complex)


@pytest.fixture(scope="module")
def ext_sample(ball):
    return koranyi.sample_region(ball, E1, "external", eta=0.25, eps=0.1)


@pytest.fixture(scope="module")
def int_sample(ball):
    return koranyi.sample_region(ball, E1, "internal", eta=0.25, eps=0.1)


class TestSampler:
    def test_external_membership_exact(self, ball, ext_sample):
        s = ext_sample
        bp = dom.boundary_point_data(ball, E1)
        a = (s.points - E1) @ np.conj(bp.ct_frame[0])
        t = (s.points - E1) @ np.conj(bp.normal)
        assert np.all(s.rho > 0) and np.all(s.rho < 0.1)
        assert np.all(np.abs(a) ** 2 < 0.25 * s.rho)
        assert np.all(np.abs(t.imag) < 0.25 * s.rho)

    def test_internal_membership_exact(self, ball, int_sample):
        s = int_sample
        assert np.all(s.rho < 0) and np.all(s.rho > -0.1)
        pr = dom.project_boundary(ball, s.points, 0.0)
        d = homtype.qdist(ball, pr, E1)
        assert np.all(d < 0.25 * np.abs(s.rho))

    def test_internal_contains_normal_segment(self, ball, int_sample):
        # points hugging the inward normal ray are inside the region;
        # the sampler's hull must reach them
        depth = np.abs(int_sample.rho).max()
        assert depth >= 0.09

    def test_volume_scaling_slope(self, ext_sample):
        th = 0.1 * 2.0 ** -np.arange(6, dtype=float)
        vols = koranyi.region_volume_profile(ext_sample, th)
        slope = np.polyfit(np.log(th), np.log(vols), 1)[0]
        assert abs(slope - 3.0) <= 0.2

    def test_empty_region_raises(self, ball):
        with pytest.raises(ValueError):
            koranyi.sample_region(ball, E1, "external", eta=0.25, eps=0.1,
                                  rho_min=0.09, rho_max=0.0901,
                                  resolution=(12, 1, 2, 4, 2))

    def test_eta_curvature_guard(self, ball):
        with pytest.raises(ValueError, match="eta"):
            koranyi.sample_region(ball, E1, "external", eta=0.9, eps=0.1)

    @pytest.mark.parametrize("name,coef", [("ball", (1.0, 1.0)),
                                           ("ellipsoid", (2.0, 1.0))])
    def test_crossing_radii_match_quadric_closed_form(self, request, name,
                                                      coef):
        # on a quadric rho = sum c_j |w_j|^2 - 1, rho along the tangential
        # ray tau = p + r e^(i theta) u is quadratic in r, so every defining
        # inequality is a quadratic one and each member interval's endpoints
        # are roots of quadratics; the sampler's bisection must find them
        # to its bracket resolution (30 halvings of [0, r_max])
        domain = request.getfixturevalue(name)
        c = np.array(coef)
        grid = homtype.build_boundary_grid(domain, 0.0, 400, kind="random",
                                           seed=1)
        xg, _ = np.polynomial.legendre.leggauss(4)
        for z, band in ((grid.nodes[0], {}), (grid.nodes[5], {}),
                        (grid.nodes[17], {"rho_min": 0.0125,
                                          "rho_max": 0.05})):
            s = koranyi.sample_region(domain, z, "external", eta=0.25,
                                      eps=0.1, **band)
            bp = dom.boundary_point_data(domain, z)
            u, nu = bp.ct_frame[0], bp.normal
            d = s.points.reshape(-1, 4, domain.n) - z
            a = d @ np.conj(u)
            t = d[:, 0] @ np.conj(nu)
            r = np.abs(a)
            half = (r[:, -1] - r[:, 0]) / (xg[-1] - xg[0])
            got = np.stack([r.mean(axis=1) - half, r.mean(axis=1) + half], 1)
            eta, lo, hi = s.eta, s.meta["rho_min"], s.meta["rho_max"]
            r_max = np.sqrt(eta * hi) * 1.000001
            for k in range(t.size):
                v = np.exp(1j * np.angle(a[k, 0])) * u
                p = z + t[k] * nu
                al = np.sum(c * np.abs(v) ** 2)
                be = 2.0 * np.real(np.sum(c * np.conj(p) * v))
                ga = np.sum(c * np.abs(p) ** 2) - 1.0
                # lo < rho < hi, r^2 < eta rho, |b| < eta rho as q(r) > 0
                quads = [(al, be, ga - lo), (-al, -be, hi - ga),
                         (eta * al - 1.0, eta * be, eta * ga),
                         (eta * al, eta * be, eta * ga - abs(t[k].imag))]
                cuts = [0.0, r_max]
                for qa, qb, qc in quads:
                    disc = qb * qb - 4.0 * qa * qc
                    if disc > 0:
                        q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
                        cuts += [x for x in (q / qa, qc / q) if 0 < x < r_max]
                cuts = np.sort(cuts)
                mids = 0.5 * (cuts[1:] + cuts[:-1])
                ok = np.all([qa * mids ** 2 + qb * mids + qc > 0
                             for qa, qb, qc in quads], axis=0)
                seg = np.nonzero(ok)[0]
                assert seg.size and np.all(np.diff(seg) == 1)
                want = (cuts[seg[0]], cuts[seg[-1] + 1])
                assert np.all(np.abs(got[k] - want) <= 1e-9 * r_max)

    def test_model_region_inclusion_sweep(self, ball, ext_sample):
        # normal-form coordinates at e1: w_n = <grad, z - e1>; the model
        # region has |w'|^2 < c eta Re(w_n), |Im w_n| < c eta Re(w_n)
        nf = dom.normalize_at(ball, E1)
        w = (ext_sample.points - E1) @ nf.phi.T
        re_n, im_n = w[:, 1].real, w[:, 1].imag
        tang = np.abs(w[:, 0])
        assert np.all(re_n > 0)
        c_tang = (tang ** 2 / (0.25 * re_n)).max()
        c_im = (np.abs(im_n) / (0.25 * re_n)).max()
        assert c_tang <= 5.0 and c_im <= 5.0   # recorded inclusion constants


class TestRegionIntegrate:
    def test_mu_matches_midpoint_box_oracle(self, ball, ext_sample):
        # independent restriction oracle: frame-aligned midpoint boxes over
        # (tangential re/im, height, imaginary offset); volume-preserving
        # coordinates, so the masked cell sum estimates the region measure
        bp = dom.boundary_point_data(ball, E1)
        u, nu = bp.ct_frame[0], bp.normal
        na, ns, nb = 90, 70, 70
        amax, smax, bmax = 0.2, 0.055, 0.03
        ar = (np.arange(na) + 0.5) * 2 * amax / na - amax
        ss = (np.arange(ns) + 0.5) * smax / ns
        bb = (np.arange(nb) + 0.5) * 2 * bmax / nb - bmax
        cell = (2 * amax / na) ** 2 * (smax / ns) * (2 * bmax / nb)
        total = 0.0
        for s_val in ss:
            A1, A2, B = np.meshgrid(ar, ar, bb, indexing="ij")
            a = (A1 + 1j * A2).ravel()
            t = (s_val + 1j * B.ravel())
            tau = E1[None, :] + a[:, None] * u[None, :] + \
                t[:, None] * nu[None, :]
            rho = ball.rho(tau)
            keep = (rho > 0) & (rho < 0.1) & \
                (np.abs(a) ** 2 < 0.25 * rho) & \
                (np.abs(t.imag) < 0.25 * rho)
            total += keep.sum() * cell
        mine = koranyi.region_integrate(ext_sample,
                                        np.ones(ext_sample.size), "mu")
        assert mine == pytest.approx(total, rel=0.08)

    def test_slice_rule_ratio(self, ext_sample):
        # F = rho^a slice-constant: integral ~ int_0^eps t^(a+2) dt
        for a in (0.0, 1.0):
            val = koranyi.region_integrate(
                ext_sample, np.abs(ext_sample.rho) ** a, "mu")
            closed = 0.1 ** (a + 3) / (a + 3)
            ratio = val / closed
            assert 0.02 <= ratio <= 1.0   # region has eta-dependent measure
        # ratio stability across the exponent (the slice rule's content)
        r0 = koranyi.region_integrate(ext_sample,
                                      np.ones(ext_sample.size), "mu") / \
            (0.1 ** 3 / 3)
        r1 = koranyi.region_integrate(
            ext_sample, np.abs(ext_sample.rho), "mu") / (0.1 ** 4 / 4)
        assert 0.8 <= r1 / r0 <= 1.25

    def test_fubini_rule_two_sided(self, ball, ball_grid_small, rng):
        # int_shell F dmu against int dsigma int_region F dmu / rho^2
        sg = forms.build_shell_grid(ball, 0.1, 3000, n_bands=8,
                                    nodes_per_band=2)
        pts, _, wmu, lev = sg.flat()
        F = lambda z, l: np.exp(-np.abs(z[..., 0]) ** 2) * (1.0 + 0 * l)
        lhs = np.sum(F(pts, lev) * wmu)
        idx = rng.choice(ball_grid_small.size, 40, replace=False)
        total = 0.0
        for i in idx:
            s = koranyi.sample_region(ball, ball_grid_small.nodes[i],
                                      "external", eta=0.25, eps=0.1,
                                      resolution=(10, 2, 6, 6, 6))
            inner = koranyi.region_integrate(
                s, F(s.points, s.rho) * np.abs(s.rho) ** -2.0, "mu")
            total += inner * ball_grid_small.w_sigma[i]
        rhs = total * ball_grid_small.size / (40.0 *
                                              ball_grid_small.sigma_total) \
            * ball_grid_small.sigma_total / ball_grid_small.size * 40.0 / 40.0
        rhs = total * (ball_grid_small.sigma_total /
                       ball_grid_small.w_sigma[idx].sum())
        ratio = lhs / rhs
        assert 1.0 / 5 <= ratio <= 5.0

    def test_nu_weight_requires_l(self, ext_sample):
        with pytest.raises(ValueError):
            koranyi.region_integrate(ext_sample,
                                     np.ones(ext_sample.size), "nu_l")


class TestAreaInternal:
    def test_constant_vanishes(self, ball, ball_grid_small):
        centers = homtype.build_boundary_grid(ball, 0.0, 16, kind="random",
                                              seed=2)
        f = corpus.monomial((0, 0))
        out = koranyi.area_internal(ball, f, 2.0, eta=0.25, eps=0.1,
                                    centers=centers,
                                    resolution=(8, 1, 4, 4, 4))
        assert out["lhs"] == pytest.approx(0.0, abs=1e-20)

    def test_z1_ratio_recorded(self, ball):
        centers = homtype.build_boundary_grid(ball, 0.0, 16, kind="random",
                                              seed=2)
        f = corpus.monomial((1, 0))
        out = koranyi.area_internal(ball, f, 2.0, eta=0.25, eps=0.1,
                                    centers=centers,
                                    resolution=(8, 1, 4, 4, 4))
        assert np.isfinite(out["ratio"]) and out["ratio"] > 0

    def test_family_ratio_bounded(self, ball):
        centers = homtype.build_boundary_grid(ball, 0.0, 12, kind="random",
                                              seed=2)
        ratios = []
        for s in (0.1, 0.2, 0.3):
            f = corpus.power_function(-s)
            out = koranyi.area_internal(ball, f, 2.0, eta=0.25, eps=0.1,
                                        centers=centers,
                                        resolution=(8, 1, 4, 4, 4))
            ratios.append(out["ratio"])
        assert max(ratios) / min(ratios) <= 20.0


class TestAreaIl:
    def test_zero_field(self, ball, ball_grid_small):
        val = koranyi.area_Il(ball, np.zeros(ball_grid_small.size), 1, E1,
                              ball_grid_small, eta=0.25, eps=0.1,
                              resolution=(8, 1, 4, 4, 4))
        assert val == 0.0

    def test_homogeneity(self, ball, ball_grid_small):
        g = np.abs(np.sin(3 * np.angle(ball_grid_small.nodes[:, 0] + 0.1)))
        v1 = koranyi.area_Il(ball, g, 1, E1, ball_grid_small, eta=0.25,
                             eps=0.1, resolution=(8, 1, 4, 4, 4))
        v2 = koranyi.area_Il(ball, 2.0 * g, 1, E1, ball_grid_small,
                             eta=0.25, eps=0.1, resolution=(8, 1, 4, 4, 4))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
        both = koranyi.area_Il(ball, np.stack([g, 2.0 * g]), 1, E1,
                               ball_grid_small, eta=0.25, eps=0.1,
                               resolution=(8, 1, 4, 4, 4))
        assert both.tolist() == [v1, v2]

    def test_constant_profile_resolution_stable(self, ball,
                                                ball_grid_small):
        vals = []
        for res in ((8, 1, 4, 4, 4), (10, 2, 6, 6, 6)):
            vals.append(koranyi.area_Il(ball, np.ones(ball_grid_small.size),
                                        1, E1, ball_grid_small, eta=0.25,
                                        eps=0.1, resolution=res))
        assert vals[1] == pytest.approx(vals[0], rel=0.35)

    def test_spike_ranking(self, ball, ball_grid_small):
        grid = ball_grid_small
        mask, _ = homtype.quasiball(grid, E1, 0.15)
        g = mask.astype(float)
        dists = [0.0, 0.5, 1.4]
        centers = []
        for dtar in dists:
            if dtar == 0.0:
                centers.append(E1)
            else:
                d = homtype.grid_qdist(grid, E1)
                i = int(np.argmin(np.abs(d - dtar)))
                centers.append(grid.nodes[i])
        vals = [koranyi.area_Il(ball, g, 1, c, grid, eta=0.25, eps=0.1,
                                resolution=(8, 1, 4, 4, 4))
                for c in centers]
        assert vals[0] > vals[1] > vals[2]


class TestAreaInequality:
    def test_scaling_invariance(self, ball, ball_grid_small):
        centers = homtype.build_boundary_grid(ball, 0.0, 10, kind="random",
                                              seed=3)
        g = np.abs(ball_grid_small.nodes[:, 1]) + 0.1
        out = koranyi.check_area_inequality(
            ball, [g, 2.0 * g], 1, 2.0, ball_grid_small, centers,
            eta=0.25, eps=0.1, resolution=(8, 1, 4, 4, 4))
        r = out["ratios"]
        assert r[0] == pytest.approx(r[1], rel=1e-10)

    def test_quasiball_family_bounded(self, ball, ball_grid_small):
        centers = homtype.build_boundary_grid(ball, 0.0, 10, kind="random",
                                              seed=3)
        fam = []
        for delta in (0.4, 0.2, 0.1):   # coarse-to-fine scale order
            mask, _ = homtype.quasiball(ball_grid_small, E1, delta)
            fam.append(mask.astype(float))
        out = koranyi.check_area_inequality(
            ball, fam, 1, 2.0, ball_grid_small, centers, eta=0.25,
            eps=0.1, resolution=(8, 1, 4, 4, 4))
        assert out["spread"] <= 50.0
        assert not out["monotone_blowup"]
        # oracle: one region and kernel per center for the whole family
        # equals the per-member loop of single-field area_Il calls exactly
        for g, ratio in zip(fam, out["ratios"]):
            num = 0.0
            for i in range(centers.size):
                il = koranyi.area_Il(ball, g, 1, centers.nodes[i],
                                     ball_grid_small, eta=0.25, eps=0.1,
                                     resolution=(8, 1, 4, 4, 4))
                num += centers.w_sigma[i] * il ** 2.0
            den = float(np.sum(np.abs(g) ** 2.0 * ball_grid_small.w_sigma))
            assert num / den == ratio

    def test_needs_two_members(self, ball, ball_grid_small):
        centers = homtype.build_boundary_grid(ball, 0.0, 4, kind="random",
                                              seed=3)
        with pytest.raises(ValueError):
            koranyi.check_area_inequality(ball, [np.ones(10)], 1, 2.0,
                                          ball_grid_small, centers)
