import numpy as np
import pytest

from hsconvex import corpus, domain as dom, forms, homtype, koranyi


E1 = np.array([1.0, 0.0], complex)


def _frame(domain, z):
    """Unit normal and a unit complex tangent at one boundary point.

    The tangent's phase is not the sampler's; what these tests read of it
    (|a|, regions swept over every tangential angle) does not depend on it.
    """
    _, nu, u = dom.unit_frame(np.asarray(domain.grad(z))[None])
    return nu[0], u[0]


@pytest.fixture(scope="module")
def ext_sample(ball):
    return koranyi.sample_region(ball, E1, "external", eta=0.25, eps=0.1)


@pytest.fixture(scope="module")
def int_sample(ball):
    return koranyi.sample_region(ball, E1, "internal", eta=0.25, eps=0.1)


class TestSampler:
    def test_external_membership_exact(self, ball, ext_sample):
        s = ext_sample
        nu, u = _frame(ball, E1)
        a = (s.points - E1) @ np.conj(u)
        t = (s.points - E1) @ np.conj(nu)
        assert np.all(s.rho > 0) and np.all(s.rho < 0.1)
        assert np.all(np.abs(a) ** 2 < 0.25 * s.rho)
        assert np.all(np.abs(t.imag) < 0.25 * s.rho)

    def test_internal_membership_exact(self, ball, int_sample):
        s = int_sample
        assert np.all(s.rho < 0) and np.all(s.rho > -0.1)
        pr = dom.project_boundary(ball, s.points)
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
        # a band top off the dyadic edges caps the heights inside a cell
        for z, band in ((grid.nodes[0], {}), (grid.nodes[5], {}),
                        (grid.nodes[17], {"rho_min": 0.0125,
                                          "rho_max": 0.05}),
                        (grid.nodes[23], {"rho_min": 0.0125,
                                          "rho_max": 0.03})):
            s = koranyi.sample_region(domain, z, "external", eta=0.25,
                                      eps=0.1, **band)
            nu, u = _frame(domain, z)
            d = s.points.reshape(-1, 4, domain.n) - z
            a = d @ np.conj(u)
            t = d[:, 0] @ np.conj(nu)
            r = np.abs(a)
            half = (r[:, -1] - r[:, 0]) / (xg[-1] - xg[0])
            got = np.stack([r.mean(axis=1) - half, r.mean(axis=1) + half], 1)
            # the sampler's height band: the call's own rho_min/rho_max,
            # else its floor eps 2^-n_levels and its top eps
            eta = 0.25
            lo = band.get("rho_min", 0.1 * 2.0 ** -12)
            hi = band.get("rho_max", 0.1)
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
        phi = np.stack([np.conj(_frame(ball, E1)[1]), ball.grad(E1)])
        w = (ext_sample.points - E1) @ phi.T
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
        nu, u = _frame(ball, E1)
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
        pts, wmu = sg.nodes.reshape(-1, 2), sg.w_mu.reshape(-1)
        lev = np.repeat(sg.levels, sg.nodes.shape[1])
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

    def test_unknown_weight_raises(self, ext_sample):
        with pytest.raises(ValueError, match="unknown weight 'lebesgue'"):
            koranyi.region_integrate(ext_sample,
                                     np.ones(ext_sample.size), "lebesgue")


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


    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_reused_buffer_equals_fresh_chunks(self, request, name):
        domain = request.getfixturevalue(name)
        got, want = _area_il_and_fresh_chunks(domain)
        assert got == want

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    @pytest.mark.parametrize("rows", [4, 32, 512])
    def test_kernel_rows_keep_the_bits(self, request, monkeypatch, name,
                                       rows):
        # any chunk height that is a multiple of 4 (every region size is)
        # gives the 512-row oracle's values bit for bit
        monkeypatch.setattr(koranyi, "_KERNEL_ROWS", rows)
        got, want = _area_il_and_fresh_chunks(
            request.getfixturevalue(name))
        assert got == want


def _area_il_and_fresh_chunks(domain):
    """area_Il of three fields at one centre, and its oracle: fresh 512-row
    kernel chunks, one matrix-vector product per field, as before the
    chunks shared a buffer."""
    grid = homtype.build_boundary_grid(domain, 0.0, 3000)
    z = grid.nodes[5]
    fam = np.stack([np.ones(grid.size),
                    np.abs(grid.nodes[:, 1]) + 0.1,
                    homtype.quasiball(grid, z, 0.3)[0].astype(float)])
    res = (12, 3, 8, 8, 8)
    got = koranyi.area_Il(domain, fam, 1, z, grid, eta=0.25, eps=0.1,
                          resolution=res)
    s = koranyi.sample_region(
        domain, z, "external", 0.25, 0.1, res,
        rho_min=max(grid.quasi_spacing * 0.75, 0.1 * 2.0 ** -9))
    assert s.size > 512
    gw = fam * grid.w_S
    phi = np.empty((3, s.size), complex)
    for start in range(0, s.size, 512):
        tau = s.points[start:start + 512]
        gt = domain.grad(tau)
        den = dom.pairing(gt, tau)[:, None] - gt @ grid.nodes.T
        kern = den ** -3
        for j in range(3):
            phi[j, start:start + 512] = kern @ gw[j]
    want = [float(np.sqrt(max(koranyi.region_integrate(
        s, np.abs(ph) ** 2, weight="nu_l", l=1), 0.0))) for ph in phi]
    return got.tolist(), want


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
            for i in range(len(centers.nodes)):
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


@pytest.fixture(scope="module")
def quartic():
    """|z|^2 + (|z1|^4 + |z2|^4) / 2 - 1: strongly convex, with a curvature
    bound and a smallest Levi eigenvalue that vary along the boundary (both
    are constant on every catalog domain)."""
    def rho(z):
        a = np.abs(np.asarray(z, complex)) ** 2
        return np.sum(a + 0.5 * a ** 2, axis=-1) - 1.0

    def grad(z):
        z = np.asarray(z, complex)
        return np.conj(z) * (1.0 + np.abs(z) ** 2)

    def hess_mixed(z):
        z = np.asarray(z, complex)
        h = np.zeros(z.shape + (2,), complex)
        h[..., 0, 0] = 1.0 + 2.0 * np.abs(z[..., 0]) ** 2
        h[..., 1, 1] = 1.0 + 2.0 * np.abs(z[..., 1]) ** 2
        return h

    def hess_holo(z):
        z = np.asarray(z, complex)
        h = np.zeros(z.shape + (2,), complex)
        h[..., 0, 0] = np.conj(z[..., 0]) ** 2
        h[..., 1, 1] = np.conj(z[..., 1]) ** 2
        return h

    return dom.make_domain(rho, grad, hess_mixed, hess_holo, 0.1,
                           name="quartic")


def _same_sample(a, b):
    return (np.array_equal(a.points, b.points)
            and np.array_equal(a.rho, b.rho)
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.center, b.center))


def _first_error(fn, items):
    """Message of the first item whose call raises ValueError, and how many
    items raise."""
    msgs = []
    for it in items:
        try:
            fn(it)
        except ValueError as exc:
            msgs.append(str(exc))
    return (msgs[0] if msgs else None), len(msgs)


class TestRegionBank:
    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed",
                                      "quartic"])
    @pytest.mark.parametrize("kind,band,res", [
        ("external", {}, None),
        ("external", {"rho_min": 0.0125, "rho_max": 0.05}, None),
        ("internal", {}, (8, 2, 4, 6, 4))])
    def test_bank_equals_per_centre(self, request, name, kind, band, res):
        domain = request.getfixturevalue(name)
        grid = homtype.build_boundary_grid(domain, 0.0, 400, kind="random",
                                           seed=1)
        centers = grid.nodes[:12]
        bank = koranyi.sample_regions(domain, centers, kind, 0.25, 0.1, res,
                                      **band)
        assert len(bank) == 12
        for z, got in zip(centers, bank):
            want = koranyi.sample_region(domain, z, kind, 0.25, 0.1, res,
                                         **band)
            assert _same_sample(got, want)

    def test_varying_ray_counts_and_emptiness(self, quartic):
        # on the quartic a thin band leaves some centres without a member
        # ray: the bank of the others still equals the per-centre samples,
        # and one empty centre makes the whole bank raise its message
        domain = quartic
        grid = homtype.build_boundary_grid(domain, 0.0, 400, kind="random",
                                           seed=1)
        kw = dict(eta=0.25, eps=0.1, resolution=(12, 1, 2, 4, 2),
                  rho_min=0.09, rho_max=0.0901)
        ok, msgs = [], set()
        for z in grid.nodes[:40]:
            try:
                ok.append(koranyi.sample_region(domain, z, "external", **kw))
            except ValueError as exc:
                ok.append(None)
                msgs.add(str(exc))
        live = [i for i, s in enumerate(ok) if s is not None]
        assert 2 <= len(live) <= 38 and len(msgs) == 1
        bank = koranyi.sample_regions(domain, grid.nodes[live], "external",
                                      **kw)
        sizes = {s.size for s in bank}
        assert len(sizes) > 1
        for got, i in zip(bank, live):
            assert _same_sample(got, ok[i])
        one_dead = [live[0], ok.index(None), live[-1]]
        with pytest.raises(ValueError) as exc:
            koranyi.sample_regions(domain, grid.nodes[one_dead], "external",
                                   **kw)
        assert str(exc.value) == msgs.pop()

    def test_first_failing_centre_raises_its_eta_message(self, quartic):
        domain = quartic
        grid = homtype.build_boundary_grid(domain, 0.0, 400, kind="random",
                                           seed=1)
        centers = grid.nodes[:12]

        def one(z):
            koranyi.sample_region(domain, z, "external", eta=0.3, eps=0.1,
                                  resolution=(8, 1, 4, 4, 4))
        want, n_bad = _first_error(one, centers)
        assert want is not None and "eta=0.3" in want and 2 <= n_bad < 12
        # a later failing centre has another curvature bound, so another
        # message: the bank must report the first one in order
        later, _ = _first_error(one, centers[::-1])
        assert later != want
        with pytest.raises(ValueError) as exc:
            koranyi.sample_regions(domain, centers, "external", eta=0.3,
                                   eps=0.1, resolution=(8, 1, 4, 4, 4))
        assert str(exc.value) == want

    def test_empty_height_band_message(self, ball, ball_grid_small):
        kw = dict(eta=0.25, eps=0.1, rho_min=0.05, rho_max=0.04)
        with pytest.raises(ValueError) as one:
            koranyi.sample_region(ball, ball_grid_small.nodes[3], "external",
                                  **kw)
        with pytest.raises(ValueError) as bank:
            koranyi.sample_regions(ball, ball_grid_small.nodes[:12],
                                   "external", **kw)
        assert str(bank.value) == str(one.value) == "empty height band"

    def test_empty_centers_raise(self, ball):
        for bad in (np.empty((0, 2), complex), E1):
            with pytest.raises(ValueError, match="non-empty batch"):
                koranyi.sample_regions(ball, bad, "external")

    def test_bad_kind_or_centre_raises(self, ball):
        with pytest.raises(ValueError, match="'internal' or 'external'"):
            koranyi.sample_regions(ball, E1[None], "lateral")
        with pytest.raises(dom.ProjectionError, match="degenerate gradient"):
            koranyi.sample_regions(ball, np.zeros((1, 2), complex),
                                   "external")

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    @pytest.mark.parametrize("kind,kw,fine_res", [
        ("external", {"eps": 0.1}, None),
        ("external", {"eps": 1.0, "rho_min": 0.25, "rho_max": 0.5}, None),
        ("internal", {"eps": 0.1}, (8, 2, 4, 8, 8))],
        ids=["external", "band", "internal"])
    @pytest.mark.parametrize("rows", [1, 7, 8193])
    def test_ray_blocks_equal_one_block(self, request, monkeypatch, name,
                                        kind, kw, fine_res, rows):
        # blocks of 1 and 7 rays run on a small bank, so every bisection
        # subset of the first has one ray; blocks of 8193 rays split a bank
        # of 12 centres into 2 to 4 blocks
        domain = request.getfixturevalue(name)
        grid = homtype.build_boundary_grid(domain, 0.0, 400, kind="random",
                                           seed=1)
        if rows == 8193:
            centers, res = grid.nodes[:12], fine_res
        else:
            centers, res = grid.nodes[:3], (6, 1, 4, 4, 2)
        bisected = []
        bisect = koranyi._bisect_edge

        def spy(inside, lo, hi):
            bisected.append(lo.size)
            return bisect(inside, lo, hi)

        def bank(block):
            monkeypatch.setattr(koranyi, "row_blocks",
                                lambda m, rows=None: dom.row_blocks(m, block))
            return koranyi.sample_regions(domain, centers, kind, 0.25,
                                          resolution=res, **kw)

        want = bank(10 ** 9)
        monkeypatch.setattr(koranyi, "_bisect_edge", spy)
        got = bank(rows)
        assert sum(s.rays for s in got) > rows
        assert bisected and (rows != 1 or set(bisected) == {1})
        for a, b in zip(got, want):
            assert _same_sample(a, b) and a.rays == b.rays
            assert a.size % koranyi._RADIAL_GAUSS == 0

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_area_inequality_equals_per_centre_area_il(self, request, name):
        domain = request.getfixturevalue(name)
        grid = homtype.build_boundary_grid(domain, 0.0, 3000)
        centers = homtype.build_boundary_grid(domain, 0.0, 12,
                                              kind="random", seed=3)
        fam = [np.ones(grid.size)]
        for delta in (0.4, 0.2):
            fam.append(homtype.quasiball(grid, grid.nodes[0], delta)[0]
                       .astype(float))
        kw = dict(eta=0.25, eps=0.1, resolution=(8, 1, 4, 4, 4))
        out = koranyi.check_area_inequality(domain, fam, 1, 2.0, grid,
                                            centers, **kw)
        nums = [0.0] * len(fam)
        for i in range(len(centers.nodes)):
            il = koranyi.area_Il(domain, np.stack(fam), 1, centers.nodes[i],
                                 grid, **kw)
            for j in range(len(fam)):
                nums[j] += centers.w_sigma[i] * float(il[j]) ** 2.0
        want = [num / float(np.sum(np.abs(g) ** 2.0 * grid.w_sigma))
                for num, g in zip(nums, fam)]
        assert out["ratios"] == want

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_region_comparison_draws_as_per_centre_loop(self, request, name):
        domain = request.getfixturevalue(name)
        grid = homtype.build_boundary_grid(domain, 0.0, 600, kind="random",
                                           seed=2)
        got = koranyi.region_comparison_samples(
            domain, n_centers=12, eta=0.25, eps=0.1, grid=grid, seed=4,
            per_region=30)
        # the per-centre loop: sample, then draw that region's subset and
        # its boundary points, centre by centre from one generator
        rng = np.random.default_rng(4)
        idx = rng.choice(grid.size, size=12, replace=False)
        taus, cents, ws = [], [], []
        for i in idx:
            s = koranyi.sample_region(domain, grid.nodes[i], "external",
                                      0.25, 0.1)
            take = rng.choice(s.size, size=min(30, s.size), replace=False)
            w_idx = rng.choice(grid.size, size=take.size)
            taus.append(s.points[take])
            cents.append(np.broadcast_to(grid.nodes[i], (take.size, 2)))
            ws.append(grid.nodes[w_idx])
        for a, b in zip(got, (taus, cents, ws)):
            assert np.array_equal(a, np.concatenate(b))


def _area_config(domain):
    """The boundary grid, centres and height floor of ``hsconvex area``."""
    grid = homtype.build_boundary_grid(domain, 0.0, 3000)
    centers = homtype.stratified_centers(grid, pole=grid.nodes[17], seed=0)
    return grid, centers, koranyi._area_floor(domain, grid, 0.1)


class TestPeakMemory:
    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_area_bank(self, request, traced_peak_mib, name):
        # 38.3, 38.0 and 41.0 MiB with whole-bank probing and placement;
        # 11.0, 11.0 and 11.6 in ray blocks
        domain = request.getfixturevalue(name)
        grid, centers, floor = _area_config(domain)
        assert len(centers.nodes) >= 42
        peak = traced_peak_mib(lambda: koranyi.sample_regions(
            domain, centers.nodes, "external", 0.25, 0.1, rho_min=floor))
        assert peak <= 20.0

    def test_check_area_inequality(self, ball, traced_peak_mib):
        # 38.4 MiB with the whole bank and 512-row kernel chunks; 11.2 with
        # ray blocks and 32-row chunks
        grid, centers, _ = _area_config(ball)
        fam = [np.ones(grid.size)] + [
            homtype.quasiball(grid, grid.nodes[17], delta)[0].astype(float)
            for delta in (0.4, 0.2, 0.1)]
        peak = traced_peak_mib(lambda: koranyi.check_area_inequality(
            ball, fam, 1, 2.0, grid, centers, eta=0.25, eps=0.1))
        assert peak <= 20.0
