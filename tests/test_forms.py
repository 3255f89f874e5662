import dataclasses
import itertools
import math

import numpy as np
import pytest

from hsconvex import corpus, domain as dom, exterior, forms, homtype


def brute_force_form_value(form, vectors):
    """Antisymmetrized permutation-sum oracle for form evaluation.

    det[cov_i(v_j)] written out as the full signed sum over permutations.
    """
    k = form.degree
    n = form.n
    total = 0.0 + 0.0j
    for idx, coeff in form.terms.items():
        acc = 0.0 + 0.0j
        for perm in itertools.permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = 1.0 + 0.0j
            for a, i in enumerate(idx):
                v = vectors[perm[a]]
                prod *= v[i] if i < n else np.conj(v[i - n])
            acc += sign * prod
        total += coeff * acc
    return total


class TestFormEngine:
    def test_wedge_antisymmetry(self, rng):
        c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f1, f2 = exterior.dz_form(c1), exterior.dzbar_form(c2)
        w12 = exterior.wedge(f1, f2)
        w21 = exterior.wedge(f2, f1)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert exterior.evaluate(w12, v) == pytest.approx(
            -exterior.evaluate(w21, v))

    def test_overdegree_vanishes(self, rng):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = exterior.dz_form(c)
        top = exterior.wedge(exterior.wedge(f, exterior.dzbar_form(c)),
                             exterior.wedge(f, exterior.dzbar_form(c)))
        w = exterior.wedge(top, f)
        assert w.degree > 4 and not w.terms

    def test_shape_refusals(self):
        f = exterior.dz_form(np.ones(2))
        with pytest.raises(ValueError, match="mixed dimensions"):
            exterior.wedge(f, exterior.dz_form(np.ones(3)))
        with pytest.raises(ValueError, match="degree 1 applied to 2"):
            exterior.evaluate(f, np.ones((2, 2)))

    def test_argument_swap_sign(self, ball, rng):
        g = np.array([1.0, 0.0], complex)
        a = np.eye(2, dtype=complex)
        form = exterior.leray_form(g, a)
        v = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        base = exterior.evaluate(form, v)
        swapped = exterior.evaluate(form, v[[1, 0, 2]])
        assert swapped == pytest.approx(-base)

    def test_permutation_sum_oracle(self, rng):
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (a + np.conj(a).T)
        form = exterior.wedge(exterior.dzbar_form(np.array([0.3, 1.0 - 2j])),
                              exterior.leray_form(g, a))
        basis = np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]], dtype=complex)
        direct = exterior.evaluate(form, basis)
        oracle = brute_force_form_value(form, basis)
        assert direct == pytest.approx(oracle, rel=1e-12)


class TestLerayDensity:
    def test_ball_constant_and_normalized(self, ball, ball_grid):
        dens = exterior.grid_leray_density(ball, ball_grid.nodes,
                                           ball_grid.grad)
        assert dens.max() - dens.min() <= 1e-12
        assert dens[0] == pytest.approx(1.0 / (2 * np.pi ** 2), rel=1e-12)
        # reproducing normalization: total Leray mass integrates K(.,0) to 1
        assert ball_grid.w_S.sum() == pytest.approx(1.0, abs=1e-10)

    def test_ellipsoid_positive(self, ellipsoid):
        grid = homtype.build_boundary_grid(ellipsoid, 0.0, 3000)
        assert exterior.grid_leray_density(ellipsoid, grid.nodes,
                                           grid.grad).min() > 0

    def test_non_positive_density_raises(self, ball, ball_grid):
        # the ball with its mixed Hessian negated: the Leray form changes sign
        # on every frame, and both the density and the grid refuse it
        flipped = dom.make_domain(ball.rho, ball.grad,
                                  lambda z: -ball.hess_mixed(z),
                                  ball.hess_holo, ball.eps_shell,
                                  validate=False)
        with pytest.raises(ValueError, match="non-positive Leray density"):
            exterior.grid_leray_density(flipped, ball_grid.nodes,
                                        ball_grid.grad)
        with pytest.raises(ValueError, match="non-positive Leray density"):
            homtype.build_boundary_grid(flipped, 0.0, 3000)

    def test_orientation_flip(self, ball):
        # the tangent frame (i nu, u, i u) that grid_leray_density evaluates
        xi = np.array([1.0, 0.0], complex)
        _, nu, u = dom.unit_frame(ball.grad(xi)[None])
        frame = np.concatenate([1j * nu, u, 1j * u])
        form = exterior.leray_form(ball.grad(xi), ball.hess_mixed(xi))
        v1 = exterior.evaluate(form, frame[None])[0]
        v2 = exterior.evaluate(form, frame[[1, 0, 2]][None])[0]
        assert v1 != 0 and v2 == pytest.approx(-v1)


def test_derivative_order_is_capped():
    # every corpus function hands out derivatives up to order 8; the cap is
    # a module constant, not a field a caller could set
    f = corpus.monomial((2, 1), label="m")
    assert f.d((8, 0), np.zeros(2)) == 0
    with pytest.raises(ValueError,
                       match="derivative order 9 exceeds available 8 for 'm'"):
        f.d((5, 4), np.zeros(2))
    assert "max_order" not in {fl.name for fl in
                               dataclasses.fields(forms.HoloFunction)}


def test_no_derivative_data_raises():
    f = forms.HoloFunction(eval=lambda z: z[..., 0], label="bare")
    with pytest.raises(ValueError, match="'bare' has no derivative data"):
        f.d((1, 0), np.zeros(2))


class TestKernel:
    def test_ball_center(self, ball):
        assert forms.clf_kernel(ball, np.array([1.0, 0], complex),
                                np.zeros(2, complex)) == pytest.approx(1.0)

    def test_ball_half_radius(self, ball):
        val = forms.clf_kernel(ball, np.array([1.0, 0], complex),
                               np.array([0.5, 0], complex))
        assert val == pytest.approx(4.0)

    def test_ball_closed_form_identity(self, ball, rng):
        # algebraic identity on 1000 random pairs, machine precision
        dirs = dom.random_unit_directions(rng, 1000, 2)
        zs = 0.9 * dom.random_unit_directions(rng, 1000, 2) * \
            rng.uniform(0, 1, (1000, 1))
        k1 = forms.clf_kernel(ball, dirs, zs)
        k2 = (1.0 - np.sum(zs * np.conj(dirs), axis=-1)) ** (-2.0)
        assert np.allclose(k1, k2, rtol=1e-13)

    def test_ellipsoid_center_factorization(self, ellipsoid, rng):
        dirs = dom.random_unit_directions(rng, 50, 2)
        r = dom.radial_level(ellipsoid, dirs, 0.0)
        xi = r[:, None] * dirs
        g = ellipsoid.grad(xi)
        k = forms.clf_kernel(ellipsoid, xi, np.zeros(2, complex))
        assert np.allclose(k, np.sum(g * xi, axis=-1) ** (-2.0), rtol=1e-12)

    def test_singularity_guard(self, ball):
        with pytest.raises(forms.SingularKernelError):
            forms.clf_kernel(ball, np.array([1.0, 0], complex),
                             np.array([1.0, 0], complex))


class TestReproduce:
    def test_constant(self, ball, ball_grid):
        f = corpus.monomial((0, 0))
        out = forms.clf_reproduce(ball_grid, f, np.zeros(2, complex))
        assert abs(out.value - 1.0) <= 1e-6
        assert not out.degraded

    def test_z1_squared(self, ball, ball_grid):
        f = corpus.monomial((2, 0))
        out = forms.clf_reproduce(ball_grid, f, np.array([0.3, 0], complex))
        assert abs(out.value - 0.09) <= 1e-6

    def test_exponential(self, ball, ball_grid):
        f = corpus.exp_function((1.0, 2.0))
        out = forms.clf_reproduce(ball_grid, f,
                                  np.array([0.1, 0.2], complex))
        assert abs(out.value - np.exp(0.5)) <= 1e-5 * np.exp(0.5)

    def test_quadrature_convergence(self, ball):
        from hsconvex.homtype import build_boundary_grid
        f = corpus.exp_function((1.0, 2.0))
        z = np.array([0.35, 0.25], complex)
        truth = f(z)
        errs = []
        for res in (800, 1600, 3200):
            grid = build_boundary_grid(ball, 0.0, res)
            errs.append(abs(forms.clf_reproduce(grid, f, z).value - truth))
        assert errs[1] <= errs[0] / 2 and errs[2] <= errs[1] / 2

    def test_near_boundary_flagged(self, ball, ball_grid_small):
        f = corpus.monomial((0, 0))
        with pytest.warns(UserWarning):
            out = forms.clf_reproduce(ball_grid_small, f,
                                      np.array([0.97, 0], complex))
        assert out.degraded

    def test_point_on_a_node_raises(self, ball_grid_small):
        f = corpus.monomial((0, 0))
        with pytest.warns(UserWarning), \
                pytest.raises(forms.SingularKernelError, match="on grid"):
            forms.clf_reproduce(ball_grid_small, f, ball_grid_small.nodes[0])

    @pytest.mark.parametrize("name", ["ellipsoid", "perturbed_ball"])
    def test_clf_exactness_criterion_1_shape(self, name):
        # criterion 1 (polynomials, grid, tolerance) beyond the ball; the
        # points scale with the boundary radius r(theta) so that every one
        # stays as deep inside as on the ball, off the degraded zone
        from hsconvex.homtype import build_boundary_grid
        d = dom.from_catalog(name)
        grid = build_boundary_grid(d, 0.0, 10000)
        polys = [corpus.monomial((0, 0)), corpus.monomial((1, 0)),
                 corpus.monomial((0, 2)), corpus.monomial((2, 1)),
                 corpus.monomial((1, 3))]
        rng = np.random.default_rng(7)
        dirs = dom.random_unit_directions(rng, 20, 2)
        radii = 0.6 * dom.radial_level(d, dirs, 0.0)[:, None] * \
            rng.uniform(0.2, 1.0, (20, 1))
        worst = 0.0
        for f in polys:
            for z in radii * dirs:
                out = forms.clf_reproduce(grid, f, z)
                assert not out.degraded
                truth = complex(f(z))
                worst = max(worst,
                            abs(out.value - truth) / (1.0 + abs(truth)))
        assert worst <= 1e-5


class TestPairing:
    """volume_density: dbar data paired with the Leray form at a point."""

    @staticmethod
    def _pair(domain, dbar, xi):
        return exterior.volume_density(dbar, domain.grad(xi),
                                       domain.hess_mixed(xi))

    def test_zero(self, ball):
        xi = np.array([1.0, 0.0], complex)
        assert self._pair(ball, np.zeros(2, complex), xi) == 0

    def test_linearity(self, ball, rng):
        xi = np.array([0.6, 0.8], complex)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a, b = 1.3 - 0.2j, -0.7 + 1j
        lhs = self._pair(ball, a * u + b * v, xi)
        rhs = a * self._pair(ball, u, xi) + b * self._pair(ball, v, xi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_permutation_oracle_components(self, ball):
        xi = np.array([1.0, 0.0], complex)
        g, a = ball.grad(xi), ball.hess_mixed(xi)
        for comp, expect_zero in (((0, 1), True), ((1, 0), False)):
            c = np.zeros(2, complex)
            c[comp[1]] = 1.0
            form = exterior.wedge(exterior.dzbar_form(c),
                                  exterior.leray_form(g, a))
            basis = np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]],
                             dtype=complex)
            direct = exterior.evaluate(form, basis)
            oracle = brute_force_form_value(form, basis)
            assert direct == pytest.approx(oracle, abs=1e-14)
            assert (abs(direct) < 1e-15) == expect_zero


class TestShellGrid:
    def test_non_positive_width_raises(self, ball):
        with pytest.raises(ValueError, match="eps must be positive"):
            forms.build_shell_grid(ball, 0.0)

    def test_volume_matches_closed_form(self, ball):
        sg = forms.build_shell_grid(ball, 0.1, 2000, n_bands=8,
                                    nodes_per_band=3)
        t_min = 0.1 * 2.0 ** -8
        exact = np.pi ** 2 / 2 * ((1.1) ** 2 - (1 + t_min) ** 2)
        assert sg.volume == pytest.approx(exact, rel=1e-10)
        assert np.all(sg.w_mu > 0)

    def test_volume_resolution_consistency(self, ellipsoid):
        v = []
        for res in (1000, 4000):
            sg = forms.build_shell_grid(ellipsoid, 0.1, res, n_bands=6,
                                        nodes_per_band=2)
            v.append(sg.volume)
        assert abs(v[1] - v[0]) / v[1] <= 0.01

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    def test_equals_list_and_stack(self, name, whole_shell):
        # the grid's rows, read as one block, against the levels collected
        # in lists and stacked, bit for bit
        from hsconvex.sphere import gauss_legendre_segments

        d = dom.from_catalog(name)
        sg = forms.build_shell_grid(d, 0.1, 500, n_bands=3, nodes_per_band=2)
        nodes, w_mu = whole_shell(d, 0.1, 500, 3, 2)
        levels = gauss_legendre_segments(
            [(0.1 * 2.0 ** (-m), 0.1 * 2.0 ** (-m + 1)) for m in (1, 2, 3)],
            2)[0]
        assert np.array_equal(sg.levels, levels[::-1])
        got_nodes, got_w = sg.rows(slice(0, sg.size))
        assert np.array_equal(got_nodes, nodes.reshape(-1, 2))
        assert np.array_equal(got_w, w_mu.reshape(-1))
        assert np.array_equal(sg.w_mu, w_mu)

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    @pytest.mark.parametrize("block", [1, 7, 647, None])
    def test_row_blocks_equal_whole_arrays(self, name, block, whole_shell):
        # blocks of 1, 7 and 647 rows and of the default row block, against
        # each level's surface_nodes call: on 6 levels of 108 nodes (647
        # leaves a one-row last block) and on 24 levels of 1,372 nodes,
        # whose 4096-row blocks start and end inside levels
        d = dom.from_catalog(name)
        res = (80, 3, 2) if block in (1, 7) else (1200, 8, 3)
        sg = forms.build_shell_grid(d, 0.1, res[0], n_bands=res[1],
                                    nodes_per_band=res[2])
        nodes, w_mu = whole_shell(d, 0.1, *res)
        got = [sg.rows(sl) for sl in dom.row_blocks(sg.size, block)]
        assert len(got) > 2
        assert np.array_equal(np.concatenate([x for x, _ in got]),
                              nodes.reshape(-1, 2))
        assert np.array_equal(np.concatenate([w for _, w in got]),
                              w_mu.reshape(-1))

    def test_keeps_no_nodes(self, ellipsoid):
        # the collar workload's ellipsoid shell: its mesh tables, radii and
        # weights, 2.0 MiB, against 4.9 MiB with the nodes held
        sg = forms.build_shell_grid(ellipsoid, 0.1, 6000, n_bands=8,
                                    nodes_per_band=3)
        assert sg.size == 127776
        assert sg.nbytes == sum(a.nbytes for a in (
            sg.mesh.z1, sg.mesh.z2, sg.mesh.w, sg.levels, sg.radii, sg.w_mu))
        assert sg.nbytes <= 2.1 * 2 ** 20

    def test_peak_memory(self, ellipsoid, traced_peak_mib):
        # the collar workload's ellipsoid shell: levels collected in lists
        # and then stacked peaked at 17.9 MiB; written level by level into
        # a result that held every node, 11.0 MiB, and 6.6 MiB with the
        # levels' surface passes in row blocks; with radii in place of the
        # nodes, a 2.0 MiB result, it reads 3.5 MiB
        peak = traced_peak_mib(lambda: forms.build_shell_grid(
            ellipsoid, 0.1, 6000, n_bands=8, nodes_per_band=3))
        assert peak <= 5.0


# batch sizes 1, B - 1, B, B + 1 and 2B + 17 around row blocks of B = 8
_BATCH_SIZES = (1, 7, 8, 9, 33)


class TestGridLerayDensity:
    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    @pytest.mark.parametrize("m", _BATCH_SIZES)
    def test_blocked_equals_one_block(self, name, m, monkeypatch):
        # row blocks of 8 against one block of all m nodes, bit for bit
        d = dom.from_catalog(name)
        nodes = dom.random_shell_points(d, np.random.default_rng(m), m,
                                        (-0.1, 0.1))
        g = d.grad(nodes)
        monkeypatch.setattr(dom, "_ROW_BLOCK", 8)
        blocked = exterior.grid_leray_density(d, nodes, g)
        monkeypatch.setattr(dom, "_ROW_BLOCK", m)
        assert np.array_equal(blocked,
                              exterior.grid_leray_density(d, nodes, g))

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    @pytest.mark.parametrize("m", [1, 9000])
    def test_equals_form_engine(self, name, m):
        # the covector matrices written straight from the frame against the
        # exterior-algebra engine on the stacked frame, bit for bit
        d = dom.from_catalog(name)
        nodes = dom.random_shell_points(d, np.random.default_rng(m), m,
                                        (-0.1, 0.1))
        g = d.grad(nodes)
        _, nu, u = dom.unit_frame(g)
        frames = np.stack([1j * nu, u, 1j * u], axis=1)
        form = exterior.leray_form(g, d.hess_mixed(nodes))
        assert np.array_equal(exterior.grid_leray_density(d, nodes, g),
                              np.real(exterior.evaluate(form, frames)))

    def test_peak_memory(self, ball, traced_peak_mib):
        # the 221,760-node pole-graded mesh: 130.3 MiB with every node's
        # form coefficients alive at once, 6.0 MiB in row blocks
        from hsconvex.sphere import graded_angular_mesh, surface_nodes

        nodes, _, g = surface_nodes(ball, graded_angular_mesh(n_phi2=12))
        assert nodes.shape[0] == 221760
        peak = traced_peak_mib(
            lambda: exterior.grid_leray_density(ball, nodes, g))
        assert peak <= 32.0
