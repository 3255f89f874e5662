import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import continuation as cn, corpus, domain as dom, exterior, \
    forms, homtype
from hsconvex.pipeline import PolynomialCn, taylor_sections


@pytest.fixture(scope="module")
def shell(ball):
    return forms.build_shell_grid(ball, 0.1, 3000, n_bands=8,
                                  nodes_per_band=3)


class TestCutoff:
    @given(st.floats(0.01, 10.0), st.floats(1.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_profile_bounds(self, a, factor):
        chi = cn.Cutoff(a, a * factor)
        t = np.linspace(0, a * factor * 1.5, 200)
        v = chi(t)
        assert np.all((v >= 0) & (v <= 1))
        assert chi(a) == 1.0 and chi(a * factor) == 0.0
        assert np.all(np.diff(v) <= 1e-12)

    def test_derivative_matches_fd(self):
        chi = cn.Cutoff(0.05, 0.1)
        t = np.linspace(0.051, 0.099, 40)
        fd = (chi(t + 1e-7) - chi(t - 1e-7)) / 2e-7
        assert np.abs(fd - chi.deriv(t)).max() <= 1e-5


class TestSymmetryContinuation:
    def test_linear_exact_jets(self, ball, rng):
        # degree-1 function with order-2 jets: dbar vanishes off the ramp
        f = corpus.monomial((1, 0))
        cont = cn.extend_by_symmetry(ball, f, m=2, eps=0.1)
        pts = dom.random_shell_points(ball, rng, 40, (0.001, 0.049))
        db = cont.dbar_eval(pts)
        assert np.abs(db).max() <= 1e-10

    def test_m1_fd_oracle(self, ball, rng):
        f = corpus.exp_function((1.0, 0.5))
        cont = cn.extend_by_symmetry(ball, f, m=1, eps=0.1)
        pts = dom.random_shell_points(ball, rng, 15, (0.02, 0.08))
        db = cont.dbar_eval(pts)
        h = 1e-5
        for j in range(2):
            ex = np.zeros(2, complex)
            ex[j] = h
            ey = np.zeros(2, complex)
            ey[j] = 1j * h
            fd = ((cont.f_eval(pts + ex) - cont.f_eval(pts - ex)) / (2 * h)
                  + 1j * (cont.f_eval(pts + ey) - cont.f_eval(pts - ey))
                  / (2 * h)) / 2
            rel = np.abs(fd - db[:, j]) / np.maximum(np.abs(db[:, j]), 1e-6)
            assert rel.max() <= 1e-3

    def test_support_height(self, ball, rng):
        f = corpus.monomial((1, 0))
        cont = cn.extend_by_symmetry(ball, f, m=2, eps=0.1)
        dirs = dom.random_unit_directions(rng, 10, 2)
        far = dom.radial_level(ball, dirs, 0.11)[:, None] * dirs
        assert np.abs(cont.f_eval(far)).max() == 0.0

    def test_decay_order_along_ray(self, ball):
        # generic ray away from the singular direction (rays through points
        # with z1* = 0 degenerate: every surviving jet term carries a power
        # of z1 - z1* for this one-variable function)
        f = corpus.power_function(-0.3)
        cont = cn.extend_by_symmetry(ball, f, m=3, eps=0.1)
        heights = np.geomspace(3e-4, 3e-2, 8)
        direction = np.array([0.6, 0.8], complex)
        ray = np.sqrt(1 + heights)[:, None] * direction[None, :]
        db = np.abs(cont.dbar_eval(ray)).sum(axis=1)
        slope = np.polyfit(np.log(heights), np.log(db), 1)[0]
        assert slope >= 3 - 1 - 0.2

    def test_requires_derivatives(self, ball):
        f = forms.HoloFunction(eval=lambda z: z[..., 0], deriv=None,
                               validity=np.inf, label="bare")
        with pytest.raises(ValueError):
            cn.extend_by_symmetry(ball, f, m=2)

    def test_jet_order_must_be_positive(self, ball):
        with pytest.raises(ValueError, match="jet order m must be >= 1"):
            cn.extend_by_symmetry(ball, corpus.monomial((1, 0)), m=0)


class TestSymmetryBeyondBall:
    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    def test_reflection_derivative_doubling_ratio(self, name):
        # criterion 6's points at jet order m = 2, where the jet term that
        # carries dbar z* is O(rho) and sits above the shell-quadrature
        # error: refining the shell then gains a factor of about 2400-4100,
        # and a wrong derivative (lam = 0 in the KKT solve, or the d/dx and
        # d/dy columns swapped) stalls the gain below 400
        d = dom.from_catalog(name)
        rng = np.random.default_rng(3)
        zs = 0.55 * dom.random_unit_directions(rng, 12, 2) * \
            rng.uniform(0.1, 1.0, (12, 1))
        f = corpus.monomial((2, 1))
        cont = cn.extend_by_symmetry(d, f, m=2, eps=0.1)
        errs = []
        for angles, per_band in ((3000, 2), (6000, 3)):
            shell = forms.build_shell_grid(d, 0.1, angles, n_bands=8,
                                           nodes_per_band=per_band)
            errs.append(cn.verify_pac(cont, shell, zs, f)["max_rel_err"])
        assert errs[0] / max(errs[1], 1e-300) >= 1000

    def test_one_projection_per_collar_node(self, ellipsoid, monkeypatch):
        # one projection and one certified KKT matrix per live collar node
        shell = forms.build_shell_grid(ellipsoid, 0.1, 3000, n_bands=8,
                                       nodes_per_band=2)
        live = int(np.sum(ellipsoid.rho(shell.nodes) < 0.1))
        rows = {"_project_certified": [], "_bordered_kkt": []}

        def counting(name):
            orig = getattr(dom, name)

            def wrapper(domain, z, *args, **kwargs):
                rows[name].append(np.atleast_2d(z).shape[0])
                return orig(domain, z, *args, **kwargs)
            return wrapper

        for name in rows:
            monkeypatch.setattr(dom, name, counting(name))
        f = corpus.monomial((2, 1))
        cont = cn.extend_by_symmetry(ellipsoid, f, m=3, eps=0.1)
        cn.verify_pac(cont, shell, np.array([[0.3, 0.2]], complex), f)
        assert live > 0
        assert 0 < sum(rows["_project_certified"]) <= live
        assert 0 < sum(rows["_bordered_kkt"]) <= live


# row blocks of 1, 7 and 8193 rows against one block that covers the batch
_ORACLE_BLOCKS = (1, 7, 8193)


def _one_block_and(block, fn, monkeypatch):
    """fn() with row and projection blocks of ``block`` rows, then with one
    block."""
    for rows in (block, 10 ** 9):
        monkeypatch.setattr(dom, "_ROW_BLOCK", rows)
        monkeypatch.setattr(dom, "_PROJECT_ROWS", rows)
        yield fn()


def _oracle_shell(d, block):
    # 8193-row blocks run on 24 levels of 1,372 nodes (four blocks and a
    # partial fifth), the smaller blocks on 6 levels of 108 nodes
    if block > 1000:
        return forms.build_shell_grid(d, 0.1, 1200, n_bands=8,
                                      nodes_per_band=3)
    return forms.build_shell_grid(d, 0.1, 80, n_bands=3, nodes_per_band=2)


def _criterion_6_points():
    rng = np.random.default_rng(3)
    return 0.55 * dom.random_unit_directions(rng, 12, 2) * \
        rng.uniform(0.1, 1.0, (12, 1))


def _oracle_continuation(name, f=corpus.monomial((2, 1))):
    # the global continuation on the ball, the symmetry one elsewhere
    d = dom.from_catalog(name)
    if name == "ball":
        p_seq = taylor_sections(lambda a: 0.3 ** sum(a) * (1 - 0.5j) ** a[1],
                                [2, 4, 8, 16])
        return cn.extend_by_global(d, p_seq, eps=0.1)
    return cn.extend_by_symmetry(d, f, m=3, eps=0.1)


class TestBlockedCollar:
    """The collar evaluators in row blocks equal one block, bit for bit."""

    @pytest.mark.parametrize("name,f", [
        ("ellipsoid", corpus.monomial((2, 1))),
        ("ellipsoid", corpus.exp_function((1.0, 2.0))),
        ("perturbed_ball", corpus.monomial((2, 1))),
        ("perturbed_ball", corpus.exp_function((1.0, 2.0))),
        ("ball", None)])
    @pytest.mark.parametrize("block", _ORACLE_BLOCKS)
    def test_dbar_eval(self, name, f, block, monkeypatch):
        # points on both sides of the collar's outer edge
        cont = _oracle_continuation(name, f)
        m = 2 * block + 47
        pts = dom.random_shell_points(cont.domain, np.random.default_rng(m),
                                      m, (0.0, 0.12))
        blocked, whole = _one_block_and(
            block, lambda: cont.dbar_eval(pts), monkeypatch)
        assert np.array_equal(blocked, whole)
        live = np.any(whole != 0, axis=1)
        assert live.any() and not live.all()

    @pytest.mark.parametrize("name", ["ellipsoid", "perturbed_ball", "ball"])
    @pytest.mark.parametrize("block", _ORACLE_BLOCKS)
    def test_shell_defect_and_pac_reconstruct(self, name, block,
                                              monkeypatch):
        cont = _oracle_continuation(name)
        shell = _oracle_shell(cont.domain, block)
        assert shell.size > 2 * block
        zs = _criterion_6_points()

        def run():
            # the criterion-6 points, and one of them alone
            return (np.concatenate([dw for *_, dw in
                                    cn.shell_defect(cont, shell)]),
                    cn.pac_reconstruct(cont, shell, zs),
                    cn.pac_reconstruct(cont, shell, zs[0]))

        blocked, whole = _one_block_and(block, run, monkeypatch)
        for b, w in zip(blocked, whole):
            assert np.array_equal(b, w)

    def test_pac_reconstruct_peak_memory(self, ellipsoid, traced_peak_mib):
        # the collar workload's ellipsoid job: 127,776 collar nodes and 8
        # probes.  With the dbar field, its Leray pairing and the kernel
        # contraction over the whole collar at once the call peaked at
        # 49.8 MiB above its inputs; in row blocks it read 21.1 MiB, and
        # 16.4 MiB once the all-live collar is no longer copied
        shell = forms.build_shell_grid(ellipsoid, 0.1, 6000, n_bands=8,
                                       nodes_per_band=3)
        assert shell.size == 127776
        cont = cn.extend_by_symmetry(ellipsoid, corpus.monomial((2, 1)),
                                     m=3, eps=0.1)
        zs = 0.5 * dom.random_unit_directions(np.random.default_rng(0), 8,
                                              2)
        peak = traced_peak_mib(lambda: cn.pac_reconstruct(cont, shell, zs))
        assert peak <= 18.0


# (projection rows, row-block rows): the defaults, one-row blocks, 647-row
# blocks that leave the 648-node shell a one-row last block, and small
# blocks of either kind
_STREAM_ROWS = ((4096, 8192), (1, 1), (647, 647), (7, 5), (5, 7))


def _whole_collar(cont, shell, zs):
    """Weights and reconstruction from whole-collar arrays: the reference.

    The gradients, the dbar field and the weights are held for every node at
    once, and the kernel contraction is one axis-0 sum.
    """
    d = cont.domain
    pts = shell.nodes.reshape(-1, 2)
    g = d.grad(pts)
    dw = exterior.volume_density(cont.dbar_eval(pts), g, d.hess_mixed(pts)) \
        * shell.w_mu.reshape(-1)
    den = dom.pairing(g, pts)[:, None] - g @ zs.T
    return dw, -np.sum(np.multiply(dw[:, None], den ** (-d.n)), axis=0)


class TestStreamedCollar:
    """The streamed reconstruction equals whole-collar arrays, bit for bit."""

    @pytest.mark.parametrize("rows", _STREAM_ROWS,
                             ids=lambda r: f"{r[0]}x{r[1]}")
    @pytest.mark.parametrize("name,kind", [
        ("ball", "global"), ("ball", "symmetry"), ("ellipsoid", "symmetry"),
        ("perturbed_ball", "symmetry")])
    def test_equals_whole_collar(self, name, kind, rows, monkeypatch):
        if kind == "global":
            cont = _oracle_continuation(name)
        else:
            cont = cn.extend_by_symmetry(dom.from_catalog(name),
                                         corpus.monomial((2, 1)), m=3,
                                         eps=0.1)
        shell = _oracle_shell(cont.domain, 1)
        assert shell.size == 648
        zs = _criterion_6_points()
        monkeypatch.setattr(dom, "_ROW_BLOCK", 10 ** 9)
        monkeypatch.setattr(dom, "_PROJECT_ROWS", 10 ** 9)
        want_dw, want = _whole_collar(cont, shell, zs)
        monkeypatch.setattr(dom, "_PROJECT_ROWS", rows[0])
        monkeypatch.setattr(dom, "_ROW_BLOCK", rows[1])
        blocks = list(cn.shell_defect(cont, shell))
        sizes = [len(dw) for *_, dw in blocks]
        assert sum(sizes) == 648
        assert sizes[0] == min(648, rows[kind == "global"])
        pts, g, dw = (np.concatenate(a) for a in zip(*blocks))
        assert np.array_equal(pts, shell.nodes.reshape(-1, 2))
        assert np.array_equal(g, cont.domain.grad(pts))
        assert np.array_equal(dw, want_dw)
        assert np.array_equal(cn.pac_reconstruct(cont, shell, zs), want)

    def test_verify_pac_peak_memory(self, ellipsoid, traced_peak_mib):
        # the collar workload's ellipsoid job: 127,776 collar nodes and 8
        # probes.  With a whole-collar dbar field, weight array and shell
        # gradients, and 8192-row projection blocks, the call peaked at
        # 15.4 MiB above its inputs; streamed in 4096-row blocks it reads
        # 8.5 MiB, most of it the radial start's whole-collar directions
        shell = forms.build_shell_grid(ellipsoid, 0.1, 6000, n_bands=8,
                                       nodes_per_band=3)
        assert shell.size == 127776
        f = corpus.monomial((2, 1))
        cont = cn.extend_by_symmetry(ellipsoid, f, m=3, eps=0.1)
        zs = 0.5 * dom.random_unit_directions(np.random.default_rng(0), 8,
                                              2)
        rep = {}
        peak = traced_peak_mib(
            lambda: rep.update(cn.verify_pac(cont, shell, zs, f)))
        assert rep["max_rel_err"] <= 1e-2
        assert peak <= 10.0


class TestGlobalContinuation:
    def test_constant_sequence_dbar_vanishes_inside(self, ball, rng):
        p = PolynomialCn({(0, 0): 1.0})
        cont = cn.extend_by_global(ball, [p, p, p], eps=0.1)
        pts = dom.random_shell_points(ball, rng, 30, (0.001, 0.049))
        assert np.abs(cont.dbar_eval(pts)).max() == 0.0

    def test_two_term_closed_form(self):
        big = dom.ball(eps_shell=1.0)
        p2 = PolynomialCn({})
        p4 = PolynomialCn({(0, 0): 1.0})
        cont = cn.extend_by_global(big, [p2, p4], eps=1.0)
        rng = np.random.default_rng(0)
        pts = dom.random_shell_points(big, rng, 500, (0.01, 0.99))
        rho = big.rho(pts)
        db = np.abs(cont.dbar_eval(pts)).sum(axis=1)
        # defect supported in the blend zone, bounded by the cutoff scale;
        # the scaled difference field is |P4 - P2| / rho = 1 / rho there
        live = db > 1e-14
        assert np.all(rho[live] > 0.5)
        chi_scale = 1.875 / 0.5     # Lipschitz constant of the cutoffs
        g1 = np.abs(big.grad(pts)).sum(axis=1)
        bound = (2.0 * chi_scale + chi_scale) * g1 * (1.0 / rho)
        assert np.all(db[live] <= bound[live] * 1.05)

    def test_shallow_shell_takes_the_first_polynomial(self):
        # rho > 1 lies above shell 1, where the blend is P_1 alone (the
        # inner level rho = -2 does not exist, so the shell is not validated)
        wide = dom.ball(eps_shell=2.0, validate=False)
        p1, p2 = PolynomialCn({(0, 0): 1.0}), PolynomialCn({(0, 0): 5.0})
        cont = cn.extend_by_global(wide, [p1, p2], eps=2.0)
        z = np.array([[1.5, 0.0]], complex)          # rho = 1.25
        assert cont.f_eval(z)[0] == cn.Cutoff(1.0, 2.0)(1.25)

    def test_interface_continuity(self, ball):
        degrees = [2, 4, 8, 16]
        p_seq = taylor_sections(
            lambda a: 1.0 / (np.prod([np.math.factorial(x) for x in a])
                             if False else 1.0)
            if sum(a) == 0 else 0.3 ** sum(a), degrees)
        cont = cn.extend_by_global(ball, p_seq, eps=0.1)
        for k in (4, 5):
            rho0 = 2.0 ** -k
            r = np.sqrt(1 + rho0)
            z = np.array([[r * np.cos(0.3), r * np.sin(0.3)]],
                         dtype=complex)
            up = cont.f_eval(z * (1 + 1e-10))
            dn = cont.f_eval(z * (1 - 1e-10))
            assert abs(up - dn) <= 1e-7 * max(1.0, abs(up))

    def test_one_evaluation_per_polynomial_and_point(self, monkeypatch):
        # dbar_eval takes the shell differences from the blend, so each
        # collar point meets each of its (at most two) polynomials once
        big = dom.ball(eps_shell=1.0)
        p_seq = taylor_sections(lambda a: 0.3 ** sum(a), [2, 4, 8, 16])
        cont = cn.extend_by_global(big, p_seq, eps=1.0)
        pts = dom.random_shell_points(big, np.random.default_rng(5), 400,
                                      (0.01, 0.99))
        rows = []
        orig = PolynomialCn.__call__

        def counting(self, z):
            rows.append(np.atleast_2d(z).shape[0])
            return orig(self, z)

        monkeypatch.setattr(PolynomialCn, "__call__", counting)
        # shell k holds 2^-k < rho <= 2^-k+1; shells 1-3 blend two
        # polynomials, deeper points take the last one alone
        k = np.ceil(-np.log2(big.rho(pts))).astype(int)
        blend = k < len(p_seq)
        cont.dbar_eval(pts)
        assert len(rows) == 2 * len(np.unique(k[blend])) + 1
        assert sum(rows) == 2 * int(blend.sum()) + int((~blend).sum())

    def test_needs_two_terms(self, ball):
        with pytest.raises(ValueError):
            cn.extend_by_global(ball, [PolynomialCn({(0, 0): 1.0})])


class TestVerifyPac:
    def test_zero_defect_zero_function(self, ball, shell):
        cont = cn.Continuation(
            f_eval=lambda z: np.zeros(np.asarray(z).shape[:-1], complex),
            dbar_eval=lambda z: np.zeros(np.asarray(z).shape, complex),
            dbar_blocks=lambda z: [(slice(None), np.zeros(z.shape, complex))],
            support_height=0.1, domain=ball)
        rep = cn.verify_pac(cont, shell, np.zeros((1, 2), complex),
                            lambda z: np.zeros(z.shape[0], complex))
        assert np.abs(rep["values"]).max() == 0.0

    def test_polynomial_reconstruction(self, ball, shell):
        f = corpus.monomial((2, 0))
        cont = cn.extend_by_symmetry(ball, f, m=3, eps=0.1)
        zs = np.array([[0.0, 0.0], [0.3, 0.0], [0.1, 0.2]], complex)
        rep = cn.verify_pac(cont, shell, zs, f)
        assert rep["max_rel_err"] <= 1e-2

    def test_global_from_taylor_sections_improves_with_k(self):
        # run on the wide-shell ball so the low dyadic shells, where the
        # section differences are O(1), fall inside the support
        big = dom.ball(eps_shell=1.0)
        sh = forms.build_shell_grid(big, 1.0, 3000, n_bands=8,
                                    nodes_per_band=3)
        truth = corpus.exp_function((1.0, 0.0))
        errs = []
        for kmax in (2, 3, 4):
            degrees = [2 ** k for k in range(1, kmax + 1)]
            p_seq = taylor_sections(
                lambda a: 0.0 if a[1] else 1.0 / _fact(a[0]), degrees)
            cont = cn.extend_by_global(big, p_seq, eps=1.0)
            rep = cn.verify_pac(cont, sh,
                                np.array([[0.2, 0.1]], complex), truth)
            errs.append(rep["max_rel_err"])
        assert errs[1] <= 1.2 * errs[0] and errs[2] <= 1.2 * errs[1]

    def test_error_decreases_with_resolution(self, ball):
        f = corpus.monomial((2, 1))
        cont = cn.extend_by_symmetry(ball, f, m=3, eps=0.1)
        zs = np.array([[0.3, 0.2], [0.0, 0.0]], complex)
        errs = []
        for res, nb, npb in ((3000, 8, 2), (6000, 8, 3)):
            sh = forms.build_shell_grid(ball, 0.1, res, n_bands=nb,
                                        nodes_per_band=npb)
            errs.append(cn.verify_pac(cont, sh, zs, f)["max_rel_err"])
        assert errs[1] <= errs[0] / 1.4


def _fact(m):
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


class TestSobolevFunctional:
    def test_zero_defect(self, ball):
        p = PolynomialCn({(0, 0): 1.0})
        cont = cn.extend_by_global(ball, [p, p], eps=0.1)
        grid = homtype.build_boundary_grid(ball, 0.0, 2000, kind="random",
                                           seed=3)
        centers = homtype.stratified_centers(grid, n_bulk=6,
                                             n_per_annulus=1, n_annuli=4)
        val = cn.sobolev_functional(cont, 1, 2.0, eta=0.25, eps=0.04,
                                    centers=centers,
                                    resolution=(8, 1, 4, 4, 4))
        assert val == 0.0

    @pytest.mark.parametrize("name,kind", [
        ("ball", "symmetry"), ("ball", "global"), ("ellipsoid", "global"),
        ("perturbed_ball", "global")])
    def test_equals_per_centre_loop(self, name, kind):
        # the banked dbar is elementwise for global continuations, and for
        # symmetric ones on the ball: no row there takes a radial step, so
        # the batch-wide radial start is each row's own
        from hsconvex import koranyi
        d = dom.from_catalog(name)
        if kind == "symmetry":
            cont = cn.extend_by_symmetry(d, corpus.power_function(0.6), m=3,
                                         eps=0.1)
        else:
            cont = cn.extend_by_global(
                d, taylor_sections(lambda a: 0.3 ** sum(a), [2, 4, 8, 16, 32]),
                eps=0.1)
        centers = homtype.build_boundary_grid(d, 0.0, 12, kind="random",
                                              seed=2)
        res = (10, 2, 6, 6, 6)
        got = cn.sobolev_functional(cont, 2, 2.0, eta=0.25, eps=0.1,
                                    centers=centers, resolution=res)
        want = 0.0
        for i in range(len(centers.nodes)):
            s = koranyi.sample_region(d, centers.nodes[i], "external", 0.25,
                                      0.1, res)
            m2 = np.sum(np.abs(cont.dbar_eval(s.points)) ** 2, axis=-1)
            inner = koranyi.region_integrate(s, m2 * np.abs(s.rho) ** -4.0,
                                             weight="nu")
            want += centers.w_sigma[i] * max(inner, 0.0) ** 1.0
        assert got > 0 and got == float(want)

    def test_one_dbar_call(self, ball, monkeypatch):
        cont = cn.extend_by_symmetry(ball, corpus.monomial((2, 1)), m=2,
                                     eps=0.1)
        calls = []
        orig = cont.dbar_eval

        def counting(z):
            calls.append(np.shape(z)[0])
            return orig(z)
        monkeypatch.setattr(cont, "dbar_eval", counting)
        centers = homtype.build_boundary_grid(ball, 0.0, 12, kind="random",
                                              seed=2)
        cn.sobolev_functional(cont, 1, 2.0, eta=0.25, eps=0.05,
                              centers=centers, resolution=(8, 1, 4, 4, 4))
        assert len(calls) == 1 and calls[0] > 12

    def test_smooth_stable_vs_singular_divergent(self, ball):
        from hsconvex.sphere import graded_angular_mesh
        mesh = graded_angular_mesh(n_phi2=6, alpha_floor=5e-4,
                                   phi_floor=1e-6, q=(4, 3), deg_hint=8)
        src = homtype.build_boundary_grid(ball, 0.0, mesh=mesh)
        stages = [(6, (10, 2, 6, 6, 6)), (8, (12, 2, 6, 6, 6)),
                  (10, (14, 2, 6, 6, 6))]

        def run(f, l):
            cont = cn.extend_by_symmetry(ball, f, m=l + 1, eps=0.1)
            vals = []
            for ann, res in stages:
                centers = homtype.stratified_centers(
                    src, n_bulk=10, n_per_annulus=2, n_annuli=ann, seed=7)
                vals.append(cn.sobolev_functional(
                    cont, l, 2.0, eta=0.25, eps=0.025, centers=centers,
                    resolution=res))
            return vals

        smooth = run(corpus.monomial((2, 1)), 2)
        assert cn.sobolev_verdict(smooth) == "finite"
        singular = run(corpus.power_function(0.6), 2)
        assert cn.sobolev_verdict(singular) == "infinite"

    def test_verdict_unknown(self):
        # too short, not finite or negative, or a last ratio in (1.25, 1.6)
        for values in ([1.0], [1.0, np.inf], [1.0, -1.0], [1.0, 1.4]):
            assert cn.sobolev_verdict(values) == "unknown"
