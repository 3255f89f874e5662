import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsconvex import continuation as cn, corpus, domain as dom, exterior, \
    forms, homtype, pipeline as pl


def binom_coeff(s, m):
    out = 1.0
    for i in range(m):
        out *= (s - i) / (i + 1)
    return out


def _poly_of_kind(kind, r, deg):
    """Coefficients of a random polynomial with the named support."""
    cplx = lambda: complex(r.standard_normal(), r.standard_normal())
    if kind == "random":
        coeffs = {}
        for _ in range(deg * 2):
            a = (int(r.integers(0, deg + 1)), int(r.integers(0, deg + 1)))
            coeffs[a] = cplx()
        return coeffs
    if kind == "triangle32":
        return {(a, b): cplx() for a in range(33) for b in range(33 - a)}
    if kind == "z1_only":
        return {(a, 0): cplx() for a in range(deg + 1)}
    if kind == "z2_only":
        return {(0, b): cplx() for b in range(deg + 1)}
    if kind == "empty_rows":
        # rows 1 and 3 of the coefficient triangle hold nothing
        return {(a, b): cplx() for a in (0, 2, 4) for b in range(deg + 1)}
    return {}                                   # the zero polynomial


class TestPolynomialCn:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6),
           st.sampled_from(["random", "triangle32", "z1_only", "z2_only",
                            "empty_rows", "zero"]))
    @example(0, 6, "triangle32")
    @example(1, 5, "z1_only")
    @example(2, 5, "z2_only")
    @example(3, 4, "empty_rows")
    @example(4, 1, "zero")
    @settings(max_examples=20, deadline=None)
    def test_horner_matches_naive(self, seed, deg, kind):
        r = np.random.default_rng(seed)
        p = pl.PolynomialCn(_poly_of_kind(kind, r, deg))
        blk = pl._HORNER_BLOCK
        # empty, single, small, one block, one block + 1, two blocks + 17
        for size in (0, 1, 6, blk, blk + 1, 2 * blk + 17):
            z = r.standard_normal((size, 2)) + \
                1j * r.standard_normal((size, 2))
            z *= 0.7 / max(np.abs(z).max(initial=0.0), 1e-300)
            h = p(z)
            assert h.shape == (size,) and h.dtype == complex
            assert np.all(np.abs(h - p.naive_eval(z)) <= 1e-12 *
                          max(1.0, np.abs(h).max(initial=0.0)))
            m = size // 3
            batch = z[: 3 * m].reshape(3, m, 2)
            assert np.array_equal(p(batch), p(z[: 3 * m]).reshape(3, m))

    @pytest.mark.parametrize("kind", ["random", "empty_rows"])
    def test_point_alone_equals_point_in_batch(self, kind):
        # numpy multiplies one complex element in place on another path
        # than a longer array, whose last bit can differ
        r = np.random.default_rng(7)
        p = pl.PolynomialCn(_poly_of_kind(kind, r, 6))
        z = 0.3 * (r.standard_normal((200, 2))
                   + 1j * r.standard_normal((200, 2)))
        alone = np.concatenate([p(z[i:i + 1]) for i in range(len(z))])
        assert np.array_equal(alone, p(z))

    @pytest.mark.parametrize("coeffs, n", [
        ({(1, 2, 3): 1.0}, 2), ({(1,): 1.0}, 2), ({3: 1.0}, 2),
        ({(-1, 2): 1.0}, 2), ({(0, -2): 0.0}, 2), ({(1.5, 0): 1.0}, 2),
        ({(1, 0): 1.0}, 3)])
    def test_rejects_bad_multi_index_or_dimension(self, coeffs, n):
        # n is the dimension of the points: the polynomial is bivariate
        with pytest.raises(ValueError):
            pl.PolynomialCn(coeffs)(np.zeros((1, n), complex))

    def test_degree(self):
        p = pl.PolynomialCn({(2, 1): 1.0, (0, 0): 5.0, (1, 3): 0.0})
        assert max(map(sum, p.coeffs)) == 3


def _res(k):
    """Offset-surface node count of a degree-2^k projection on its own."""
    return pl.projection_resolution(2 ** k)


class TestProjectDirect:
    def test_constant_within_budget(self, ball, ball_grid_small):
        f = corpus.monomial((0, 0))
        p = pl.project_direct(ball, f, 2, _res(2), r=6.0)
        e = np.abs(1.0 - p(ball_grid_small.nodes)).max()
        assert e <= 1e-10

    def test_z1_at_k5(self, ball, ball_grid_small):
        f = corpus.monomial((1, 0))
        p = pl.project_direct(ball, f, 5, _res(5), r=6.0)
        e = np.abs(ball_grid_small.nodes[:, 0] - p(ball_grid_small.nodes))
        assert e.max() <= 1e-3

    def test_degree_structure(self, ball):
        f = corpus.monomial((1, 0))
        p = pl.project_direct(ball, f, 3, _res(3), r=2.0)
        assert max(map(sum, p.coeffs)) <= 2 * int(np.ceil(8 / 2))
        assert all(sum(a) <= 8 for a in p.coeffs)

    def test_validity_guard(self, ball):
        f = corpus.power_function(0.6)
        with pytest.raises(ValueError, match="holomorphic"):
            pl.project_direct(ball, f, 3, _res(3))


class TestHarmonicAssembly:
    """Oracle for the phase-harmonic branch of the moment assembler.

    The catalog domains are invariant under z2 -> e^(i theta) z2, so the
    moments over all nodes of a pole-graded surface equal the moments over
    its phi_2 = 0 column weighted by the FFT of the data along each orbit.
    """

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_matches_generic_branch(self, name, request):
        from hsconvex.dzyadyk import build_Kglob
        from hsconvex.exterior import grid_leray_density
        from hsconvex.sphere import graded_angular_mesh, surface_nodes

        domain = request.getfixturevalue(name)
        k, n_phi2 = 3, 12
        t_off = 2.0 ** (-k) * domain.eps_shell
        mesh = graded_angular_mesh(n_phi2=n_phi2,
                                   alpha_floor=max(5e-4, 0.2 * t_off ** 0.5),
                                   phi_floor=max(5e-6, 0.2 * t_off),
                                   deg_hint=2 ** k)
        nodes, w_sigma, g = surface_nodes(domain, mesh, t_off)
        dens = grid_leray_density(domain, nodes, g)
        kglob = build_Kglob(domain, 2 ** k, r=6.0, pinned=True)
        col = slice(0, None, n_phi2)
        for f in (corpus.monomial((2, 1)), corpus.power_function(1.5)):
            w = np.asarray(f(nodes)) * dens * w_sigma
            generic = pl._assemble(domain, kglob, dom.pairing(g, nodes), g, w)
            harm = np.fft.fft(w.reshape(-1, n_phi2), axis=1)[:, :4]
            reduced = pl._assemble(domain, kglob,
                                   dom.pairing(g[col], nodes[col]), g[col],
                                   np.ones(harm.shape[0]), harm=harm)
            diff = [generic.coeffs.get(b, 0.0) - reduced.coeffs.get(b, 0.0)
                    for b in set(generic.coeffs) | set(reduced.coeffs)]
            scale = max(abs(v) for v in generic.coeffs.values())
            assert max(abs(v) for v in diff) <= 1e-13 * scale


def _two_table_assemble(domain, kglob, c, g, w, harm=None):
    """The moment assembler with a power table for each gradient component."""
    n = domain.n
    deg = kglob.j * n
    top2 = deg if harm is None else harm.shape[1] - 1
    coeffs = {}
    for sel, T in kglob.groups(c):
        lam_c = T.lambda_coeffs()
        D = lam_c
        for _ in range(n - 1):
            D = np.convolve(D, lam_c)
        gs, cs = g[sel], c[sel]
        p1 = np.ones((deg + 1, gs.shape[0]), dtype=complex)
        p2 = np.ones((top2 + 1, gs.shape[0]), dtype=complex)
        for m in range(1, deg + 1):
            p1[m] = p1[m - 1] * gs[:, 0]
        for m in range(1, top2 + 1):
            p2[m] = p2[m - 1] * gs[:, 1]
        base = w[sel] / cs ** n
        hs = None if harm is None else harm[sel]
        for m in range(min(deg, D.size - 1) + 1):
            if D[m] == 0:
                continue
            wm = base / cs ** m
            for b2 in range(min(m, top2) + 1):
                b1 = m - b2
                term = wm * p1[b1] * p2[b2]
                mom = np.sum(term if hs is None else term * hs[:, b2])
                coeffs[(b1, b2)] = coeffs.get((b1, b2), 0.0) + \
                    D[m] * float(math.comb(m, b1)) * mom
    return pl.PolynomialCn(coeffs)


class TestPairwiseTree:
    """The moment assembler's leaf tree against numpy's own sum.

    ``_assemble`` adds leaf sums along the pairwise tree it assumes numpy
    uses; a numpy that sums in another order fails here by name instead of
    moving report bytes.
    """

    @pytest.fixture(scope="class")
    def perturbed_group_sizes(self, perturbed):
        # the chord-angle groups of the perturbed ball's direct grid
        from hsconvex.dzyadyk import build_Kglob

        grid = homtype.build_boundary_grid(perturbed, 2.0 ** (-5) * 0.1,
                                           pl.projection_resolution(32))
        kglob = build_Kglob(perturbed, 32, r=6.0, pinned=True)
        sizes = [int(sel.sum()) for sel, _ in kglob.groups(grid.pair_self)]
        assert len(sizes) > 1
        return sizes

    @pytest.mark.parametrize("leaf", [64, pl._MOMENT_LEAF])
    def test_tree_sum_is_np_sum(self, leaf, perturbed_group_sizes):
        r = np.random.default_rng(5)
        lengths = (list(range(1, 301)) + [4095, 4096, 4097, 48668]
                   + perturbed_group_sizes)
        for n in lengths:
            # magnitudes over 30 decades, so another order of additions
            # shows in the last bits
            x = (r.standard_normal((2, n)) + 1j * r.standard_normal((2, n))) \
                * 10.0 ** r.uniform(-15, 15, (2, n))
            got = pl._pairwise_tree(lambda sl: np.sum(x[:, sl], axis=1),
                                    0, n, leaf)
            want = np.array([np.sum(x[0]), np.sum(x[1])])
            assert got.tobytes() == want.tobytes(), (n, leaf)

    @pytest.mark.parametrize("leaf", [128, pl._SWEEP_LEAF])
    def test_float_tree_sum_is_np_sum(self, leaf):
        # diagnose's sweep splits float64 sums at multiples of 8 elements;
        # lengths around the block, the leaf and the evaluation mesh's size
        r = np.random.default_rng(6)
        lengths = (list(range(1, 300)) + [1023, 1024, 1025, 32767, 32768,
                                          32769, 65543, 221759, 221760])
        for n in lengths:
            x = r.standard_normal((2, n)) * 10.0 ** r.uniform(-15, 15, (2, n))
            got = pl._pairwise_tree(lambda sl: np.sum(x[:, sl], axis=1),
                                    0, n, leaf, unit=8)
            want = np.array([np.sum(x[0]), np.sum(x[1])])
            assert got.tobytes() == want.tobytes(), (n, leaf)


class TestAssembleOracle:
    """Leaf-tree moments against whole-group power tables, bit for bit."""

    @staticmethod
    def _same(domain, kglob, c, g, w, harm=None):
        got = pl._assemble(domain, kglob, c, g, w, harm=harm)
        want = _two_table_assemble(domain, kglob, c, g, w, harm=harm)
        assert got.coeffs and got.coeffs == want.coeffs

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_ball_direct_grid(self, ball, k):
        # the grid and kernel of diagnose's direct projection at level k
        from hsconvex.dzyadyk import build_Kglob

        grid = homtype.build_boundary_grid(ball, 2.0 ** (-k) * 0.1,
                                           pl.projection_resolution(32))
        kglob = build_Kglob(ball, 2 ** k, r=6.0, pinned=True)
        w = corpus.exp_function((1.0, 2.0))(grid.nodes) * grid.w_S
        self._same(ball, kglob, grid.pair_self, grid.grad, w)

    def test_perturbed_groups(self, perturbed):
        from hsconvex.dzyadyk import build_Kglob

        grid = homtype.build_boundary_grid(perturbed, 0.0125,
                                           pl.projection_resolution(8))
        kglob = build_Kglob(perturbed, 8, r=6.0, pinned=True)
        assert len(list(kglob.groups(grid.pair_self))) > 1
        w = corpus.monomial((2, 1))(grid.nodes) * grid.w_S
        self._same(perturbed, kglob, grid.pair_self, grid.grad, w)

    def test_perturbed_direct_grid_k5(self, perturbed):
        # diagnose's direct projection at level 5: five groups, each past
        # the leaf size
        from hsconvex.dzyadyk import build_Kglob

        grid = homtype.build_boundary_grid(perturbed, 2.0 ** (-5) * 0.1,
                                           pl.projection_resolution(32))
        kglob = build_Kglob(perturbed, 32, r=6.0, pinned=True)
        w = corpus.exp_function((1.0, 2.0))(grid.nodes) * grid.w_S
        self._same(perturbed, kglob, grid.pair_self, grid.grad, w)

    def _same_harmonic(self, domain, k):
        # the reduced projector's inputs at level k
        from hsconvex.dzyadyk import build_Kglob
        from hsconvex.sphere import graded_angular_mesh

        t_off = 2.0 ** (-k) * 0.1
        mesh = graded_angular_mesh(n_phi2=12,
                                   alpha_floor=max(5e-4, 0.2 * t_off ** 0.5),
                                   phi_floor=max(5e-6, 0.2 * t_off),
                                   deg_hint=2 ** k)
        grid = homtype.build_boundary_grid(domain, t_off, mesh=mesh)
        w = (corpus.power_function(1.5)(grid.nodes)
             * exterior.grid_leray_density(domain, grid.nodes, grid.grad)
             * grid.w_sigma)
        harm = np.fft.fft(w.reshape(-1, 12), axis=1)[:, :4]
        col = slice(0, None, 12)
        kglob = build_Kglob(domain, 2 ** k, r=6.0, pinned=True)
        self._same(domain, kglob, grid.pair_self[col], grid.grad[col],
                   np.ones(harm.shape[0]), harm=harm)

    def test_harmonic_branch(self, perturbed):
        self._same_harmonic(perturbed, 3)

    def test_harmonic_branch_ball_k5(self, ball):
        # 12,852 column nodes in one group, past the leaf size
        self._same_harmonic(ball, 5)


def _full_grid_reduced(domain, f, k, r):
    """The reduced projector on a whole BoundaryGrid held at once."""
    from hsconvex.dzyadyk import build_Kglob
    from hsconvex.sphere import graded_angular_mesh

    t_off = 2.0 ** (-k) * domain.eps_shell
    mesh = graded_angular_mesh(
        n_phi2=12, alpha_floor=max(5e-4, 0.2 * np.sqrt(t_off)),
        phi_floor=max(5e-6, 0.2 * t_off),
        deg_hint=domain.n * int(np.ceil(2 ** k / domain.n)))
    grid = homtype.build_boundary_grid(domain, t_off, mesh=mesh)
    w = (np.asarray(f(grid.nodes))
         * exterior.grid_leray_density(domain, grid.nodes, grid.grad)
         * grid.w_sigma)
    F = np.fft.fft(w.reshape(-1, 12), axis=1)
    col = slice(0, None, 12)
    kglob = build_Kglob(domain, 2 ** k, r=r, pinned=True)
    return pl._assemble(domain, kglob, grid.pair_self[col], grid.grad[col],
                        np.ones(F.shape[0]), harm=F[:, :4])


class TestProjectDirectReduced:
    """The streamed surface pass against a whole grid, bit for bit."""

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_matches_full_grid(self, name, request):
        domain = request.getfixturevalue(name)
        z = 0.9 * dom.random_unit_directions(np.random.default_rng(2), 64, 2)
        for f in (corpus.power_function(1.5), corpus.log_function()):
            for k in (1, 2, 3):
                got = pl.project_direct_reduced(domain, f, k, 6.0)
                want = _full_grid_reduced(domain, f, k, 6.0)
                assert got.coeffs and got.coeffs == want.coeffs, (f.label, k)
                assert got(z).tobytes() == want(z).tobytes()

    def test_refuses_high_phase_harmonics(self, ball):
        # z2^5 is the phase harmonic 5 alone
        with pytest.raises(ValueError,
                           match=r"phase harmonics \[5\] beyond \+-3: the "
                           "offset projector needs harmonic-sparse data"):
            pl.project_direct_reduced(ball, corpus.monomial((0, 5)), 2, 6.0)


class TestProjectViaContinuation:
    def test_zero_defect_zero_polynomial(self, ball):
        contz = cn.Continuation(
            f_eval=lambda z: np.zeros(np.asarray(z).shape[:-1], complex),
            dbar_eval=lambda z: np.zeros(np.asarray(z).shape, complex),
            dbar_blocks=lambda z: [(slice(None), np.zeros(z.shape, complex))],
            support_height=0.1, domain=ball)
        shell = forms.build_shell_grid(ball, 0.1, 1200, n_bands=6,
                                       nodes_per_band=2)
        p = pl.project_via_continuation(ball, contz, shell, 2, r=2.0)
        assert not p.coeffs

    def test_z1sq_matches_pac_budget(self, ball, ball_grid_small):
        f = corpus.monomial((2, 0))
        cont = cn.extend_by_symmetry(ball, f, m=3, eps=0.1)
        shell = forms.build_shell_grid(ball, 0.1, 3000, n_bands=8,
                                       nodes_per_band=3)
        p = pl.project_via_continuation(ball, cont, shell, 3, r=2.0)
        e = np.abs(f(ball_grid_small.nodes) - p(ball_grid_small.nodes))
        assert e.max() <= 0.05

    def test_dual_construction_consistency(self, ball, ball_grid_small):
        f = corpus.exp_function((1.0, 0.0))
        direct = pl.project_direct(ball, f, 4, _res(4), r=4.0)
        cont = cn.extend_by_symmetry(ball, f, m=4, eps=0.1)
        shell = forms.build_shell_grid(ball, 0.1, 4000, n_bands=8,
                                       nodes_per_band=3)
        via = pl.project_via_continuation(ball, cont, shell, 4, r=4.0)
        fv = f(ball_grid_small.nodes)
        e_direct = np.abs(fv - direct(ball_grid_small.nodes)).max()
        e_via = np.abs(fv - via(ball_grid_small.nodes)).max()
        agree = np.abs(direct(ball_grid_small.nodes)
                       - via(ball_grid_small.nodes)).max()
        assert agree <= 1.5 * (e_direct + e_via)


class TestSmoothnessSum:
    def test_zero_fields(self, ball_grid_small):
        fields = {k: np.zeros(ball_grid_small.size) for k in (1, 2, 3)}
        assert pl.smoothness_trajectory(ball_grid_small.w_sigma, fields, 2,
                                        2.0)[1][-1] == 0.0

    def test_constant_fields_closed_form(self, ball_grid_small):
        s_dec = 1.0
        fields = {k: np.full(ball_grid_small.size, 2.0 ** (-s_dec * k))
                  for k in (1, 2, 3, 4)}
        val = pl.smoothness_trajectory(ball_grid_small.w_sigma, fields, 2,
                                       2.0)[1][-1]
        inner = sum(4.0 ** (2 * k) * 4.0 ** (-s_dec * k) for k in (1, 2, 3, 4))
        closed = ball_grid_small.sigma_total * inner
        assert val == pytest.approx(closed, rel=1e-10)

    def test_verdicts(self):
        conv = [1.0, 1.02, 1.03, 1.035]
        div = [1.0, 2.0, 4.5, 10.0]
        assert pl.verdict_from_trajectory(conv) == "converging"
        assert pl.verdict_from_trajectory(div) == "diverging"
        assert pl.verdict_from_trajectory([1, 1.3, 1.6, 1.9]) == \
            "inconclusive"

    def test_three_sums_are_enough(self):
        # the tail ratio reads the last _TAIL = 3 sums, the fewest levels
        # the CLI accepts; a shorter trajectory is inconclusive
        assert pl.verdict_from_trajectory([1.0, 1.02, 1.03]) == "converging"
        assert pl.verdict_from_trajectory([1.0, 2.0, 4.5]) == "diverging"
        assert pl.verdict_from_trajectory([1.0, 1.02]) == "inconclusive"


def _sweep_leaves(size):
    """The row slices of diagnose's evaluation sweep on a mesh of ``size``."""
    leaves = []
    pl._pairwise_tree(lambda sl: leaves.append(sl) or np.zeros(1), 0, size,
                      pl._SWEEP_LEAF, unit=8)
    return leaves


def _whole_mesh_diagnose(domain, f, k_list, l_probe, p=2.0):
    """diagnose's numbers from whole-mesh error fields held at once."""
    from hsconvex.sphere import graded_angular_mesh, surface_nodes

    r = 2.0 * max(l_probe)
    res = pl.projection_resolution(2 ** max(k_list))
    polys = {k: pl.project_direct(domain, f, k, r=r, resolution=res)
             if f.validity > 0 else pl.project_direct_reduced(domain, f, k, r)
             for k in k_list}
    nodes, w_sigma = surface_nodes(domain, graded_angular_mesh(n_phi2=12))[:2]
    f_vals = f(nodes)
    fields = {k: np.abs(f_vals - polys[k](nodes)) for k in k_list}
    sups = {k: float(e.max()) for k, e in fields.items()}
    lps = {k: float(np.sum(e ** p * w_sigma) ** (1.0 / p))
           for k, e in fields.items()}
    partial = {l: pl.smoothness_trajectory(w_sigma, fields, l, p)[1]
               for l in l_probe}
    return sups, lps, partial


class TestSweep:
    """diagnose's leaf sweep against whole-mesh evaluation, bit for bit."""

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_corpus_on_leaves_equals_whole_mesh(self, name, request):
        # a leaf of 16,384 rows or fewer would move z1^2 z2's values: numpy
        # then stops reusing temporaries, and the swapped complex product
        # rounds differently
        from hsconvex.sphere import graded_angular_mesh, surface_nodes

        domain = request.getfixturevalue(name)
        nodes = surface_nodes(domain, graded_angular_mesh(n_phi2=12))[0]
        leaves = _sweep_leaves(nodes.shape[0])
        assert len(leaves) > 1
        assert min(sl.stop - sl.start for sl in leaves) >= 16384
        for entry in corpus.corpus_entries():
            whole = np.asarray(entry.f(nodes))
            for sl in leaves:
                got = np.asarray(entry.f(nodes[sl].copy()))
                assert got.tobytes() == whole[sl].tobytes(), \
                    (entry.f.label, sl)

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    @pytest.mark.parametrize("f", [corpus.monomial((2, 1)),
                                   corpus.power_function(0.6)],
                             ids=lambda f: f.label)
    def test_diagnose_equals_whole_mesh(self, name, f, request):
        domain = request.getfixturevalue(name)
        k_list, l_probe = [1, 2, 3], (1, 2, 3)
        rep = pl.diagnose(domain, f, k_range=k_list, l_probe=l_probe)
        sups, lps, partial = _whole_mesh_diagnose(domain, f, k_list, l_probe)
        assert np.array(list(rep.sup_errors.values())).tobytes() == \
            np.array(list(sups.values())).tobytes()
        assert np.array(list(rep.lp_errors.values())).tobytes() == \
            np.array(list(lps.values())).tobytes()
        for l in l_probe:
            assert rep.partial_sums[l].tobytes() == partial[l].tobytes()
        assert rep.log["mesh_rows"] == sum(rep.log["leaf_rows"])
        assert [v["k"] for v in rep.log["levels"]] == k_list

    def test_nan_in_a_late_leaf_reads_nan(self, ball):
        # NaN at boundary nodes near |z2| = 1, all past the first leaf: a
        # running max(-inf, nan) in Python would read a finite sup error
        base = corpus.exp_function((1.0, 2.0))

        def ev(z):
            out = base(z)
            hole = (np.abs(ball.rho(z)) < 1e-9) & (np.abs(z[..., 1]) > 0.99)
            return np.where(hole, np.nan, out)

        from hsconvex.sphere import graded_angular_mesh, surface_nodes

        nodes = surface_nodes(ball, graded_angular_mesh(n_phi2=12))[0]
        rows = np.flatnonzero(np.isnan(ev(nodes)))
        assert rows.size and rows.min() >= _sweep_leaves(nodes.shape[0])[0].stop
        f = forms.HoloFunction(eval=ev, validity=np.inf, label="nan")
        rep = pl.diagnose(ball, f, k_range=range(1, 4), l_probe=(1,))
        assert all(np.isnan(v) for v in rep.sup_errors.values())
        assert all(np.isnan(v) for v in rep.lp_errors.values())


class TestDiagnose:
    def test_polynomial_floor(self, ball):
        f = corpus.monomial((1, 0))
        rep = pl.diagnose(ball, f, k_range=range(1, 5), l_probe=(1, 2))
        assert all(v == "converging" for v in rep.verdicts.values())
        assert rep.slope == -np.inf or rep.slope < -4

    def test_entire_converges_everywhere(self, ball):
        f = corpus.exp_function((1.0, 2.0))
        rep = pl.diagnose(ball, f, k_range=range(1, 6), l_probe=(1, 2, 3))
        assert all(v == "converging" for v in rep.verdicts.values())

    def test_power_threshold_cross_validated(self, ball):
        f = corpus.power_function(0.6)
        rep = pl.diagnose(ball, f, k_range=range(1, 6), l_probe=(1, 2, 3))
        assert rep.verdicts[1] == "converging"
        assert rep.verdicts[2] == "diverging"
        # norm-oracle cross-validation
        labels = corpus.oracle_labels(ball, f)
        assert labels[(1, 2.0)] == "finite"
        assert labels[(2, 2.0)] == "infinite"

    def test_verdict_scale_invariance(self, ball):
        f = corpus.power_function(1.5)
        rep1 = pl.diagnose(ball, f, k_range=range(1, 6), l_probe=(1, 2))
        f2 = forms.HoloFunction(eval=lambda z: 2.0 * f(z),
                                deriv=lambda a, z: 2.0 * f.d(a, z),
                                validity=0.0, label="2f")
        rep2 = pl.diagnose(ball, f2, k_range=range(1, 6), l_probe=(1, 2))
        assert rep1.verdicts == rep2.verdicts
        for k in rep1.k_list:
            assert rep2.sup_errors[k] == pytest.approx(
                2.0 * rep1.sup_errors[k], rel=1e-6)

    def test_peak_memory(self, ball, traced_peak_mib):
        # 88.2 MiB with whole-mesh trig, Jacobian and two gradient power
        # tables; 65.2 with per-axis trig, row blocks and one table; 13.8
        # (15.5 as a process's first diagnose, with numpy.polynomial's
        # imports) with the projections first and a leaf sweep of the
        # evaluation mesh
        f = corpus.monomial((0, 0), label="1")
        peak = traced_peak_mib(
            lambda: pl.diagnose(ball, f, k_range=range(1, 6)))
        assert peak <= 18.0

    def test_peak_memory_entire(self, ball, traced_peak_mib):
        # 65.8 MiB while the eval mesh's gradients stayed alive through
        # every level; 59.1 once they are dropped; 13.8 with the mesh
        # built after the projections
        f = corpus.exp_function((1.0, 2.0), label="exp(z1+2z2)")
        peak = traced_peak_mib(
            lambda: pl.diagnose(ball, f, k_range=range(1, 6)))
        assert peak <= 18.0

    @pytest.mark.parametrize("f", [
        corpus.monomial((0, 0), label="1"),
        corpus.exp_function((1.0, 2.0), label="exp(z1+2z2)"),
        corpus.power_function(0.6)], ids=lambda f: f.label)
    def test_peak_memory_bounded(self, ball, traced_peak_mib, f):
        # 59.1, 57.3 and 55.2 MiB with a whole-group gradient power table
        # and a whole reduced-projector grid; 32.0, 30.3 and 32.2 with
        # leaf-tree moments and a streamed surface pass; 13.8, 13.8 and
        # 13.9 once no evaluation array is alive under a projection
        peak = traced_peak_mib(
            lambda: pl.diagnose(ball, f, k_range=range(1, 6)))
        assert peak <= 18.0

    @pytest.mark.parametrize("f", [
        corpus.monomial((0, 0), label="1"),
        corpus.exp_function((1.0, 2.0), label="exp(z1+2z2)"),
        corpus.monomial((2, 1)),
        corpus.power_function(0.6)], ids=lambda f: f.label)
    def test_peak_memory_streamed(self, ball, traced_peak_mib, f):
        # 13.8, 13.8, 13.8 and 13.9 MiB with the evaluation mesh's and the
        # direct projector's surfaces held whole; 7.5 for each with every
        # surface read from its mesh one row block at a time
        peak = traced_peak_mib(
            lambda: pl.diagnose(ball, f, k_range=range(1, 6)))
        assert peak <= 10.0

    def test_log_records_projection_rows(self, ball):
        # each level's projection surface: the direct path's one product
        # mesh, the offset path's pole-graded mesh of that level
        rep = pl.diagnose(ball, corpus.power_function(0.6),
                          k_range=range(1, 6), l_probe=(1,))
        rows = [v["nodes"] for v in rep.log["levels"]]
        assert rows == [pl._reduced_mesh(ball, k).size for k in range(1, 6)]
        assert rows[-1] == 154224

    def test_verdict_monotone_in_l(self, ball):
        f = corpus.power_function(0.6)
        rep = pl.diagnose(ball, f, k_range=range(1, 6), l_probe=(1, 2, 3))
        seen_div = False
        for l in (1, 2, 3):
            if seen_div:
                assert rep.verdicts[l] == "diverging"
            if rep.verdicts[l] == "diverging":
                seen_div = True


@pytest.fixture(scope="module")
def wide_ball():
    return dom.ball(eps_shell=1.0)


@pytest.fixture(scope="module")
def wide_grid(wide_ball):
    return homtype.build_boundary_grid(wide_ball, 0.0, 4000,
                                       kind="random", seed=3)


class TestAbFields:
    def test_constant_sequence_trivial(self, wide_ball, wide_grid):
        p = pl.PolynomialCn({(0, 0): 1.0})
        cont = cn.extend_by_global(wide_ball, [p, p, p], eps=1.0)
        cidx = np.arange(8)
        a, b = pl.ab_fields(wide_grid, [p, p, p], cont, 1, cidx,
                            eta=0.25, eps=1.0,
                            resolution=(8, 1, 4, 4, 4))
        assert all(np.abs(v).max() == 0.0 for v in a.values())
        # the band holding the outer cutoff ramp (k = 1 at eps = 1) carries
        # the scaffolding defect; every interior band vanishes
        assert all(np.abs(b[k]).max() == 0.0 for k in b if k >= 2)

    def test_two_term_semi_closed_form(self, wide_ball, wide_grid):
        p2 = pl.PolynomialCn({})
        p4 = pl.PolynomialCn({(0, 0): 1.0})
        cont = cn.extend_by_global(wide_ball, [p2, p4], eps=1.0)
        rng = np.random.default_rng(0)
        cidx = rng.choice(wide_grid.size, 24, replace=False)
        a, b = pl.ab_fields(wide_grid, [p2, p4], cont, 1, cidx,
                            eta=0.25, eps=1.0,
                            resolution=(10, 2, 6, 6, 6))
        assert np.allclose(a[1], 2.0)         # |P4 - P2| 2^(k l) = 2
        rep = pl.check_bk_lemma(wide_grid, a, b, cidx)
        assert 0.05 <= rep["per_k"][1]["p99"] <= 10.0
        spread = rep["per_k"][1]["max"] / max(
            np.median(b[1] / 2.0), 1e-300) * 0.0 + 1.0
        assert np.isfinite(spread)

    def test_telescoping_band_sum(self, wide_ball, wide_grid):
        from hsconvex import koranyi
        p2 = pl.PolynomialCn({})
        p4 = pl.PolynomialCn({(0, 0): 1.0})
        cont = cn.extend_by_global(wide_ball, [p2, p4], eps=1.0)
        cidx = np.array([5, 50])
        a, b = pl.ab_fields(wide_grid, [p2, p4], cont, 1, cidx,
                            eta=0.25, eps=1.0,
                            resolution=(10, 2, 6, 6, 6))
        band_sum = sum(b[k] ** 2 for k in b)
        for pos, i in enumerate(cidx):
            s = koranyi.sample_region(wide_ball, wide_grid.nodes[i],
                                      "external", 0.25, 1.0,
                                      (10, 2, 6, 6, 6), rho_min=2.0 ** -2)
            dbar = cont.dbar_eval(s.points)
            m2 = np.sum(np.abs(dbar) ** 2, -1)
            full = koranyi.region_integrate(
                s, m2 * np.abs(s.rho) ** -2.0, "nu")
            assert band_sum[pos] == pytest.approx(full, rel=0.03)

    def test_corpus_driven_uniformity(self, wide_ball, wide_grid):
        root2 = np.sqrt(2.0)
        p_seq = pl.taylor_sections(
            lambda al: 0.0 if al[1] else
            binom_coeff(0.6, al[0]) * (-1 / root2) ** al[0],
            [2, 4, 8, 16, 32, 64])
        cont = cn.extend_by_global(wide_ball, p_seq, eps=1.0)
        rng = np.random.default_rng(0)
        cidx = rng.choice(wide_grid.size, 48, replace=False)
        a, b = pl.ab_fields(wide_grid, p_seq, cont, 1, cidx,
                            eta=0.25, eps=1.0,
                            resolution=(10, 2, 6, 6, 6))
        rep = pl.check_bk_lemma(wide_grid, a, b, cidx, exclude_k=(1,))
        assert rep["spread"] <= 3.0

    @pytest.mark.parametrize("name", ["ball", "ellipsoid",
                                      "perturbed_ball"])
    def test_bands_equal_per_centre_loop(self, name):
        from hsconvex import koranyi
        d = dom.from_catalog(name, eps_shell=1.0)
        grid = homtype.build_boundary_grid(d, 0.0, 600, kind="random",
                                           seed=3)
        p_seq = pl.taylor_sections(lambda al: 0.3 ** sum(al), [2, 4, 8])
        cont = cn.extend_by_global(d, p_seq, eps=1.0)
        cidx = np.random.default_rng(2).choice(grid.size, 12, replace=False)
        res = (8, 1, 4, 4, 4)
        _, b = pl.ab_fields(grid, p_seq, cont, 1, cidx, eta=0.25, eps=1.0,
                            resolution=res)
        assert sorted(b) == [1, 2]
        for k, got in b.items():
            want = []
            for i in cidx:
                s = koranyi.sample_region(d, grid.nodes[i], "external", 0.25,
                                          1.0, res, rho_min=2.0 ** -k,
                                          rho_max=min(2.0 ** (1 - k), 1.0))
                m2 = np.sum(np.abs(cont.dbar_eval(s.points)) ** 2, axis=-1)
                val = koranyi.region_integrate(
                    s, m2 * np.abs(s.rho) ** -2.0, weight="nu")
                want.append(np.sqrt(max(val, 0.0)))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("eps,live", [(1.0, 3), (0.3, 2)])
    def test_one_dbar_call_per_live_band(self, wide_ball, wide_grid,
                                         monkeypatch, eps, live):
        # bands 2^-k <= rho < 2^-k+1 with 2^-k >= eps hold no region
        p_seq = pl.taylor_sections(lambda al: 0.3 ** sum(al), [2, 4, 8, 16])
        cont = cn.extend_by_global(wide_ball, p_seq, eps=eps)
        calls = []
        orig = cont.dbar_eval

        def counting(z):
            calls.append(np.shape(z)[0])
            return orig(z)
        monkeypatch.setattr(cont, "dbar_eval", counting)
        _, b = pl.ab_fields(wide_grid, p_seq, cont, 1, np.arange(12),
                            eta=0.25, eps=eps, resolution=(8, 1, 4, 4, 4))
        assert len(calls) == live
        assert sum(np.count_nonzero(v) for v in b.values()) > 0
        assert all(not b[k].any() for k in b if 2.0 ** -k >= eps)

    def test_ratio_stability_across_resolution(self, wide_ball):
        p2 = pl.PolynomialCn({})
        p4 = pl.PolynomialCn({(0, 0): 1.0})
        cont = cn.extend_by_global(wide_ball, [p2, p4], eps=1.0)
        pcts = []
        for res, seed in ((3000, 3), (6000, 4)):
            grid = homtype.build_boundary_grid(wide_ball, 0.0, res,
                                               kind="random", seed=seed)
            rng = np.random.default_rng(1)
            cidx = rng.choice(grid.size, 24, replace=False)
            a, b = pl.ab_fields(grid, [p2, p4], cont, 1, cidx,
                                eta=0.25, eps=1.0,
                                resolution=(10, 2, 6, 6, 6))
            rep = pl.check_bk_lemma(grid, a, b, cidx)
            pcts.append(rep["per_k"][1]["p99"])
        assert abs(pcts[1] - pcts[0]) / pcts[0] <= 0.5
