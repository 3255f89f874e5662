import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsconvex import domain as dom, homtype, koranyi


E1 = np.array([1.0, 0.0], complex)
E2 = np.array([0.0, 1.0], complex)


class TestQdist:
    def test_orthogonal_points(self, ball):
        assert homtype.qdist(ball, E1, E2) == pytest.approx(1.0)

    def test_antipodal(self, ball):
        assert homtype.qdist(ball, E1, -E1) == pytest.approx(2.0)

    def test_self_distance_zero(self, ball):
        assert homtype.qdist(ball, E1, E1) == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_total_and_nonnegative(self, seed):
        ball = dom.ball(validate=False)
        r = np.random.default_rng(seed)
        w = dom.random_unit_directions(r, 1, 2)[0]
        z = r.standard_normal(2) + 1j * r.standard_normal(2)
        d = homtype.qdist(ball, w, z)
        assert np.isfinite(d) and d >= 0


class TestQuasiball:
    def test_whole_grid(self, ball_grid):
        mask, meas = homtype.quasiball(ball_grid, E1, 10.0)
        assert mask.all()
        assert meas == pytest.approx(ball_grid.sigma_total)

    def test_shrinks_to_center(self, ball_grid):
        idx = int(np.argmax(ball_grid.nodes[:, 0].real))
        z = ball_grid.nodes[idx]
        mask, _ = homtype.quasiball(ball_grid, z, 1e-9)
        assert mask.sum() == 1 and mask[idx]

    def test_empty_at_non_positive_radius(self, ball_grid):
        mask, meas = homtype.quasiball(ball_grid, E1, 0.0)
        assert mask.shape == (ball_grid.size,) and not mask.any()
        assert meas == 0.0

    def test_measure_scaling_sweep(self, ball, ball_grid_mc):
        deltas = np.array([0.05, 0.1, 0.2, 0.4])
        meas = []
        for d in deltas:
            _, m = homtype.quasiball(ball_grid_mc, E1, d)
            meas.append(m)
        ratios = np.array(meas) / deltas ** 2
        assert ratios.min() >= 1.0 and ratios.max() <= 50.0
        slope = np.polyfit(np.log(deltas), np.log(meas), 1)[0]
        assert abs(slope - 2.0) <= 0.3


class TestHomogeneous:
    def test_ball_dimension(self, ball_grid_mc):
        rep = homtype.check_homogeneous(ball_grid_mc, seed=3)
        assert abs(rep["fitted_dimension"] - 2.0) <= 0.15
        assert rep["quasi_triangle_constant"] <= 10.0

    def test_peak_memory(self, ellipsoid, traced_peak_mib):
        # validate's 10,000-node random grid: the diameter's blocks of 32
        # sample rows set a 7.3 MiB peak (product and modulus buffers);
        # blocks of 2 MiB of products, 12 rows here, read 2.8 MiB
        grid = homtype.build_boundary_grid(ellipsoid, 0.0, 10000,
                                           kind="random", seed=0)
        rep = {}
        peak = traced_peak_mib(
            lambda: rep.update(homtype.check_homogeneous(grid, seed=0)))
        assert rep["n_centers"] == 50
        assert peak <= 4.0


def _same_float(x, y):
    """x and y are one float to the bit, or both NaN."""
    return bool(np.isnan(x) and np.isnan(y)) or \
        np.float64(x).tobytes() == np.float64(y).tobytes()


# samples of 1 to 3 values drawn from a few (ties, signed zeros), and
# longer ones of any finite or infinite value
_SAMPLES = (st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.1, 2.0, 3.25]),
                     min_size=1, max_size=3)
            | st.lists(st.floats(allow_nan=False, width=64), min_size=1,
                       max_size=40))


class TestQuantiles:
    """percentile and median equal numpy's, bit for bit."""

    @given(values=_SAMPLES, q=st.floats(0.0, 100.0)
           | st.sampled_from([0.0, 0.5, 50.0, 99.0, 99.5, 100.0]))
    @example(values=[1.0, 2.0], q=50.0)      # the lerp's top branch
    @example(values=[1.0, np.inf], q=99.5)   # inf - inf
    @example(values=[1.0, np.nan, 0.0], q=0.5)
    @settings(max_examples=300, deadline=None)
    def test_percentile_equals_numpy(self, values, q):
        a = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.percentile(a, q)
            got = homtype.percentile(a, q)
        assert isinstance(got, float)
        assert _same_float(got, want)

    @given(values=_SAMPLES)
    @example(values=[-0.0, -0.0])
    @example(values=[2.0, np.nan])
    @settings(max_examples=300, deadline=None)
    def test_median_equals_numpy(self, values):
        a = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.median(a)
            got = homtype.median(a)
        assert isinstance(got, float)
        assert _same_float(got, want)


class TestQmExterior:
    def test_radial_point_ratio_near_one(self, ball):
        w = np.array([[1.05, 0.0]], complex)
        rep = homtype.qm_exterior_check(ball, w, E1[None])
        env = rep["shell_comparison"]
        assert 0.5 <= env["min"] <= env["max"] <= 2.0

    def test_pr_coincides_reduces_to_height(self, ball):
        # tau on the normal ray through z: d(tau, z) is a constant multiple
        # of rho(tau) (the pr-term vanishes; rho ~ 2h vs d ~ h on the ball)
        ratios = []
        for h in (0.07, 0.02):
            tau = np.array([[1.0 + h, 0.0]], complex)
            ratios.append(float(homtype.qdist(ball, tau, E1)[0]
                                / ball.rho(tau)[0]))
        assert ratios[0] == pytest.approx(0.5, rel=0.1)
        assert ratios[1] == pytest.approx(0.5, rel=0.1)

    def test_sampled_envelope(self, ball, ball_grid_mc, rng):
        w = dom.random_shell_points(ball, rng, 10000, (1e-4, 0.1))
        idx = rng.choice(ball_grid_mc.size, 10000)
        rep = homtype.qm_exterior_check(ball, w, ball_grid_mc.nodes[idx])
        env = rep["shell_comparison"]
        assert env["min"] >= 1 / 20 and env["max"] <= 20

    def test_region_lemma_envelope(self, ball, ball_grid_small, rng):
        tau, cent, w2 = koranyi.region_comparison_samples(
            ball, n_centers=25, eta=0.25, eps=0.1, grid=ball_grid_small,
            seed=4)
        rep = homtype.qm_exterior_check(ball, tau=tau, tau_center=cent,
                                        w2=w2)
        env = rep["region_comparison"]
        assert env["min"] >= 1 / 50 and env["max"] <= 50


def test_argument_refusals(ball, ball_grid_small):
    with pytest.raises(ValueError, match="unknown grid kind 'hex'"):
        homtype.build_boundary_grid(ball, 0.0, 100, kind="hex")
    with pytest.raises(ValueError, match="per-node"):
        homtype.maximal_function(ball_grid_small, np.ones(3))
    # one node: the diameter and every quasiball radius vanish
    lone = homtype.build_boundary_grid(ball, 0.0, 1, kind="random")
    with pytest.raises(ValueError, match="grid too coarse"):
        homtype.check_homogeneous(lone)


def test_centre_alone_in_its_quasiballs_is_refused(ball):
    # two nodes: each quasiball holds only its centre, whose measure is the
    # same at every radius, so the fitted slope would read about 0
    pair = homtype.build_boundary_grid(ball, 0.0, 2, kind="random")
    assert pair.diameter() > 0
    with pytest.raises(ValueError, match="grid too coarse"):
        homtype.check_homogeneous(pair)


class TestMaximalFunction:
    def test_constant_field(self, ball_grid_small):
        ma = homtype.maximal_function(ball_grid_small,
                                      np.ones(ball_grid_small.size))
        assert np.allclose(ma, 1.0, atol=1e-12)

    def test_dominates_field(self, ball_grid_small, rng):
        a = rng.standard_normal(ball_grid_small.size)
        ma = homtype.maximal_function(ball_grid_small, a)
        assert np.all(ma >= np.abs(a) - 1e-12)

    def test_spike_decay_and_brute_oracle(self, ball, ball_grid_mc):
        grid = ball_grid_mc
        i0 = int(np.argmax(grid.nodes[:, 0].real))
        a = np.zeros(grid.size)
        a[i0] = 1.0 / grid.w_sigma[i0]
        ma = homtype.maximal_function(grid, a)
        mb = homtype.maximal_function_brute(grid, a)
        assert np.all(ma <= mb + 1e-12)
        # dyadic ladder loses at most a doubling-constant factor; the
        # envelope below is measured once and asserted as stable
        ratio = ma / mb
        assert np.percentile(ratio, 1) >= 0.15
        assert np.median(ratio) >= 0.4
        d = homtype.grid_qdist(grid, grid.nodes[i0])
        far = (d > 0.15) & (d < 1.2)
        slope = np.polyfit(np.log(d[far]), np.log(mb[far]), 1)[0]
        assert abs(slope + 2.0) <= 0.35

    def test_sublinear_and_homogeneous(self, ball_grid_small, rng):
        a = rng.standard_normal(ball_grid_small.size)
        b = rng.standard_normal(ball_grid_small.size)
        ma = homtype.maximal_function(ball_grid_small, a)
        mb = homtype.maximal_function(ball_grid_small, b)
        mab = homtype.maximal_function(ball_grid_small, np.abs(a) + np.abs(b))
        assert np.all(mab <= ma + mb + 1e-10)
        m2 = homtype.maximal_function(ball_grid_small, 3.0 * a)
        assert np.allclose(m2, 3.0 * ma, rtol=1e-12)


    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed"])
    def test_at_matches_full_rows(self, request, name):
        domain = request.getfixturevalue(name)
        grid = homtype.build_boundary_grid(domain, 0.0, 1500, kind="random",
                                           seed=2)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(grid.size) * np.abs(grid.nodes[:, 0]) ** 3
        idx = rng.choice(grid.size, 48, replace=False)
        full = homtype.maximal_function(grid, a)
        part = homtype.maximal_function(grid, a, at=idx)
        assert part.tobytes() == full[idx].tobytes()


# batch sizes 1, B - 1, B, B + 1 and 2B + 17 around row blocks of B = 8
_BATCH_SIZES = (1, 7, 8, 9, 33)


def _unblocked_diameter(grid, seed):
    """The seeded 256-node sample's distance matrix, built whole."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(grid.size, size=min(256, grid.size), replace=False)
    return float(np.abs(grid.pair_self[idx, None]
                        - grid.grad[idx] @ grid.nodes.T).max())


class TestDiameter:
    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "perturbed_ball"])
    @pytest.mark.parametrize("m", _BATCH_SIZES)
    def test_blocked_equals_one_block(self, name, m, monkeypatch):
        # sample-row blocks of 8 against one block of all m sampled rows;
        # replace() gives a copy without the cached seed-0 value
        grid = homtype.build_boundary_grid(dom.from_catalog(name), 0.0, m,
                                           kind="random", seed=m)
        for seed in (0, 3):
            monkeypatch.setattr(homtype, "_DIAMETER_ROWS", 8)
            blocked = dataclasses.replace(grid).diameter(seed)
            monkeypatch.setattr(homtype, "_DIAMETER_ROWS", m)
            assert blocked == dataclasses.replace(grid).diameter(seed)
            assert blocked == _unblocked_diameter(grid, seed)

    def test_budget_blocks_equal_one_block(self, ellipsoid):
        # validate's 10,000-node grid takes blocks of 12 sample rows (2 MiB
        # of products each; 256 = 21 x 12 + 4), the 4,000-node grid keeps
        # blocks of 32; against the whole 256-row distance matrix
        for n, rows in ((10000, 12), (4000, 32)):
            grid = homtype.build_boundary_grid(ellipsoid, 0.0, n,
                                               kind="random", seed=5)
            assert min(homtype._DIAMETER_ROWS,
                       homtype._DIAMETER_VALUES // n // 2 * 2) == rows
            for seed in (0, 3):
                assert grid.diameter(seed) == _unblocked_diameter(grid, seed)

    def test_seed0_sample_drawn_once(self, ellipsoid, monkeypatch):
        grid = homtype.build_boundary_grid(ellipsoid, 0.0, 2000,
                                           kind="random", seed=2)
        draws, default_rng = [], np.random.default_rng

        def counting(seed=None):
            if isinstance(seed, int):   # the centre strata pass lists
                draws.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        homtype.stratified_centers(grid)
        a = np.abs(grid.nodes[:, 0])
        for at in (None, np.arange(7), np.arange(100, 150)):
            homtype.maximal_function(grid, a, at=at)
        assert draws == [0]

    def test_seeded_check_keeps_its_sample(self, ellipsoid):
        # check_homogeneous(seed=3) reads the seed-3 sample, not the cached
        # seed-0 one
        grid = homtype.build_boundary_grid(ellipsoid, 0.0, 3000,
                                           kind="random", seed=1)
        fresh = homtype.check_homogeneous(dataclasses.replace(grid), seed=3)
        assert grid.diameter() == _unblocked_diameter(grid, 0)
        rep = homtype.check_homogeneous(grid, seed=3)
        assert rep == fresh
        assert rep["deltas"] == (_unblocked_diameter(grid, 3) * np.array(
            [0.025, 0.05, 0.1, 0.2])).tolist()
        assert grid.diameter(seed=3) != grid.diameter()

    def test_peak_memory(self, ellipsoid, traced_peak_mib):
        # 10,000 nodes: 78.1 MiB for the whole 256 x N distance matrix,
        # 12.2 MiB in blocks of sample rows
        grid = homtype.build_boundary_grid(ellipsoid, 0.0, 10000,
                                           kind="random", seed=0)
        assert traced_peak_mib(grid.diameter) <= 32.0

    def test_sample_buffers_peak_memory(self, ellipsoid, traced_peak_mib):
        # 10,000 nodes: three 32 x N temporaries per block peaked at
        # 12.2 MiB; one product and one modulus buffer reused by every
        # block read 7.3 MiB, with the same value
        grid = homtype.build_boundary_grid(ellipsoid, 0.0, 10000,
                                           kind="random", seed=0)
        value = []
        peak = traced_peak_mib(lambda: value.append(grid._sample_diameter(0)))
        assert value == [_unblocked_diameter(grid, 0)]
        assert peak <= 9.0


class TestStratifiedCenters:
    def test_weights_cover_surface(self, ball, ball_grid_mc):
        cs = homtype.stratified_centers(ball_grid_mc, seed=0)
        assert cs.w_sigma.sum() == pytest.approx(ball_grid_mc.sigma_total,
                                                 rel=0.02)
        assert len(cs.nodes) < 80


class TestAsymmetry:
    def test_near_symmetry_envelope(self, ball, ball_grid_mc, rng):
        # d is not symmetric as written (the gradient sits at the first
        # argument); no symmetry is asserted, only an empirical two-sided
        # envelope between d(w, z) and d(z, w) on boundary pairs
        idx = rng.choice(ball_grid_mc.size, (4000, 2))
        idx = idx[idx[:, 0] != idx[:, 1]]
        w = ball_grid_mc.nodes[idx[:, 0]]
        z = ball_grid_mc.nodes[idx[:, 1]]
        dwz = homtype.qdist(ball, w, z)
        dzw = homtype.qdist(ball, z, w)
        ratio = dwz / dzw
        assert np.percentile(ratio, 0.5) >= 1 / 50
        assert np.percentile(ratio, 99.5) <= 50
